// The separated convolution operator: per-dimension Gaussian blocks, the
// write-once operator cache, displacement screening, and rank reduction.
//
// For one Gaussian term exp(-b u^2) the 1-D operator block coupling a source
// box to a target box `m` boxes away at level n is
//
//   T^{n,m}[i][j] = 2^{-n} iint_{[0,1]^2} phi_i(u) phi_j(v)
//                          exp(-b 4^{-n} (u - v + m)^2) du dv.
//
// The d-dimensional contribution of term mu is then the general transform of
// the source tensor by the d per-dimension blocks (Formula 1). Blocks are
// heavily reused across tasks, which is why the paper adds a write-once
// software cache on the GPU mirroring the CPU-side one (§II-B); here it is a
// per-level table read without locking (DESIGN.md, "The operator table").
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/batch_gemm.hpp"
#include "ops/separated.hpp"
#include "tensor/tensor.hpp"

namespace mh::ops {

/// Compute one raw 1-D Gaussian block B[j][i] (note the layout: contraction
/// index j first, so it can be fed straight to transform()):
///   B[j][i] = iint phi_i(u) phi_j(v) exp(-beta (u - v + m)^2) du dv.
/// Handles both broad (beta << 1) and sharp (beta >> 1) Gaussians by
/// windowed inner quadrature and panelized outer quadrature.
Tensor gaussian_block(std::size_t k, double beta, std::int64_t m);

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// One displacement vector on the level grid.
using Displacement = std::array<std::int64_t, kMaxTensorDim>;

class SeparatedConvolution {
 public:
  struct Params {
    std::size_t ndim = 3;
    std::size_t k = 10;
    double thresh = 1e-6;       ///< screening threshold for displacements
    std::int64_t max_disp = 4;  ///< hard cap on per-dimension displacement
    /// Periodic (torus) boundary: displacements wrap modulo the level grid
    /// and every screened displacement contributes as one periodic image.
    bool periodic = false;
  };

  SeparatedConvolution(Params params, SeparatedKernel kernel);

  const Params& params() const noexcept { return params_; }
  /// Number of separated terms (the paper's M, typically ~100).
  std::size_t rank() const noexcept { return kernel_.rank(); }
  double term_coeff(std::size_t mu) const { return kernel_.terms.at(mu).coeff; }
  const SeparatedKernel& kernel() const noexcept { return kernel_; }

  /// Levels the operator table covers (mra keys stop below level 62).
  static constexpr int kLevels = 64;

  /// The cached (k x k) block for term mu, level n, 1-D displacement m,
  /// including the 2^{-n} scale factor, for 0 <= n < kLevels and |m| <=
  /// 2 max_disp + 1. Thread-safe, write-once, lock-free once filled; the
  /// pointer does not own the block, which lives as long as the operator.
  std::shared_ptr<const Tensor> h_block(std::size_t mu, int n,
                                        std::int64_t m) const;

  /// Frobenius norm of h_block(mu, n, m) (cached alongside the block).
  double h_block_norm(std::size_t mu, int n, std::int64_t m) const;

  /// Which part of the nonstandard block to return. The telescoped level-n
  /// increment of a d-dimensional operator is (prod_dim U) - (prod_dim ss):
  /// callers apply kFull and subtract the kSsOnly product (for d = 1 this
  /// equals applying U with a zeroed ss quadrant, but not for d > 1).
  enum class NsPart { kFull, kSsOnly };

  /// The (2k x 2k) nonstandard-form block for term mu at level n,
  /// displacement m, in the combined {phi, psi} basis (layout: source
  /// index first, like h_block). Built from the level-(n+1) blocks at
  /// displacements 2m-1, 2m, 2m+1 via the two-scale matrix. kSsOnly keeps
  /// only the scaling->scaling quadrant (everything else zero). Cached,
  /// thread-safe, valid as long as the operator (like h_block).
  std::shared_ptr<const Tensor> ns_block(std::size_t mu, int n,
                                         std::int64_t m, NsPart part) const;

  /// Effective contraction rank of the block: the smallest r such that
  /// dropping trailing rows and columns changes the block by < tol in
  /// Frobenius norm (paper §II-D / Figure 4). Exact for every tol: each
  /// block keeps its truncation norms, so no tolerance is cached.
  std::size_t reduced_rank(std::size_t mu, int n, std::int64_t m,
                           double tol) const;

  /// Displacements at level n that survive norm screening against thresh,
  /// sorted by distance (m = 0 first). Cached per level.
  const std::vector<Displacement>& displacements(int n) const;

  /// One Apply task's operands: append its rank() * ndim blocks (term-major,
  /// raw views) to `mats` and, if rank_tol > 0, each term's reduced rank to
  /// `kreds`. Counts its lookups as h_block (+ reduced_rank) calls would.
  void gather_task(int n, const Displacement& disp, double rank_tol,
                   std::vector<linalg::GemmMat>& mats,
                   std::vector<std::size_t>& kreds) const;

  /// Each block lookup is one hit or one miss (the first fill of a block).
  CacheStats cache_stats() const;

 private:
  /// An object set once under mu_ and published with release; readers
  /// acquire-load it without a lock. It never moves and is owned (deleted)
  /// through the pointer.
  template <typename T>
  class WriteOnce {
   public:
    WriteOnce() = default;
    WriteOnce(const WriteOnce&) = delete;
    WriteOnce& operator=(const WriteOnce&) = delete;
    ~WriteOnce() { delete get(); }
    T* get() const noexcept { return ptr_.load(std::memory_order_acquire); }
    T& publish(std::unique_ptr<T> value) {
      ptr_.store(value.get(), std::memory_order_release);
      return *value.release();
    }

   private:
    std::atomic<T*> ptr_{nullptr};
  };
  struct Block {
    Tensor h;
    /// tail[r] = || h - h[:r, :r] ||_F for 0 <= r < k (tail[0] = ||h||_F).
    std::vector<double> tail;
    std::size_t rank_for(double tol) const;
  };
  struct Slot {
    WriteOnce<const Block> block;
    std::array<WriteOnce<const Tensor>, 2> ns;  ///< kFull, kSsOnly
  };
  /// Slots [mu][m + reach_] of one level, plus its screened displacements.
  struct Level {
    explicit Level(std::size_t slots) : slot(new Slot[slots]) {}
    std::unique_ptr<Slot[]> slot;
    WriteOnce<const std::vector<Displacement>> displacements;
  };

  Level& level(int n) const;
  Slot& slot(const Level& level, std::size_t mu, std::int64_t m) const;
  /// Block (mu, n, m) of `level`: read lock-free once published, else
  /// computed under mu_ (a miss). A published block counts into `hits`.
  const Block& block(const Level& level, std::size_t mu, int n, std::int64_t m,
                     std::size_t& hits) const;
  const Block& lookup(std::size_t mu, int n, std::int64_t m) const;

  Params params_;
  SeparatedKernel kernel_;
  // Largest |m| the table holds (2 max_disp + 1, for ns_block's children)
  // and the slots per term (2 reach_ + 1).
  std::int64_t reach_ = 0;
  std::size_t width_ = 0;
  mutable std::recursive_mutex mu_;  ///< serializes first fills only
  mutable std::array<WriteOnce<Level>, kLevels> levels_;
  // Own cache line: every lookup adds to it, and levels_ is read as often.
  alignas(64) mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

}  // namespace mh::ops
