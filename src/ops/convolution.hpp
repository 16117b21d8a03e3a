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
#include <span>
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
  /// Every term's weight c_mu, in term order.
  std::span<const double> term_coeffs() const noexcept { return coeffs_; }
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

  /// Displacements at level n that survive norm screening against thresh
  /// (m = 0 always does), sorted lexicographically, component 0 slowest.
  /// Cached per level. This order is the Apply's task order: term mu's
  /// mode-0..j intermediate of a task depends only on the source and
  /// m_0..m_j, so consecutive tasks of one leaf share their longest mode
  /// prefix, and one-task calls on one thread reuse it from the call before
  /// (linalg::batch_fused_apply); a distance order scatters those prefixes.
  const std::vector<Displacement>& displacements(int n) const;

  /// Level n's operator table as linalg::batch_fused_apply reads it:
  /// rank() rows of 2 * reach + 1 entries, block (mu, m) at [mu][m + reach]
  /// with reach = 2 max_disp + 1, and the level's id (BlockTable::id: its
  /// blocks are write-once, so the id is the table's for the operator's
  /// life and no other table's). It is the level's own table (no copy):
  /// every term's blocks at the items' displacement components are looked
  /// up first, counted as the items' rank() * ndim block reads each
  /// (h_block calls would count them so), and each of those entries is
  /// valid from then on. With rank_tol > 0 the view also carries those
  /// blocks' reduced ranks (reduced_rank(mu, n, m, rank_tol)), counted as
  /// as many more reads, in a per-thread table valid until the calling
  /// thread's next call.
  ///
  /// The calling thread keeps its row of ranks for its last (level table,
  /// rank_tol) with a mask of the columns already looked up, so a call
  /// looks up and ranks only the columns that thread has not seen under
  /// that key: consecutive one-task calls of one leaf cost about what one
  /// leaf batch does. Hits still count every read: reads minus this call's
  /// misses (the first fills among the columns it looked up).
  linalg::BlockTable h_table(int n,
                             std::span<const linalg::DisplacementItem> items,
                             double rank_tol) const;

  /// Level n's nonstandard blocks as a table, like h_table (with its own
  /// id, distinct from the h table's): row mu holds
  /// term mu's kFull blocks and, at n > 0 (where the telescoping subtracts
  /// them), row rank() + mu its kSsOnly blocks, each looked up (ns_block)
  /// at the items' displacement components.
  linalg::BlockTable ns_table(
      int n, std::span<const linalg::DisplacementItem> items) const;

  /// Each block lookup is one hit or one miss (the first fill of a block).
  /// The hits are the sum of the per-thread counters, each read once.
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
  /// h and ns are the table views h_table and ns_table hand out: each
  /// published block's data, [mu][m + reach_] and [part][mu][m + reach_],
  /// written before the block is published; h_id and ns_id their ids.
  struct Level {
    explicit Level(std::size_t slots)
        : slot(new Slot[slots]),
          h(new const double*[slots]()),
          ns(new const double*[2 * slots]()) {}
    std::unique_ptr<Slot[]> slot;
    std::unique_ptr<const double*[]> h;
    std::unique_ptr<const double*[]> ns;
    const std::uint64_t h_id = linalg::BlockTable::fresh_id();
    const std::uint64_t ns_id = linalg::BlockTable::fresh_id();
    WriteOnce<const std::vector<Displacement>> displacements;
  };

  Level& level(int n) const;
  /// Index of (mu, m) in a level's slots and its h table.
  std::size_t index(std::size_t mu, std::int64_t m) const;
  Slot& slot(const Level& level, std::size_t mu, std::int64_t m) const;
  /// Block (mu, n, m) of `level`: read lock-free once published, else
  /// computed under mu_ (a miss). A published block counts into `hits`.
  const Block& block(const Level& level, std::size_t mu, int n, std::int64_t m,
                     std::size_t& hits) const;
  const Block& lookup(std::size_t mu, int n, std::int64_t m) const;
  /// Adds `hits` to the calling thread's counter (see hits_).
  void count_hits(std::size_t hits) const;

  Params params_;
  SeparatedKernel kernel_;
  std::vector<double> coeffs_;  ///< term_coeffs()
  // Largest |m| the table holds (2 max_disp + 1, for ns_block's children)
  // and the slots per term (2 reach_ + 1).
  std::int64_t reach_ = 0;
  std::size_t width_ = 0;
  mutable std::recursive_mutex mu_;  ///< serializes first fills only
  mutable std::array<WriteOnce<Level>, kLevels> levels_;
  mutable std::atomic<std::size_t> misses_{0};  ///< added under mu_
  /// One hit counter per thread that read a block, each on its own cache
  /// line. Only its thread writes it, with a relaxed load and store (no
  /// read-modify-write, no lock prefix), so a block read makes no write to
  /// a line another thread writes; cache_stats() sums them. A thread finds
  /// its counter through a thread-local entry keyed by serial_, which no
  /// other operator of the process shares. The counters outlive their
  /// threads and are freed with the operator.
  struct alignas(64) HitCounter {
    std::atomic<std::size_t> hits{0};
  };
  const std::uint64_t serial_ = linalg::BlockTable::fresh_id();
  mutable std::mutex hits_mu_;  ///< guards hits_, not the counts
  mutable std::vector<std::unique_ptr<HitCounter>> hits_;
};

}  // namespace mh::ops
