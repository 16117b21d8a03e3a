// Batched small-GEMM compute engine — the CPU half of the paper's fused
// Apply kernel (§II-C), built for the (k^{d-1}, k) x (k, k) shapes of
// Formula 1 with k in the 10-30 range.
//
// The legacy path ran every multiplication through the scalar register-tiled
// mTxm in gemm.cpp: no packing, no SIMD, one heap-allocated temporary per
// mode, and M * d independent calls per Apply task. This engine instead
//   - packs the strided A operand (the transposed tensor walk of mTxm) into
//     aligned, cache-resident 4-wide panels once per tile,
//   - runs explicit 4 x 8 register-tile microkernels over the packed panels
//     (AVX2 on x86-64 when the CPU has it, a same-order portable tile
//     otherwise),
//   - fuses the whole M * d transform chain of one Apply task into a single
//     packed pass over workspace buffers — zero allocations after warm-up —
//     instead of M * d mTxm calls with fresh temporaries,
//   - shares mode-prefix intermediates across the tasks of a batch: a
//     term's mode-0..j intermediate depends only on the source, the term's
//     contraction length and its leading j+1 blocks, so the tasks of one
//     source leaf (whose displacements share leading components) run it
//     once instead of once per task,
//   - fans out the last mode: the tasks below one mode-(d-2) prefix node
//     differ only in their last block, so their last mode is ONE fused
//     kernel call over the n distinct last blocks, not n separate GEMMs:
//     it packs each 4-row panel of the shared intermediate once, walks the
//     blocks in place, and in each tile's epilogue adds coeff * product
//     straight from registers into every task result that reads the block
//     — no product buffer and no separate accumulation pass.
//
// Sharing is complete when, for every term, an item's block in mode m is a
// function of one per-mode identity that term 0's block also determines —
// as an operator's blocks are a function of the displacement component:
// then the one item ordering per call (by source and term-0 blocks) keeps
// every term's equal prefixes adjacent. Otherwise results are unchanged
// and only some sharing is lost.
//
// Numerical contract: every kernel here performs, per output element, the
// exact same IEEE operation sequence as the scalar reference in gemm.cpp
// (zeroed accumulator, ascending-k multiply-then-add, one final add into c).
// No FMA contraction is used on any path (the TUs compile with
// -ffp-contract=off), so packed, portable, and reference results agree
// BITWISE — tests assert equality, not tolerance.
//
// Thread model: kernels are stateless; all scratch lives in a GemmWorkspace.
// One workspace per thread (thread_workspace()) makes every pool worker
// contention-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mh::linalg {

/// Matrix operand of a transform chain: row-major (rows, cols), non-owning.
/// (linalg sits below tensor in the dependency order, so this mirrors
/// tensor/transform.hpp's MatrixView at the raw-pointer level.)
struct GemmMat {
  const double* ptr = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// Counters the engine accumulates per workspace (cheap, thread-local).
struct BatchGemmStats {
  std::size_t packed_gemms = 0;  ///< microkernel GEMMs executed
  /// batch_fused_apply's distinct (src, kc, h_0..h_j) prefix nodes
  /// computed; a fan-out call computes n last-mode nodes in one call.
  std::size_t prefix_nodes = 0;
  std::size_t fused_chains = 0;  ///< whole-task fused passes
};

/// One result a fan-out kernel call adds a scaled product into: a task's
/// (k^{d-1}, k) result and its term's coefficient (see batch_fused_apply).
struct FanOutTarget {
  double* result = nullptr;
  double coeff = 0.0;
};

/// Grow-only aligned scratch arena for packed panels, fused-chain
/// ping-pong buffers and the fused-apply prefix stack. Reused across calls;
/// never shrinks. One per thread — see thread_workspace().
class GemmWorkspace {
 public:
  GemmWorkspace() = default;
  GemmWorkspace(const GemmWorkspace&) = delete;
  GemmWorkspace& operator=(const GemmWorkspace&) = delete;

  /// 64-byte-aligned buffers, valid until the next call with a larger n.
  double* pack_a(std::size_t n) { return pack_a_.ensure(n); }
  double* ping(std::size_t n) { return ping_.ensure(n); }
  double* pong(std::size_t n) { return pong_.ensure(n); }
  /// batch_fused_apply's stack of d - 1 mode-prefix intermediates.
  double* prefix(std::size_t n) { return prefix_.ensure(n); }

  /// batch_fused_apply's grow-only bookkeeping: the items' sharing keys,
  /// their one ordering per call, its per-term regrouping by contraction
  /// length, and one fan-out group's distinct last blocks (its slots),
  /// each item's slot, and the slot lists the kernel epilogue adds into:
  /// slot s's targets are fan_targets[fan_start[s] .. fan_start[s + 1]).
  struct ShareScratch {
    std::vector<std::uintptr_t> keys;
    std::vector<std::size_t> order;
    std::vector<std::size_t> term_order;
    std::vector<std::size_t> kc_start;
    std::vector<const double*> fan_blocks;
    std::vector<std::size_t> fan_slot;
    std::vector<std::size_t> fan_start;
    std::vector<FanOutTarget> fan_targets;
  };
  ShareScratch& share_scratch() noexcept { return share_; }

  BatchGemmStats& stats() noexcept { return stats_; }
  const BatchGemmStats& stats() const noexcept { return stats_; }

 private:
  struct Buffer {
    std::vector<double> storage;
    double* aligned = nullptr;
    std::size_t capacity = 0;

    double* ensure(std::size_t n);
  };

  Buffer pack_a_;
  Buffer ping_;
  Buffer pong_;
  Buffer prefix_;
  ShareScratch share_;
  BatchGemmStats stats_;
};

/// The calling thread's workspace (thread-local, constructed on first use).
GemmWorkspace& thread_workspace();

/// True when the packed kernels run the AVX2 microkernel on this CPU
/// (x86-64 with AVX2); false means the same-order portable tile.
bool packed_kernels_use_avx2() noexcept;

/// Packed mTxm: c(dimi,dimj) += a(dimk,dimi)^T * b(dimk,dimj), all
/// row-major, contracting only the first `kred` rows (kred >= dimk gives
/// the full product). Bitwise-identical to mTxm_ref / mTxm_reduced_ref.
void mTxm_packed(std::size_t dimi, std::size_t dimj, std::size_t dimk,
                 std::size_t kred, double* c, const double* a,
                 const double* b, GemmWorkspace& ws);

/// One fused pass over a whole transform chain with assignment semantics:
///   out = src x_0 mats[0] x_1 mats[1] ... x_{n-1} mats[n-1]
/// where x_m contracts the leading index of the running intermediate with
/// mats[m] (rows must match that extent; the result appends cols as the
/// trailing extent — exactly tensor/transform.hpp's inner_first cycling).
/// `shape` is src's shape; `out` must hold the final element count
/// (chain_output_size). kred >= extent disables row screening. All
/// intermediates live in the workspace: no allocations after warm-up.
void fused_transform_chain(std::span<const std::size_t> shape,
                           const double* src, std::span<const GemmMat> mats,
                           std::size_t kred, double* out, GemmWorkspace& ws);

/// Element count of fused_transform_chain's result.
std::size_t chain_output_size(std::span<const std::size_t> shape,
                              std::span<const GemmMat> mats);

/// The paper's whole-task fusion: for a d-dimensional cube source of extent
/// k, accumulate every separated term in one packed pass,
///   result += sum_mu coeffs[mu] * (src x_0 h[mu*d+0] ... x_{d-1} h[mu*d+d-1])
/// with all h square (k, k). `kreds` (optional, per-term) limits each
/// contraction to the term's reduced rank (empty span = full rank).
/// Bitwise-identical to the mode-by-mode composition through mTxm_ref plus
/// gaxpy-style accumulation. This is batch_fused_apply on one item.
void fused_apply_chain(std::size_t d, std::size_t k, const double* src,
                       std::span<const GemmMat> mats,
                       std::span<const double> coeffs,
                       std::span<const std::size_t> kreds, double* result,
                       GemmWorkspace& ws);

/// One item of a batched fused-apply call: an independent Apply task whose
/// operand tensors share the d/k shape of the batch (the homogeneity the
/// BatchingEngine's kind hash guarantees).
struct FusedApplyItem {
  const double* src = nullptr;      ///< k^d source coefficients
  std::span<const GemmMat> mats;    ///< terms*d square (k,k) blocks
  std::span<const double> coeffs;   ///< one weight per term
  std::span<const std::size_t> kreds;  ///< per-term reduced rank (optional)
  double* result = nullptr;         ///< k^d accumulation target
};

/// Most distinct last-mode blocks one fan-out call walks under a packed
/// panel: n <= k keeps the group's blocks within k^3 doubles (8 KB at
/// k = 10), so every 4-row panel re-reads them from L1 as it sweeps them.
/// A longer run is split into several calls. An operator prefix node has
/// one child per screened last displacement component, at most
/// 2 * max_disp + 1.
constexpr std::size_t fan_out_limit(std::size_t k) noexcept { return k; }

/// Batched entry point: every item's fused chain through one workspace,
/// with mode-prefix intermediates shared between items. For term mu, two
/// items share the mode-0..j intermediate when they have the same src, the
/// same contraction length kc = min(kreds[mu], k) (k without kreds) and the
/// same block pointers mats[mu*d+0..j]; it is then computed once.
///
/// The items are ordered once per call, by src and term-0 block pointers;
/// each term regroups that order by kc (a stable counting pass) and walks
/// it with a stack of d - 1 intermediates (in the workspace), recomputed
/// only from the first mode where an item's key differs from the one
/// before. The run of items below one mode-(d-2) node then takes its last
/// mode as one fused kernel call over its n distinct last blocks
/// (n <= fan_out_limit(k)): each 4-row panel of the mode-(d-2)
/// intermediate is packed once, the blocks are read in place, and each
/// tile's epilogue adds coeffs[mu] * (0.0 + acc) into the result of every
/// item that reads that block (duplicate blocks share a slot). So a batch
/// of the tasks of one source leaf runs one GEMM per distinct
/// (src, kc, h_0..h_j) node of modes 0..d-2 plus one per fan-out group,
/// instead of d per item per term, and no product is ever stored.
///
/// Every output element sees the same packed-kernel operation sequence as
/// in the item's own chain, `0.0 + acc` being the add into a zeroed
/// product, and each result receives its terms in ascending mu, so every
/// result is bitwise equal to that item's fused_apply_chain and to the
/// mTxm_reduced_ref composition, whatever the grouping. Results must not
/// overlap each other or any src. Warm calls allocate nothing: all scratch
/// lives in `ws` and only grows.
void batch_fused_apply(std::size_t d, std::size_t k,
                       std::span<const FusedApplyItem> items,
                       GemmWorkspace& ws);

}  // namespace mh::linalg
