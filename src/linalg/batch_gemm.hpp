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
//   - shares mode-prefix intermediates across the tasks of a batch, and
//     across consecutive calls over one block table,
//   - stacks the terms in the last mode: a task's result is a sum over
//     terms, sum_mu c_mu * P_mu^T H_mu = [c_0 P_0; ...]^T x [H_0; ...],
//     so the last mode of all the tasks below one prefix is ONE fused
//     kernel call that adds each product straight from registers into its
//     task's result (see batch_fused_apply).
//
// Items name their blocks through a table, as MADNESS stores its operator:
// term mu's 1-D block for displacement component m is the table's entry
// (mu, m), so an Apply item is (src, displacement, result) and its block of
// term mu in mode j is entry (mu, disp[j]). Items that read one column read
// the same blocks in every term, so the engine knows a block only by its
// column and orders and groups items on integers alone: its work depends
// on the input, not on where the blocks were allocated. Pointer items
// (FusedApplyItem) reach it through an adapter that numbers their blocks
// into a per-call table. Sharing is complete when the items' kc vectors
// agree (full rank, say) and, for pointer items, the later terms' blocks
// follow term 0's, as an operator's follow the displacement: then the one
// ordering keeps every group's items and every term's equal prefixes
// adjacent. Otherwise results are unchanged and only some sharing is lost.
//
// Numerical contract: every kernel here performs, per output element, the
// exact same IEEE operation sequence as the scalar reference in gemm.cpp
// (zeroed accumulator, ascending-k multiply-then-add, one final add into c,
// or, into a node the kernel overwrites, the store of 0.0 + acc)
// on the operands it contracts — for the stacked last mode, the terms'
// rows one after the other, each A element rounded once as c_mu * P_mu.
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
#include <utility>
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
  /// batch_fused_apply's (src, kc, h_0..h_j) prefix nodes computed, per
  /// term; a fan-out call over n slots of M terms computes n * M
  /// last-mode nodes in one call.
  std::size_t prefix_nodes = 0;
  std::size_t fused_chains = 0;  ///< whole-task fused passes
  /// Flops the microkernel calls executed, 2 per multiply-add: a
  /// (dimi, kc) x (kc, dimj) product adds 2 * dimi * dimj * kc, a fan-out
  /// call over n slots with stacked depth K adds 2 * dimi * K * n * k.
  double flops = 0.0;
};

/// Grow-only aligned scratch arena for packed panels, fused-chain
/// ping-pong buffers and the fused-apply prefix stacks. Reused across calls;
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
  /// batch_fused_apply's prefix stacks: d - 1 mode-prefix intermediates
  /// per term (8,750 doubles at d = 3, k = 5, M = 35). Growing them moves
  /// them, so the record of what they hold is forgotten.
  double* prefix(std::size_t n) {
    if (n > prefix_.capacity) record_.forget();
    return prefix_.ensure(n);
  }

  /// What the prefix stacks hold, kept from one batch_fused_apply call to
  /// the next: term mu's mode-m node (m < d - 1) was computed from src[mu]
  /// at contraction length kc[mu] through blocks[mu * (d - 1) + 0..m],
  /// blocks of the BlockTable whose id is `table` (0: none, and then
  /// nothing carries over to the next call); src[mu] == nullptr, or mu
  /// past src.size(), holds nothing. `copy` holds the k^d values `copied`
  /// had when the stacks last read it, the one source whose stacks carry
  /// over. Grow-only, like the buffers.
  struct StackRecord {
    std::uint64_t table = 0;
    std::size_t d = 0;
    std::size_t k = 0;
    std::vector<const double*> src;
    std::vector<std::size_t> kc;
    std::vector<const double*> blocks;
    const double* copied = nullptr;
    std::vector<double> copy;

    /// Holds nothing from here on.
    void forget() noexcept;
  };
  StackRecord& stack_record() noexcept { return record_; }

  /// batch_fused_apply's grow-only bookkeeping: each item as the walk sees
  /// it (entries, ranked among the call's sources) with its table column
  /// per mode (cols) and kc per term (kc; one row for all without per-item
  /// ranks); the call's one ordering; the current group's A segments, slots'
  /// blocks and the epilogue's results, slot s's at fan_targets[fan_start[s]
  /// .. fan_start[s + 1]); the pointer-keyed entry point's table and tuples.
  struct ShareScratch {
    struct Entry {
      const double* src;
      double* result;
      const double* coeffs;
      std::size_t terms;
      std::size_t source;
    };
    std::vector<Entry> entries;
    std::vector<std::size_t> cols;
    std::vector<std::size_t> kc;
    std::vector<std::pair<const double*, const double*>> sources;
    std::vector<std::size_t> order;
    std::vector<const double*> group_a;
    std::vector<const double*> fan_blocks;
    std::vector<std::size_t> fan_start;
    std::vector<double*> fan_targets;
    /// A pointer item's blocks of one mode, term mu's at blocks[mu * d].
    struct Tuple {
      const GemmMat* blocks;
      std::size_t terms;
      std::size_t at;  ///< item * d + mode
    };
    std::vector<const double*> table;
    std::vector<Tuple> tuples;
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
  StackRecord record_;
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

/// One fused pass over a whole transform chain with assignment semantics
/// (each step stores 0.0 + acc; `out` is never read):
///   out = src x_0 mats[0] x_1 mats[1] ... x_{n-1} mats[n-1]
/// where x_m contracts the leading index of the running intermediate with
/// mats[m] (rows must match that extent; the result appends cols as the
/// trailing extent — exactly tensor/transform.hpp's inner_first cycling).
/// `shape` is src's shape; `out` must hold the final element count (the
/// product of `shape` with each mats[m].rows replaced by mats[m].cols).
/// kred >= extent disables row screening. All intermediates live in the
/// workspace: no allocations after warm-up.
void fused_transform_chain(std::span<const std::size_t> shape,
                           const double* src, std::span<const GemmMat> mats,
                           std::size_t kred, double* out, GemmWorkspace& ws);

/// One item of a pointer-keyed fused-apply call, the paper's whole-task
/// fusion: for a d-dimensional cube source of extent k,
///   result += sum_mu coeffs[mu] * (src x_0 h[mu*d+0] ... x_{d-1} h[mu*d+d-1])
/// with all h square (k, k); `kreds` (optional, per-term) limits each
/// contraction to the term's reduced rank (empty span = full rank). The
/// items of a call share the d/k shape of the batch (the homogeneity the
/// BatchingEngine's kind hash guarantees).
struct FusedApplyItem {
  const double* src = nullptr;      ///< k^d source coefficients
  std::span<const GemmMat> mats;    ///< terms*d square (k,k) blocks
  std::span<const double> coeffs;   ///< one weight per term
  std::span<const std::size_t> kreds;  ///< per-term reduced rank (optional)
  double* result = nullptr;         ///< k^d accumulation target
};

/// The operator a displacement-keyed call reads, indexed [mu][m]: term
/// mu's (k, k) block at 1-D displacement component m is
/// blocks[mu * width + origin + m], and, when `ranks` is set, the rank it
/// contracts at the call's tolerance is ranks[mu * width + origin + m].
/// Non-owning; every entry an item reads must be valid for the call.
///
/// `id` names the table for the prefix stacks' record: a nonzero id
/// (from fresh_id(), never an address) promises that the table's blocks
/// never change, so an entry read by two calls with that id is the same
/// block, bit for bit. Then a call may reuse the prefix intermediates the
/// previous call on its workspace left. id 0 promises nothing: the call
/// reuses nothing from earlier calls and leaves nothing for later ones.
struct BlockTable {
  const double* const* blocks = nullptr;
  std::size_t width = 0;        ///< entries per term
  std::int64_t origin = 0;      ///< column of component 0
  const std::size_t* ranks = nullptr;  ///< optional: per-block ranks
  std::uint64_t id = 0;         ///< write-once identity, 0: none

  /// A nonzero id no other call of this process has returned.
  static std::uint64_t fresh_id() noexcept;
};

/// One item of a displacement-keyed call: one Apply task,
///   result += sum_mu coeffs[mu] * (src x_0 h(mu, disp[0]) ...
///                                      x_{d-1} h(mu, disp[d-1]))
/// with h(mu, m) the table's block, each term contracting kc_mu rows:
/// k, or the call's kcap[mu], or with ranks the least rank over the
/// item's d blocks of that term, whichever is smallest.
struct DisplacementItem {
  const double* src = nullptr;          ///< k^d source coefficients
  const std::int64_t* disp = nullptr;   ///< d displacement components
  double* result = nullptr;             ///< k^d accumulation target
};

/// Most slots one fan-out call walks under a packed panel: past a few
/// slots the panel's pack is amortized and a slot costs the same
/// (EXPERIMENTS.md, "Term-stacked last mode"), and n <= k keeps a one-term
/// group's blocks within k^3 doubles. A longer group is split into several
/// calls. An operator prefix node has one child per screened last
/// displacement component, at most 2 * max_disp + 1.
constexpr std::size_t fan_out_limit(std::size_t k) noexcept { return k; }

/// Batched entry point: every item's fused chain through one workspace,
/// with mode-prefix intermediates shared between items. `coeffs` holds one
/// weight per term (M = coeffs.size()); `kcap` is empty or caps each
/// term's contraction. For term mu, the mode-0..j intermediate of an item
/// is a function of its src, the term's contraction length kc_mu and its
/// blocks in modes 0..j, that is, of its displacement components
/// m_0..m_j.
///
/// The items are ordered once per call, on integers only: by source (an
/// item's src and weights, ranked by first appearance in the call),
/// columns of modes 0..d-2, term count, kc vector (compared from the last
/// term down), last column and position in the call. They are walked in
/// fan-out groups: runs of items equal in all but the last two. Each term
/// keeps its own stack of d - 1 intermediates in the workspace, and the
/// workspace records what each stack holds (GemmWorkspace::StackRecord:
/// the src, kc and block of every mode it was computed from). One rule
/// runs the walk, inside a call and across calls: a group recomputes a
/// term's stack from the first mode whose (src, kc, block) differ from the
/// record. So an intermediate is computed once per run of adjacent groups
/// that share it: once per call when the items' kc vectors agree (full
/// rank, say), and again in every such run when mixed kc vectors
/// interleave (EXPERIMENTS.md, "Term-stacked last mode").
///
/// Across calls the record holds only under two conditions, so reuse never
/// changes a bit:
///   - Table. The call's BlockTable::id is nonzero and equal to the
///     previous call's on this workspace (with the same d and k). Equal ids
///     mean the same write-once blocks, so an equal block pointer means an
///     equal block. A call without an id (id 0, and every pointer-keyed
///     call) starts from an empty record and leaves none behind.
///   - Source. Only the stacks of the last group's source carry over, and
///     only if the current call passes that pointer again and its k^d
///     values are memcmp-equal to the copy the workspace took when the
///     stacks read it; the copy is refreshed whenever a call loads another
///     source. A recorded pointer is dereferenced only when the current
///     call passes it.
/// So consecutive one-item calls of one source leaf's tasks, in the
/// operator's lexicographic task order, compute each shared prefix once,
/// as a leaf batch does.
///
/// The
/// group's last mode is then ONE fused kernel call with contraction length
/// K = sum_mu kc_mu over its n slots (n <= fan_out_limit(k)), the distinct
/// last columns (duplicates share a slot): A stacks each term's first
/// kc_mu rows of its mode-(d-2) intermediate, weighted by coeffs[mu] as
/// each 4-row panel is packed, once; each slot's B is its terms' last
/// blocks, read in place one after the other; and each tile's epilogue
/// adds 0.0 + acc into the result of every item that reads that slot. So
/// a batch of the tasks of one source leaf runs one GEMM per distinct
/// (src, kc, m_0..m_j) node of modes 0..d-2 plus one per fan-out group,
/// instead of d per item per term, and no product is ever stored.
///
/// The workspace holds M * (d - 1) * k^d doubles of prefix stacks for a
/// batch of M-term items, per thread: 70 KB at d = 3, k = 5, M = 35,
/// 12.8 MB at d = 3, k = 20, M = 100 and 24 MB at d = 4, k = 10, M = 100.
/// The nonstandard-form Apply's items carry 2M terms of extent 2k, so
/// 2M * (d - 1) * (2k)^d doubles: 1.1 MB at d = 3, k = 5, M = 35. The
/// record adds M * (d + 1) words and the k^d-double source copy (1 KB at
/// d = 3, k = 5; 80 KB at d = 4, k = 10), taken once per call that loads
/// a new source: once per leaf in a leaf-batched Apply.
///
/// Every result is bitwise equal to mTxm_ref of its stacked operands —
/// each term's chain of modes 0..d-2 through mTxm_reduced_ref into zeroed
/// intermediates, A = [c_0 P_0[0..kc_0); ...], B = [H_0[0..kc_0); ...] —
/// into a zeroed product, added into the result, whatever the grouping
/// and whatever an earlier call left; so it is bitwise equal to that
/// item's one-item call on a fresh workspace. A prefix node is stored as
/// 0.0 + acc, bitwise the zeroed intermediate plus the product, without
/// zeroing it first. Results must not overlap each other or any src. Warm
/// calls allocate nothing: all scratch lives in `ws` and only grows.
void batch_fused_apply(std::size_t d, std::size_t k, const BlockTable& table,
                       std::span<const double> coeffs,
                       std::span<const std::size_t> kcap,
                       std::span<const DisplacementItem> items,
                       GemmWorkspace& ws);

/// The pointer-keyed entry point, an adapter onto the same walk: items
/// carry their blocks, each its own term count, weights and kreds. The
/// call's distinct per-mode tuples of blocks become the columns of a
/// per-call table, numbered in address order, so the same tasks as
/// displacement items give bitwise equal results, and equal BatchGemmStats
/// when each term's blocks lie in column order in memory.
void batch_fused_apply(std::size_t d, std::size_t k,
                       std::span<const FusedApplyItem> items,
                       GemmWorkspace& ws);

}  // namespace mh::linalg
