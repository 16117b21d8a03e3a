// The Apply operator (paper Algorithms 1-6): convolve an MRA function with a
// separated kernel, one task per (source leaf, displacement).
//
// This header exposes the one-call reference CPU implementation, the leaf
// task loop it and the World Apply run (one batch per source leaf, adding
// each task's product straight into its target's tensor), the task
// decomposition (enumerate -> compute -> accumulate) that the batching
// runtime, the GPU simulator, and the cluster simulator schedule, and the
// owner-computes cut (SlabCut) that splits one Apply's targets into sides.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mra/function.hpp"
#include "ops/convolution.hpp"

namespace mh::ops {

/// One Apply task: contribution of one source leaf through one displacement
/// (paper Algorithm 1's loop body). `target` is source translated by `disp`.
struct ApplyTask {
  mra::Key source;
  mra::Key target;
  Displacement disp{};
};

/// Logical work of an Apply: tasks * M * d small GEMMs (Formula 1), the same
/// on every path (serial, World, batching), which is what cross-path checks
/// and the simulators' cost models consume. The work actually executed is
/// less: batch_fused_apply computes each mode-prefix intermediate a leaf's
/// tasks share once (linalg::BatchGemmStats::prefix_nodes) and takes the
/// last mode of all the tasks below one mode-(d-2) prefix in one fan-out
/// kernel call, every separated term stacked into one contraction of
/// length sum_mu kc_mu, which adds each task's product straight into its
/// target's tensor; so its kernel calls (BatchGemmStats::packed_gemms) are
/// fewer still: one per prefix node of modes 0..d-2 plus one per fan-out
/// group, not one per term. Both, and the flops they execute
/// (BatchGemmStats::flops), are counted in the workspace of each thread
/// that ran tasks.
struct ApplyStats {
  std::size_t tasks = 0;       ///< (leaf, displacement) pairs executed
  std::size_t gemms = 0;       ///< logical small GEMMs (tasks * M * d)
  double flops = 0.0;          ///< flops of those logical GEMMs
  std::size_t rank_reduced_gemms = 0;  ///< GEMMs shortened by rank reduction
};

struct ApplyOptions {
  bool rank_reduce = false;  ///< paper §II-D CPU optimization
  double rank_tol = 0.0;     ///< tolerance for rank screening (0: op thresh)
};

/// Call fn(target, disp) for every task of one source box: each screened
/// displacement whose target stays on (free) or wraps onto (periodic) the
/// grid, in displacements(n) order (lexicographic, component 0 slowest),
/// so tasks that share a mode prefix (m_0, ..., m_j) are consecutive.
void for_each_task(
    const SeparatedConvolution& op, const mra::Key& source,
    const std::function<void(const mra::Key&, const Displacement&)>& fn);

/// Enumerate all tasks of Apply(op, f): every (leaf, screened displacement)
/// whose target stays on the grid. Requires f reconstructed.
std::vector<ApplyTask> make_apply_tasks(const SeparatedConvolution& op,
                                        const mra::Function& f);

/// The owner-computes cut of one Apply of `op` over `leaves` into `sides`
/// (the World Apply's ranks): a target's side is a function of its box
/// centre along mode 0 alone, so keys of every level and every mode-0
/// translation map to one side each, cut into `sides` contiguous slabs.
/// Every task sharing a mode-0 prefix (source, m_0) has one target mode-0
/// translation, so a slab never splits a leaf's shared prefix GEMMs. The
/// cuts sit at quantiles of the Apply's task count: each of `leaves`'
/// tasks (for_each_task, enumerated once) counts toward its target's
/// column, the targets sharing one centre, and each cut falls on the
/// column boundary nearest its quantile. So every side's task count is
/// within one column of the total over `sides`.
class SlabCut {
 public:
  SlabCut(const SeparatedConvolution& op, std::span<const mra::Key> leaves,
          std::size_t sides);
  /// The side that computes `target`.
  std::size_t side(const mra::Key& target) const;
  /// The tasks each side computes.
  const std::vector<std::size_t>& loads() const noexcept { return loads_; }
  /// The sides that compute one of `leaf`'s targets, ascending. `leaf`
  /// must be one the cut was built over (mh::Error otherwise).
  std::vector<std::size_t> computing_sides(const mra::Key& leaf) const;

 private:
  std::vector<double> cuts_;  ///< first mode-0 centre of sides 1, 2, ...
  std::vector<std::size_t> loads_;
  /// Each leaf's target centres, one per run of equal centres.
  std::unordered_map<mra::Key, std::vector<double>, mra::KeyHash>
      leaf_centres_;
};

/// The k^d tensor a contribution to `target` is added into in place, or
/// nullptr when the caller does not compute that target (the World Apply
/// declines targets another rank owns). A tensor the call creates is
/// zero-filled; the same key gives the same tensor within one leaf, and
/// distinct keys distinct tensors.
using ContributionTarget = std::function<Tensor*(const mra::Key&)>;

/// The Apply task loop for one source leaf: every task of `leaf` as one
/// (source, displacement, result) item of one linalg::batch_fused_apply
/// call over the level's block table (SeparatedConvolution::h_table), which
/// shares the tasks' mode-prefix GEMMs. `target` is called once per task, in
/// for_each_task order, and the engine adds each task's product straight
/// into the tensor it returns: no per-task result is allocated. A task
/// whose target is declined is skipped: it is neither computed nor counted
/// in `stats`. On a periodic operator several tasks of a leaf can wrap
/// onto one target; the first writes through and each later one into a
/// zeroed scratch tensor that is added into the target after the batch,
/// in for_each_task order.
/// So every target receives, bitwise, what task-by-task compute followed
/// by Function::accumulate in that order gives it. `coeffs` must be a k^d
/// cube (mh::Error otherwise).
void apply_leaf_tasks(const SeparatedConvolution& op, const mra::Key& leaf,
                      const Tensor& coeffs, const ApplyOptions& opts,
                      ApplyStats* stats, const ContributionTarget& target);

namespace detail {
/// apply_leaf_tasks' loop, shared with the nonstandard-form Apply: hands
/// `run` one write-through item per task of `leaf` over `source`.
using LeafBatchRun =
    std::function<void(std::span<const linalg::DisplacementItem>)>;
void run_leaf_batch(const SeparatedConvolution& op, const mra::Key& leaf,
                    const Tensor& source, const ContributionTarget& target,
                    const LeafBatchRun& run);
}  // namespace detail

/// Compute one task's contribution tensor (Algorithm 5): the Formula 1 sum
/// over the kernel's separated terms applied to the source coefficients,
/// run as a one-item linalg::batch_fused_apply over the level's block
/// table. The calling thread's workspace keeps the prefix intermediates
/// the previous call left: a call of the same operator level and source
/// (pointer and values) recomputes each term's stack only from the first
/// mode whose block or contraction length differ. So a leaf's tasks run
/// one call at a time in for_each_task order share their mode prefixes,
/// and the result is bitwise what a fresh thread computes. `source` must
/// be a k^d cube (mh::Error otherwise).
Tensor apply_task_compute(const SeparatedConvolution& op, const Tensor& source,
                          int level, const Displacement& disp,
                          const ApplyOptions& opts = {},
                          ApplyStats* stats = nullptr);

/// Full reference Apply on the CPU (Algorithms 1-2): the leaves' tasks
/// executed in leaf order, each leaf's batch adding its contributions
/// straight into the output nodes (Function::accumulate_target), and the
/// result normalized to a leaf-only tree via sum_down. Requires f
/// reconstructed.
mra::Function apply(const SeparatedConvolution& op, const mra::Function& f,
                    const ApplyOptions& opts = {}, ApplyStats* stats = nullptr);

}  // namespace mh::ops
