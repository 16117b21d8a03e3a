// The Apply operator (paper Algorithms 1-6): convolve an MRA function with a
// separated kernel, one task per (source leaf, displacement).
//
// This header exposes both the one-call reference CPU implementation and the
// task decomposition (enumerate -> compute -> accumulate) that the batching
// runtime, the GPU simulator, and the cluster simulator schedule.
#pragma once

#include <cstddef>
#include <functional>
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
/// last-mode children of one prefix node in one fan-out kernel call, which
/// adds each child's scaled product straight into its task's result, so its
/// kernel calls (BatchGemmStats::packed_gemms) are fewer still. Both are
/// counted in the workspace of each thread that ran tasks.
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
/// grid.
void for_each_task(
    const SeparatedConvolution& op, const mra::Key& source,
    const std::function<void(const mra::Key&, const Displacement&)>& fn);

/// Enumerate all tasks of Apply(op, f): every (leaf, screened displacement)
/// whose target stays on the grid. Requires f reconstructed.
std::vector<ApplyTask> make_apply_tasks(const SeparatedConvolution& op,
                                        const mra::Function& f);

/// Receives one task's (target, contribution).
using ContributionSink = std::function<void(const mra::Key&, Tensor&&)>;

/// The Apply task loop for one source leaf: every task of `leaf` gathered
/// and computed by one linalg::batch_fused_apply call (which shares the
/// tasks' mode-prefix GEMMs), then handed to `sink` on the calling thread in
/// for_each_task order. Each contribution is bitwise equal to
/// apply_task_compute's. `coeffs` must be a k^d cube (mh::Error otherwise).
void apply_leaf_tasks(const SeparatedConvolution& op, const mra::Key& leaf,
                      const Tensor& coeffs, const ApplyOptions& opts,
                      ApplyStats* stats, const ContributionSink& sink);

/// Compute one task's contribution tensor (Algorithm 5): the Formula 1 sum
/// over the kernel's separated terms applied to the source coefficients.
/// Operands are gathered as raw operator-table views (gather_task) and run
/// as a one-item linalg::batch_fused_apply. `source` must be a k^d cube
/// (mh::Error otherwise).
Tensor apply_task_compute(const SeparatedConvolution& op, const Tensor& source,
                          int level, const Displacement& disp,
                          const ApplyOptions& opts = {},
                          ApplyStats* stats = nullptr);

/// Full reference Apply on the CPU (Algorithms 1-2): all tasks executed in
/// sequence, contributions accumulated, and the result normalized to a
/// leaf-only tree via sum_down. Requires f reconstructed.
mra::Function apply(const SeparatedConvolution& op, const mra::Function& f,
                    const ApplyOptions& opts = {}, ApplyStats* stats = nullptr);

}  // namespace mh::ops
