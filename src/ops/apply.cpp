#include "ops/apply.hpp"

#include <span>
#include <vector>

#include "common/diagnostics.hpp"
#include "linalg/batch_gemm.hpp"
#include "tensor/transform.hpp"

namespace mh::ops {
namespace {

void check_input(const SeparatedConvolution& op, const mra::Function& f) {
  MH_CHECK(!f.compressed(), "apply requires reconstructed input");
  MH_CHECK(op.params().ndim == f.ndim() && op.params().k == f.k(),
           "operator/function parameter mismatch");
}

/// Every Apply entry point reads k^d doubles from the source.
void check_source(const SeparatedConvolution& op, const Tensor& source) {
  const std::size_t d = op.params().ndim;
  bool cube = source.ndim() == d;
  for (std::size_t m = 0; cube && m < d; ++m)
    cube = source.dim(m) == op.params().k;
  MH_CHECK(cube, "apply source must be a k^d cube");
}

/// The operand sets of one or more tasks, appended by gather_operands: per
/// task all rank*d operator blocks as raw table views (term-major) and, with
/// rank reduction, the per-term reduced ranks; the term weights; and
/// apply_leaf_tasks' batch items. Reused per thread: these only grow, so
/// steady state allocates nothing.
struct Operands {
  std::vector<linalg::GemmMat> mats;
  std::vector<std::size_t> kreds;  // empty: full rank
  std::vector<double> coeffs;
  std::vector<linalg::FusedApplyItem> items;
};

Operands& thread_operands(const SeparatedConvolution& op) {
  thread_local Operands ops;
  ops.mats.clear();
  ops.kreds.clear();
  ops.coeffs.clear();
  ops.items.clear();
  for (std::size_t mu = 0; mu < op.rank(); ++mu)
    ops.coeffs.push_back(op.term_coeff(mu));
  return ops;
}

/// Append one task's operands (its kreds end at the back of ops.kreds) and
/// count its logical work into `stats`.
void gather_operands(const SeparatedConvolution& op, int level,
                     const Displacement& disp, const ApplyOptions& opts,
                     Operands& ops, ApplyStats* stats) {
  double rank_tol = 0.0;  // 0: full rank
  if (opts.rank_reduce)
    rank_tol = opts.rank_tol > 0.0 ? opts.rank_tol : op.params().thresh;
  op.gather_task(level, disp, rank_tol, ops.mats, ops.kreds);
  if (stats == nullptr) return;
  const std::size_t d = op.params().ndim;
  const std::size_t k = op.params().k;
  const std::span<const std::size_t> kreds =
      ops.kreds.empty() ? std::span<const std::size_t>{}
                        : std::span{ops.kreds}.last(op.rank());
  for (std::size_t mu = 0; mu < op.rank(); ++mu) {
    stats->gemms += d;
    stats->flops += transform_flops(d, k);
    if (!kreds.empty() && kreds[mu] < k) stats->rank_reduced_gemms += d;
  }
  ++stats->tasks;
}

}  // namespace

void for_each_task(
    const SeparatedConvolution& op, const mra::Key& source,
    const std::function<void(const mra::Key&, const Displacement&)>& fn) {
  for (const Displacement& disp : op.displacements(source.level())) {
    const std::span<const std::int64_t> d{disp.data(), source.ndim()};
    mra::Key target;
    if (op.params().periodic) {
      // Torus: every screened displacement is one periodic image; several
      // displacements may accumulate into the same (wrapped) target.
      target = source.neighbor_periodic(d);
    } else if (!source.neighbor(d, target)) {
      continue;  // displaced box falls off the grid (free boundary)
    }
    fn(target, disp);
  }
}

std::vector<ApplyTask> make_apply_tasks(const SeparatedConvolution& op,
                                        const mra::Function& f) {
  check_input(op, f);
  std::vector<ApplyTask> tasks;
  for (const mra::Key& key : f.leaf_keys()) {
    for_each_task(op, key, [&](const mra::Key& to, const Displacement& m) {
      tasks.push_back(ApplyTask{key, to, m});
    });
  }
  return tasks;
}

void apply_leaf_tasks(const SeparatedConvolution& op, const mra::Key& leaf,
                      const Tensor& coeffs, const ApplyOptions& opts,
                      ApplyStats* stats, const ContributionSink& sink) {
  check_source(op, coeffs);
  const std::size_t d = op.params().ndim;
  const std::size_t k = op.params().k;
  // Gather every task of the leaf and run them as ONE batch: they share the
  // source, so the engine shares their mode-prefix GEMMs. The operands are
  // consumed before the sink runs; the results go to it in for_each_task
  // order, so accumulation order is that of task-by-task compute.
  Operands& ops = thread_operands(op);
  std::vector<std::pair<mra::Key, Tensor>> results;
  results.reserve(op.displacements(leaf.level()).size());
  for_each_task(op, leaf, [&](const mra::Key& to, const Displacement& m) {
    gather_operands(op, leaf.level(), m, opts, ops, stats);
    results.emplace_back(to, Tensor::cube(d, k));
  });
  const std::size_t terms = op.rank();
  for (std::size_t t = 0; t < results.size(); ++t) {
    ops.items.push_back(
        {coeffs.data(),
         std::span{ops.mats}.subspan(t * terms * d, terms * d),
         ops.coeffs,
         ops.kreds.empty() ? std::span<const std::size_t>{}
                           : std::span{ops.kreds}.subspan(t * terms, terms),
         results[t].second.data()});
  }
  linalg::batch_fused_apply(d, k, ops.items, linalg::thread_workspace());
  for (auto& [target, r] : results) sink(target, std::move(r));
}

Tensor apply_task_compute(const SeparatedConvolution& op, const Tensor& source,
                          int level, const Displacement& disp,
                          const ApplyOptions& opts, ApplyStats* stats) {
  check_source(op, source);
  // The whole task's operand set runs as ONE fused packed pass through the
  // batch-GEMM engine instead of rank separate general_transform calls with
  // fresh temporaries (the paper's custom-kernel organization, on the CPU).
  Operands& ops = thread_operands(op);
  gather_operands(op, level, disp, opts, ops, stats);
  const std::size_t d = op.params().ndim;
  const std::size_t k = op.params().k;
  Tensor result = Tensor::cube(d, k);
  linalg::fused_apply_chain(d, k, source.data(), ops.mats, ops.coeffs,
                            ops.kreds, result.data(),
                            linalg::thread_workspace());
  return result;
}

mra::Function apply(const SeparatedConvolution& op, const mra::Function& f,
                    const ApplyOptions& opts, ApplyStats* stats) {
  check_input(op, f);
  mra::Function out(f.params());
  const ContributionSink add = [&out](const mra::Key& target, Tensor&& r) {
    out.accumulate(target, std::move(r));
  };
  for (const mra::Key& key : f.leaf_keys())
    apply_leaf_tasks(op, key, f.leaf_coeffs(key), opts, stats, add);
  out.sum_down();
  return out;
}

}  // namespace mh::ops
