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
  for_each_task(op, leaf, [&](const mra::Key& to, const Displacement& m) {
    sink(to, apply_task_compute(op, coeffs, leaf.level(), m, opts, stats));
  });
}

Tensor apply_task_compute(const SeparatedConvolution& op, const Tensor& source,
                          int level, const Displacement& disp,
                          const ApplyOptions& opts, ApplyStats* stats) {
  const std::size_t d = op.params().ndim;
  const std::size_t k = op.params().k;
  MH_CHECK(source.ndim() == d && source.dim(0) == k, "source shape mismatch");
  double rank_tol = 0.0;  // 0: full rank
  if (opts.rank_reduce)
    rank_tol = opts.rank_tol > 0.0 ? opts.rank_tol : op.params().thresh;

  // Gather the whole task's operand set — all rank*d operator blocks as raw
  // table views, the term weights, and the per-term reduced ranks — so the
  // M*d transform chain runs as ONE fused packed pass through the batch-GEMM
  // engine instead of rank separate general_transform calls with fresh
  // temporaries (the paper's custom-kernel organization, on the CPU).
  // Reused per thread: these only grow, so steady state allocates nothing.
  thread_local std::vector<linalg::GemmMat> mats;
  thread_local std::vector<std::size_t> kreds;  // empty: full rank
  thread_local std::vector<double> coeffs;
  mats.clear();
  kreds.clear();
  coeffs.clear();
  op.gather_task(level, disp, rank_tol, mats, kreds);
  for (std::size_t mu = 0; mu < op.rank(); ++mu)
    coeffs.push_back(op.term_coeff(mu));

  Tensor result = Tensor::cube(d, k);
  linalg::fused_apply_chain(d, k, source.data(), mats, coeffs, kreds,
                            result.data(), linalg::thread_workspace());
  for (std::size_t mu = 0; stats != nullptr && mu < op.rank(); ++mu) {
    stats->gemms += d;
    stats->flops += transform_flops(d, k);
    if (!kreds.empty() && kreds[mu] < k) stats->rank_reduced_gemms += d;
  }
  if (stats != nullptr) ++stats->tasks;
  return result;
}

mra::Function apply(const SeparatedConvolution& op, const mra::Function& f,
                    const ApplyOptions& opts, ApplyStats* stats) {
  check_input(op, f);
  mra::Function out(f.params());
  // Seed the output tree with an (empty) root so sum_down has an anchor even
  // if no task contributes (e.g. the zero function).
  out.accumulate(mra::Key::root(f.ndim()),
                 Tensor::cube(f.ndim(), f.k()));
  const ContributionSink add = [&out](const mra::Key& target, Tensor&& r) {
    out.accumulate(target, r);
  };
  for (const mra::Key& key : f.leaf_keys())
    apply_leaf_tasks(op, key, f.leaf_coeffs(key), opts, stats, add);
  out.sum_down();
  return out;
}

}  // namespace mh::ops
