#include "ops/apply.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <utility>
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

/// The rank tolerance of `opts` (0: full rank).
double rank_tol_of(const SeparatedConvolution& op, const ApplyOptions& opts) {
  if (!opts.rank_reduce) return 0.0;
  return opts.rank_tol > 0.0 ? opts.rank_tol : op.params().thresh;
}

/// Run `items` (tasks at `level` over op's blocks) as one batch and count
/// their logical work into `stats`.
void run_tasks(const SeparatedConvolution& op, int level,
               std::span<const linalg::DisplacementItem> items,
               const ApplyOptions& opts, ApplyStats* stats) {
  const linalg::BlockTable table =
      op.h_table(level, items, rank_tol_of(op, opts));
  const std::size_t d = op.params().ndim;
  const std::size_t k = op.params().k;
  linalg::batch_fused_apply(d, k, table, op.term_coeffs(), {}, items,
                            linalg::thread_workspace());
  if (stats == nullptr) return;
  const std::size_t terms = items.size() * op.rank();
  stats->tasks += items.size();
  stats->gemms += terms * d;
  stats->flops += static_cast<double>(terms) * transform_flops(d, k);
  // A term is rank-reduced when one of its d blocks is.
  for (std::size_t mu = 0; table.ranks != nullptr && mu < op.rank(); ++mu) {
    const std::size_t* ranks = table.ranks + mu * table.width;
    for (const linalg::DisplacementItem& item : items) {
      for (std::size_t m = 0; m < d; ++m) {
        if (ranks[table.origin + item.disp[m]] < k) {
          stats->rank_reduced_gemms += d;
          break;
        }
      }
    }
  }
}

/// Centre of the key's box along mode 0: (l_0 + 1/2) 2^-n, exact in a
/// double and distinct for distinct (level, l_0).
double mode0_centre(const mra::Key& key) {
  return std::ldexp(static_cast<double>(key.translation(0)) + 0.5,
                    -key.level());
}

/// The side whose slab holds `centre`, under cuts `cuts`.
std::size_t side_of(const std::vector<double>& cuts, double centre) {
  return static_cast<std::size_t>(
      std::upper_bound(cuts.begin(), cuts.end(), centre) - cuts.begin());
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

SlabCut::SlabCut(const SeparatedConvolution& op,
                 std::span<const mra::Key> leaves, std::size_t sides) {
  MH_CHECK(sides >= 1, "slab cut needs at least one side");
  std::map<double, std::size_t> columns;  // mode-0 centre -> tasks
  std::size_t total = 0;
  for (const mra::Key& leaf : leaves) {
    std::vector<double>& runs = leaf_centres_[leaf];
    for_each_task(op, leaf, [&](const mra::Key& target, const Displacement&) {
      const double centre = mode0_centre(target);
      ++columns[centre];
      ++total;
      if (runs.empty() || runs.back() != centre) runs.push_back(centre);
    });
  }
  // Side s starts at the column boundary whose prefix sum is nearest
  // s * total / sides; the nearest boundary only moves right as s grows.
  // A side whose boundary is past the last column gets no cut and computes
  // nothing.
  auto col = columns.begin();
  std::size_t before = 0;  // tasks in the columns left of `col`
  for (std::size_t s = 1; s < sides; ++s) {
    const double quantile =
        static_cast<double>(total * s) / static_cast<double>(sides);
    const auto miss = [quantile](std::size_t tasks) {
      return std::abs(static_cast<double>(tasks) - quantile);
    };
    while (col != columns.end() && miss(before + col->second) < miss(before)) {
      before += col->second;
      ++col;
    }
    if (col == columns.end()) break;
    cuts_.push_back(col->first);
  }
  loads_.assign(sides, 0);
  for (const auto& [centre, tasks] : columns)
    loads_[side_of(cuts_, centre)] += tasks;
}

std::size_t SlabCut::side(const mra::Key& target) const {
  return side_of(cuts_, mode0_centre(target));
}

std::vector<std::size_t> SlabCut::computing_sides(
    const mra::Key& leaf) const {
  const auto it = leaf_centres_.find(leaf);
  MH_CHECK(it != leaf_centres_.end(), "slab cut was not built over a leaf");
  std::set<std::size_t> to;  // a periodic leaf's centres can wrap
  for (const double centre : it->second) to.insert(side_of(cuts_, centre));
  return {to.begin(), to.end()};
}

void detail::run_leaf_batch(const SeparatedConvolution& op,
                            const mra::Key& leaf, const Tensor& source,
                            const ContributionTarget& target,
                            const LeafBatchRun& run) {
  // Each task's result is its target's tensor: target + (0.0 + acc) is
  // bitwise what adding a zeroed result that received 0.0 + acc gives.
  // Results must not overlap, so a wrapped repeat of a target (periodic
  // only) gets a scratch result. The items are reused per thread: steady
  // state allocates nothing.
  thread_local std::vector<linalg::DisplacementItem> items;
  items.clear();
  std::vector<std::pair<Tensor*, Tensor>> repeats;
  const bool periodic = op.params().periodic;
  for_each_task(op, leaf, [&](const mra::Key& to, const Displacement& m) {
    Tensor* sum = target(to);
    if (sum == nullptr) return;  // computed by another partition
    MH_CHECK(sum->size() == source.size(), "apply target size mismatch");
    double* r = sum->data();
    if (periodic && std::ranges::any_of(items, [r](const auto& item) {
          return item.result == r;
        }))
      r = repeats.emplace_back(sum, Tensor(source.shape())).second.data();
    items.push_back({source.data(), m.data(), r});
  });
  run(items);
  for (auto& [sum, r] : repeats) *sum += r;
}

void apply_leaf_tasks(const SeparatedConvolution& op, const mra::Key& leaf,
                      const Tensor& coeffs, const ApplyOptions& opts,
                      ApplyStats* stats, const ContributionTarget& target) {
  check_source(op, coeffs);
  detail::run_leaf_batch(op, leaf, coeffs, target, [&](auto items) {
    run_tasks(op, leaf.level(), items, opts, stats);
  });
}

Tensor apply_task_compute(const SeparatedConvolution& op, const Tensor& source,
                          int level, const Displacement& disp,
                          const ApplyOptions& opts, ApplyStats* stats) {
  check_source(op, source);
  // The whole task runs as ONE fused packed pass through the batch-GEMM
  // engine instead of rank separate general_transform calls with fresh
  // temporaries (the paper's custom-kernel organization, on the CPU).
  Tensor result = Tensor::cube(op.params().ndim, op.params().k);
  const linalg::DisplacementItem item{source.data(), disp.data(),
                                      result.data()};
  run_tasks(op, level, {&item, 1}, opts, stats);
  return result;
}

mra::Function apply(const SeparatedConvolution& op, const mra::Function& f,
                    const ApplyOptions& opts, ApplyStats* stats) {
  check_input(op, f);
  mra::Function out(f.params());
  const ContributionTarget into = [&out](const mra::Key& key) {
    return &out.accumulate_target(key);
  };
  for (const mra::Key& key : f.leaf_keys())
    apply_leaf_tasks(op, key, f.leaf_coeffs(key), opts, stats, into);
  out.sum_down();
  return out;
}

}  // namespace mh::ops
