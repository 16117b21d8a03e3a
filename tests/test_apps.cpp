// Tests for src/apps: real-math application builders and the paper workload
// descriptors the table benches rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/coulomb.hpp"
#include "apps/paper_workloads.hpp"
#include "common/diagnostics.hpp"
#include "ops/apply.hpp"

namespace mh::apps {
namespace {

TEST(GaussianMixture, EvaluatesSumOfSites) {
  std::vector<GaussianSite> sites;
  sites.push_back({{0.3, 0.3}, 0.1, 2.0});
  sites.push_back({{0.7, 0.7}, 0.2, 1.0});
  const auto f = gaussian_mixture(sites);
  const double at_first[2] = {0.3, 0.3};
  EXPECT_NEAR(f(at_first), 2.0 + std::exp(-2.0 * 0.16 / 0.04), 1e-12);
  EXPECT_THROW(gaussian_mixture({}), Error);
}

TEST(CoulombOperator, BuildsWithPlausibleRank) {
  const auto op = make_coulomb_operator(3, 6, 1e-4, 2, 1e-4);
  EXPECT_EQ(op.params().ndim, 3u);
  EXPECT_EQ(op.params().k, 6u);
  EXPECT_GE(op.rank(), 10u);
  EXPECT_LE(op.rank(), 200u);
  // The fit reproduces 1/r in the fitted range.
  EXPECT_NEAR(op.kernel().eval(0.5) * 0.5, 1.0, 1e-2);
}

TEST(SmoothingOperator, AppliesEndToEnd) {
  // Tiny end-to-end sanity: smoothing a 1-D bump keeps its mass.
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 6;
  fp.thresh = 1e-6;
  fp.initial_level = 3;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.5) / 0.1;
    return std::exp(-u * u);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  const auto op = make_smoothing_operator(1, 6, 0.05, 8, 1e-8);
  mra::Function g = ops::apply(op, f);
  const double int_k = std::sqrt(std::numbers::pi) * 0.05;
  EXPECT_NEAR(g.integral(), int_k * f.integral(), 1e-5);
}

TEST(PaperWorkloads, StatedTaskCountsMatchThePaper) {
  EXPECT_EQ(table4_workload().tasks, 154'468u);  // paper §III-A
  EXPECT_EQ(table6_workload().tasks, 542'113u);  // paper §III-A
}

TEST(PaperWorkloads, ShapesMatchTheTables) {
  EXPECT_EQ(table1_workload().shape.k, 10u);
  EXPECT_EQ(table1_workload().shape.ndim, 3u);
  EXPECT_EQ(table2_workload().shape.k, 20u);
  EXPECT_EQ(table5_workload().shape.k, 30u);
  EXPECT_EQ(table6_workload().shape.ndim, 4u);
  EXPECT_EQ(table6_workload().shape.k, 14u);
}

TEST(PaperWorkloads, GroupStructureSupportsLocalityMaps) {
  const auto w5 = table5_workload();
  EXPECT_GE(w5.group_sizes.size(), 8u);   // enough groups for 8 nodes...
  EXPECT_LE(w5.group_sizes.size(), 64u);  // ...but few enough to saturate
  std::size_t total = 0;
  for (std::size_t g : w5.group_sizes) total += g;
  EXPECT_EQ(total, w5.tasks);
}

TEST(PaperWorkloads, TitanConfigMatchesPaperSetup) {
  const auto cfg = titan_config();
  EXPECT_EQ(cluster::kBatchSize, 60u);      // §III: batches of 60 tasks
  EXPECT_EQ(cfg.cpu_compute_threads, 16u);  // 16-core Interlagos
  EXPECT_EQ(cfg.gpu.streams, 6u);
  EXPECT_TRUE(cfg.gpu.cublas_aggregate);
}

TEST(PaperWorkloads, RankFractionsAreReductions) {
  EXPECT_GT(table5_rank_fraction(), 0.0);
  EXPECT_LT(table5_rank_fraction(), 1.0);
  EXPECT_GT(table6_rank_fraction(), 0.0);
  EXPECT_LT(table6_rank_fraction(), 1.0);
}

}  // namespace
}  // namespace mh::apps
