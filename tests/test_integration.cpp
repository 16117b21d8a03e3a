// Cross-module integration and property tests: end-to-end Apply accuracy
// sweeps, multi-term kernels, 4-D separability, simulator monotonicity
// properties, and batching-engine failure injection under load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "apps/coulomb.hpp"
#include "apps/paper_workloads.hpp"
#include "clustersim/cluster.hpp"
#include "clustersim/process_map.hpp"
#include "common/rng.hpp"
#include "gpusim/kernels.hpp"
#include "ops/apply.hpp"
#include "ops/separated.hpp"
#include "runtime/batching.hpp"

namespace mh {
namespace {

double gauss(double x, double c, double w) {
  const double u = (x - c) / w;
  return std::exp(-u * u);
}

// ---------------------------------------------------------------------------
// Apply accuracy sweep: error decreases with the basis size k.
// ---------------------------------------------------------------------------
class ApplyAccuracySweep : public ::testing::TestWithParam<std::size_t> {};

double apply_error_at_k(std::size_t k) {
  const double wf = 0.07, wk = 0.07, c = 0.5;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = k;
  fp.thresh = 1e-10;
  fp.initial_level = 4;
  fp.max_level = 4;  // fixed grid: k alone controls the accuracy
  auto f_fn = [&](std::span<const double> x) { return gauss(x[0], c, wf); };
  mra::Function f = mra::Function::project(f_fn, fp);
  ops::SeparatedConvolution::Params op_p;
  op_p.ndim = 1;
  op_p.k = k;
  op_p.thresh = 1e-10;
  op_p.max_disp = 16;
  ops::SeparatedConvolution op(op_p, ops::single_gaussian(wk));
  mra::Function g = ops::apply(op, f);

  const double weff2 = wk * wk + wf * wf;
  const double amp =
      std::sqrt(std::numbers::pi) * wk * wf / std::sqrt(weff2);
  double err = 0.0;
  Rng rng(1234);
  for (int i = 0; i < 30; ++i) {
    const double x[1] = {rng.uniform(0.15, 0.85)};
    const double expect = amp * std::exp(-(x[0] - c) * (x[0] - c) / weff2);
    err = std::max(err, std::abs(g.eval(x) - expect));
  }
  return err;
}

TEST_P(ApplyAccuracySweep, ErrorWithinBandForK) {
  // Bands tightened from observed convergence; they catch regressions of
  // an order of magnitude.
  const std::size_t k = GetParam();
  const double err = apply_error_at_k(k);
  const double bound = k <= 4 ? 1e-2 : k <= 6 ? 1e-3 : k <= 8 ? 3e-5 : 3e-6;
  EXPECT_LT(err, bound) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, ApplyAccuracySweep,
                         ::testing::Values(4, 6, 8, 10));

TEST(ApplyAccuracy, ErrorDecreasesMonotonicallyWithK) {
  double prev = 1e300;
  for (std::size_t k : {4u, 6u, 8u, 10u}) {
    const double err = apply_error_at_k(k);
    EXPECT_LT(err, prev) << "k=" << k;
    prev = err;
  }
}

// ---------------------------------------------------------------------------
// Coulomb accuracy oracle: the separated Gaussian-sum fit of 1/r applied to
// a normalized 3-D Gaussian against its analytic potential, and the
// rank-reduced Apply of the coulomb_smoothing input against the full-rank
// one. Both bounds are 2x the value measured before the last mode's terms
// were stacked into one product, so a kernel change that alters rounding
// order (or drops products) cannot trade accuracy away unseen.
// ---------------------------------------------------------------------------
TEST(CoulombAccuracy, GaussianPotentialMatchesErfOverR) {
  // rho = (a/pi)^{3/2} exp(-a |x - c|^2) has unit charge, so its potential
  // is erf(sqrt(a) r) / r. On the uniform level-2 grid (4^3 boxes) the
  // band max_disp = 3 reaches every box from every box, so the density's
  // whole support (rho < 4e-6 of its peak at the domain faces) is in view
  // of every probe point. Scaled-down settings of the paper's (k, eps).
  const double a = 50.0;
  const double c[3] = {0.5, 0.5, 0.5};
  const double norm = std::pow(a / std::numbers::pi, 1.5);
  const auto rho = [&](std::span<const double> x) {
    double r2 = 0.0;
    for (std::size_t m = 0; m < 3; ++m) r2 += (x[m] - c[m]) * (x[m] - c[m]);
    return norm * std::exp(-a * r2);
  };
  mra::FunctionParams fp;
  fp.ndim = 3;
  fp.k = 8;
  fp.thresh = 1e-10;
  fp.initial_level = 2;
  fp.max_level = 2;
  const mra::Function f = mra::Function::project(rho, fp);
  const auto op = apps::make_coulomb_operator(3, fp.k, /*eps=*/1e-4,
                                              /*max_disp=*/3,
                                              /*screen_thresh=*/1e-10);
  const mra::Function v = ops::apply(op, f);

  double err = 0.0;
  Rng rng(2024);
  for (int i = 0; i < 24; ++i) {
    const double x[3] = {rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                         rng.uniform(0.3, 0.7)};
    double r2 = 0.0;
    for (std::size_t m = 0; m < 3; ++m) r2 += (x[m] - c[m]) * (x[m] - c[m]);
    const double r = std::sqrt(r2);
    const double exact = std::erf(std::sqrt(a) * r) / r;
    err = std::max(err, std::abs(v.eval(x) - exact) / exact);
  }
  // Measured 1.074e-5 (M = 50 terms); pinned at 2x.
  EXPECT_LT(err, 2.15e-5);
}

TEST(CoulombAccuracy, RankReductionDeviationOnSmoothingInput) {
  // The coulomb_smoothing example's input and operator: two Gaussian
  // sites, k = 5, adaptive to level 5; Coulomb fit eps = 1e-3, M = 35.
  // Deviation of the rank-reduced (tol 1e-5) Apply from the full-rank one:
  // the norm of their nodewise difference over the shared leaf keys,
  // relative to the full-rank norm.
  std::vector<apps::GaussianSite> sites;
  sites.push_back({{0.42, 0.5, 0.5}, 0.12, 1.0});
  sites.push_back({{0.62, 0.5, 0.5}, 0.08, 0.7});
  mra::FunctionParams fp;
  fp.ndim = 3;
  fp.k = 5;
  fp.thresh = 5e-4;
  fp.initial_level = 1;
  fp.max_level = 5;
  const mra::Function rho =
      mra::Function::project(apps::gaussian_mixture(sites), fp);
  const auto op = apps::make_coulomb_operator(3, fp.k, 1e-3, 2, 1e-3);
  const mra::Function v = ops::apply(op, rho);
  ops::ApplyOptions rr;
  rr.rank_reduce = true;
  rr.rank_tol = 1e-5;
  const mra::Function v2 = ops::apply(op, rho, rr);

  double diff2 = 0.0;
  std::size_t shared = 0;
  for (const mra::Key& key : v.leaf_keys()) {
    const auto it = v2.nodes().find(key);
    if (it == v2.nodes().end() || it->second.has_children) continue;
    const Tensor& x = v.leaf_coeffs(key);
    const Tensor& y = it->second.coeffs;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double e = x.data()[i] - y.data()[i];
      diff2 += e * e;
    }
    ++shared;
  }
  EXPECT_EQ(shared, v.leaf_keys().size());
  const double dev = std::sqrt(diff2) / v.norm2();
  // Measured 7.414e-7; pinned at 2x.
  EXPECT_LT(dev, 1.48e-6);
}

// ---------------------------------------------------------------------------
// Multi-term kernels: a BSH-fit (tens of separated terms) conserves the
// kernel mass through Apply.
// ---------------------------------------------------------------------------
TEST(MultiTermApply, BshFitConservesMass) {
  const double gamma = 4.0;
  const ops::SeparatedKernel bsh = ops::fit_bsh(gamma, 1e-4, 5e-3, 1.0);
  EXPECT_GE(bsh.rank(), 15u);

  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-8;
  fp.initial_level = 4;
  fp.max_level = 4;  // uniform: the +-16 band then spans the whole torus
  auto f_fn = [](std::span<const double> x) { return gauss(x[0], 0.5, 0.05); };
  mra::Function f = mra::Function::project(f_fn, fp);

  // Periodic operator: the BSH tail wraps instead of leaking out of the
  // free boundary, so kernel mass is conserved exactly (up to screening).
  ops::SeparatedConvolution::Params op_p;
  op_p.ndim = 1;
  op_p.k = 8;
  op_p.thresh = 1e-7;
  op_p.max_disp = 16;
  op_p.periodic = true;
  ops::SeparatedConvolution op(op_p, bsh);
  mra::Function g = ops::apply(op, f);

  // integral of each Gaussian term over R is c sqrt(pi / b).
  double int_k = 0.0;
  for (const auto& term : bsh.terms) {
    int_k += term.coeff * std::sqrt(std::numbers::pi / term.exponent);
  }
  EXPECT_NEAR(g.integral(), int_k * f.integral(), 2e-3 * int_k);

  // The free-boundary version must show the tail leakage this guards.
  op_p.periodic = false;
  ops::SeparatedConvolution free_op(op_p, bsh);
  const double free_mass = ops::apply(free_op, f).integral();
  EXPECT_LT(free_mass, int_k * f.integral() - 5e-3);
}

// ---------------------------------------------------------------------------
// 4-D apply at toy scale: the separable Gaussian closed form holds.
// ---------------------------------------------------------------------------
TEST(FourDimensionalApply, SeparableClosedFormHolds) {
  const double wf = 0.2, wk = 0.25, c = 0.5;
  mra::FunctionParams fp;
  fp.ndim = 4;
  fp.k = 5;
  fp.thresh = 1e-4;
  fp.initial_level = 1;
  fp.max_level = 1;  // uniform 2^4 boxes: toy but genuinely 4-D
  auto f_fn = [&](std::span<const double> x) {
    double v = 1.0;
    for (double xi : x) v *= gauss(xi, c, wf);
    return v;
  };
  mra::Function f = mra::Function::project(f_fn, fp);

  ops::SeparatedConvolution::Params op_p;
  op_p.ndim = 4;
  op_p.k = 5;
  op_p.thresh = 1e-6;
  op_p.max_disp = 1;
  ops::SeparatedConvolution op(op_p, ops::single_gaussian(wk));
  mra::Function g = ops::apply(op, f);

  const double weff2 = wk * wk + wf * wf;
  const double amp1 =
      std::sqrt(std::numbers::pi) * wk * wf / std::sqrt(weff2);
  const double x[4] = {0.5, 0.45, 0.55, 0.5};
  double expect = 1.0;
  for (double xi : x) {
    expect *= amp1 * std::exp(-(xi - c) * (xi - c) / weff2);
  }
  // Loose tolerance: level-1 grid and k=5 are coarse; this is a smoke-level
  // accuracy check that the 4-D code path is wired correctly end to end.
  EXPECT_NEAR(g.eval(x) / expect, 1.0, 0.15);
}

// ---------------------------------------------------------------------------
// Simulator monotonicity properties.
// ---------------------------------------------------------------------------
TEST(SimulatorProperties, CustomKernelDurationMonotoneInShape) {
  const gpu::DeviceSpec spec = gpu::DeviceSpec::tesla_m2090();
  const gpu::KernelTuning tuning;
  double prev = 0.0;
  for (std::size_t k : {8u, 10u, 14u, 20u, 24u, 28u}) {
    const double d =
        gpu::custom_task_duration(spec, {3, k, 100}, tuning).sec();
    EXPECT_GT(d, prev) << "k=" << k;
    prev = d;
  }
  // And in the term count at fixed k.
  EXPECT_LT(gpu::custom_task_duration(spec, {3, 10, 50}, tuning).sec(),
            gpu::custom_task_duration(spec, {3, 10, 200}, tuning).sec());
}

TEST(SimulatorProperties, CublasStepMonotoneInRows) {
  const gpu::DeviceSpec spec = gpu::DeviceSpec::tesla_m2090();
  const gpu::KernelTuning tuning;
  double prev = 0.0;
  for (std::size_t rows : {100u, 400u, 2744u, 21952u}) {
    const double d = gpu::cublas_step_duration(spec, rows, 14, tuning).sec();
    EXPECT_GE(d, prev) << "rows=" << rows;
    prev = d;
  }
}

TEST(SimulatorProperties, MakespanMonotoneInNodesUnderEvenMap) {
  const auto w = apps::table1_workload();
  auto cfg = apps::titan_config();
  cfg.mode = cluster::ComputeMode::kCpuOnly;
  double prev = 1e300;
  for (std::size_t nodes : {1u, 2u, 4u, 8u, 16u, 32u}) {
    cfg.nodes = nodes;
    const auto r =
        cluster::run_cluster_apply(w, cluster::even_map(w.tasks, nodes), cfg);
    ASSERT_TRUE(r.feasible);
    EXPECT_LT(r.makespan.sec(), prev) << nodes << " nodes";
    prev = r.makespan.sec();
  }
}

TEST(SimulatorProperties, GpuModeMonotoneInStreams) {
  const auto w = apps::table1_workload();
  auto cfg = apps::titan_config();
  cfg.mode = cluster::ComputeMode::kGpuOnly;
  cfg.nodes = 1;
  const cluster::NodeLoads loads{w.tasks};
  double prev = 1e300;
  for (std::size_t streams : {1u, 2u, 4u, 6u}) {
    cfg.node.gpu_streams = streams;
    const auto r = cluster::run_cluster_apply(w, loads, cfg);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.makespan.sec(), prev + 1e-9) << streams << " streams";
    prev = r.makespan.sec();
  }
}

TEST(SimulatorProperties, BreakdownSumsConsistently) {
  const auto w = apps::table1_workload();
  auto cfg = apps::titan_config();
  cfg.mode = cluster::ComputeMode::kGpuOnly;
  cfg.nodes = 1;
  const auto r =
      cluster::run_cluster_apply(w, cluster::NodeLoads{w.tasks}, cfg);
  ASSERT_TRUE(r.feasible);
  const auto& b = r.slowest_breakdown;
  // Serial phases can't exceed the makespan; the total is within a small
  // factor (phases overlap only via stream concurrency inside kernels).
  EXPECT_LE(b.dispatch.sec(), r.makespan.sec());
  EXPECT_LE(b.host_data.sec(), r.makespan.sec());
  EXPECT_GT(b.gpu_kernels.sec(), 0.0);
  EXPECT_GT(b.total().sec(), 0.5 * r.makespan.sec());
}

// ---------------------------------------------------------------------------
// Batching engine under randomized failure injection.
// ---------------------------------------------------------------------------
TEST(EngineFailureInjection, AllItemsAccountedForDespiteRandomThrows) {
  using Engine = rt::BatchingEngine<int, int>;
  Engine::Config cfg;
  cfg.cpu_threads = 3;
  cfg.cpu_fraction = 0.5;
  cfg.flush_interval = std::chrono::milliseconds(1);
  cfg.max_batch = 32;
  Engine engine(cfg);

  std::atomic<int> post{0};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) -> int {
         if (x % 97 == 13) throw std::runtime_error("cpu fault");
         return x;
       },
       [](std::span<const int> xs) {
         std::vector<int> out;
         for (int x : xs) {
           if (x % 193 == 17) throw std::runtime_error("gpu fault");
           out.push_back(x);
         }
         return out;
       },
       [&](int&&) { ++post; },
       1});
  for (int i = 0; i < 2000; ++i) engine.submit(kind, i);
  EXPECT_THROW(engine.wait(), std::runtime_error);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2000u);
  EXPECT_EQ(stats.completed, 2000u);  // no lost items, no deadlock
  EXPECT_LE(static_cast<std::size_t>(post.load()), 2000u);
}

TEST(EngineFailureInjection, EngineStaysUsableAfterError) {
  using Engine = rt::BatchingEngine<int, int>;
  Engine::Config cfg;
  cfg.cpu_threads = 2;
  cfg.cpu_fraction = 1.0;
  cfg.flush_interval = std::chrono::milliseconds(1);
  Engine engine(cfg);
  std::atomic<int> post{0};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) -> int {
         if (x < 0) throw std::runtime_error("negative");
         return x;
       },
       nullptr,
       [&](int&&) { ++post; },
       2});
  engine.submit(kind, -1);
  EXPECT_THROW(engine.wait(), std::runtime_error);
  for (int i = 0; i < 50; ++i) engine.submit(kind, i);
  EXPECT_NO_THROW(engine.wait());
  EXPECT_EQ(post.load(), 50);
}

// ---------------------------------------------------------------------------
// Whole-pipeline smoke: project -> compress -> truncate -> reconstruct ->
// apply -> inner products, in one flow.
// ---------------------------------------------------------------------------
TEST(Pipeline, EndToEndFlowKeepsInvariants) {
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 6;
  fp.thresh = 1e-7;
  auto f_fn = [](std::span<const double> x) {
    return gauss(x[0], 0.45, 0.15) * gauss(x[1], 0.55, 0.15);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  const double norm0 = f.norm2();

  f.compress();
  f.truncate(1e-6);
  const double self = mra::inner(f, f);
  EXPECT_NEAR(std::sqrt(self), norm0, 1e-4);
  f.reconstruct();

  const auto op = apps::make_smoothing_operator(2, 6, 0.1, 4, 1e-6);
  mra::Function g = ops::apply(op, f);
  EXPECT_GT(g.norm2(), 0.0);
  EXPECT_LT(g.norm2(), norm0);  // smoothing with sub-unit kernel mass

  g.compress();
  f.compress();
  // <K*f, f> > 0 for a positive kernel and (essentially) positive f.
  EXPECT_GT(mra::inner(g, f), 0.0);
}

}  // namespace
}  // namespace mh
