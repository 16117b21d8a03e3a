// Tests for src/ops: separated kernel fits, Gaussian operator blocks, the
// operator cache, displacement screening, rank reduction, and Apply.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <latch>
#include <numbers>
#include <thread>

#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "linalg/batch_gemm.hpp"
#include "mra/legendre.hpp"
#include "mra/quadrature.hpp"
#include "ops/apply.hpp"
#include "ops/convolution.hpp"
#include "ops/separated.hpp"
#include "tensor/transform.hpp"

namespace mh::ops {
namespace {

TEST(SeparatedFit, CoulombRelativeAccuracy) {
  const double eps = 1e-6;
  const SeparatedKernel kernel = fit_coulomb(eps, 1e-3, 1.0);
  for (double r : {1e-3, 3e-3, 1e-2, 0.1, 0.33, 0.7, 1.0}) {
    const double got = kernel.eval(r);
    EXPECT_NEAR(got * r, 1.0, 20 * eps) << "r=" << r;
  }
}

TEST(SeparatedFit, CoulombRankGrowsWithAccuracy) {
  const auto loose = fit_coulomb(1e-4, 1e-3, 1.0);
  const auto tight = fit_coulomb(1e-8, 1e-3, 1.0);
  EXPECT_GT(tight.rank(), loose.rank());
  // The paper quotes M ~ 100 for production accuracy; the fit should be in
  // the tens-to-hundreds range, not thousands.
  EXPECT_GE(tight.rank(), 30u);
  EXPECT_LE(tight.rank(), 500u);
}

TEST(SeparatedFit, BshMatchesClosedForm) {
  const double gamma = 3.0;
  const double eps = 1e-6;
  const SeparatedKernel kernel = fit_bsh(gamma, eps, 1e-2, 1.0);
  for (double r : {1e-2, 0.05, 0.2, 0.5, 1.0}) {
    const double expect = std::exp(-gamma * r) / r;
    EXPECT_NEAR(kernel.eval(r) / expect, 1.0, 1e-4) << "r=" << r;
  }
}

TEST(SeparatedFit, SingleGaussianEvaluates) {
  const SeparatedKernel g = single_gaussian(0.5);
  EXPECT_EQ(g.rank(), 1u);
  EXPECT_NEAR(g.eval(0.0), 1.0, 1e-15);
  EXPECT_NEAR(g.eval(0.5), std::exp(-1.0), 1e-15);
}

TEST(SeparatedFit, RejectsBadArguments) {
  EXPECT_THROW(fit_coulomb(0.5, 1e-3, 1.0), Error);
  EXPECT_THROW(fit_coulomb(1e-6, 1.0, 0.5), Error);
  EXPECT_THROW(fit_bsh(-1.0, 1e-6, 1e-3, 1.0), Error);
  EXPECT_THROW(single_gaussian(0.0), Error);
}

// Brute-force reference for the Gaussian block with a dense product rule.
Tensor brute_block(std::size_t k, double beta, std::int64_t m) {
  const auto& rule = mra::gauss_legendre(60);
  Tensor block({k, k});
  std::vector<double> pu(k), pv(k);
  for (std::size_t qu = 0; qu < rule.x.size(); ++qu) {
    mra::legendre_scaling(rule.x[qu], pu);
    for (std::size_t qv = 0; qv < rule.x.size(); ++qv) {
      mra::legendre_scaling(rule.x[qv], pv);
      const double w = rule.x[qu] - rule.x[qv] + static_cast<double>(m);
      const double g = rule.w[qu] * rule.w[qv] * std::exp(-beta * w * w);
      for (std::size_t j = 0; j < k; ++j)
        for (std::size_t i = 0; i < k; ++i)
          block.at({j, i}) += g * pv[j] * pu[i];
    }
  }
  return block;
}

class GaussianBlockParam
    : public ::testing::TestWithParam<std::tuple<double, std::int64_t>> {};

TEST_P(GaussianBlockParam, MatchesBruteForceQuadrature) {
  const auto [beta, m] = GetParam();
  const std::size_t k = 6;
  const Tensor fast = gaussian_block(k, beta, m);
  const Tensor slow = brute_block(k, beta, m);
  EXPECT_LT(max_abs_diff(fast, slow), 1e-9)
      << "beta=" << beta << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    BetaAndDisplacement, GaussianBlockParam,
    ::testing::Values(std::tuple{0.5, 0}, std::tuple{0.5, 1},
                      std::tuple{0.5, -2}, std::tuple{20.0, 0},
                      std::tuple{20.0, 1}, std::tuple{200.0, 0},
                      std::tuple{200.0, -1}, std::tuple{200.0, 3}));

TEST(GaussianBlock, SharpKernelHasCorrectMass) {
  // For beta large, sum_i T[0][i] ... the (0,0) element approaches
  // sqrt(pi/beta) (delta-like kernel against constant basis functions).
  const double beta = 1e6;
  const Tensor b = gaussian_block(8, beta, 0);
  EXPECT_NEAR(b.at({0, 0}), std::sqrt(std::numbers::pi / beta),
              1e-3 * std::sqrt(std::numbers::pi / beta));
}

TEST(GaussianBlock, FarDisplacementIsZero) {
  const Tensor b = gaussian_block(5, 50.0, 4);  // 3 box-widths of gap, sharp
  EXPECT_LT(b.normf(), 1e-14);
}

TEST(GaussianBlock, SymmetryUnderDisplacementFlip) {
  // B_m(j,i) == B_{-m}(i,j) by u <-> v exchange.
  const Tensor bp = gaussian_block(5, 7.0, 1);
  const Tensor bm = gaussian_block(5, 7.0, -1);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(bp.at({j, i}), bm.at({i, j}), 1e-12);
}

SeparatedConvolution::Params op_params(std::size_t d, std::size_t k,
                                       double thresh, std::int64_t cap) {
  SeparatedConvolution::Params p;
  p.ndim = d;
  p.k = k;
  p.thresh = thresh;
  p.max_disp = cap;
  return p;
}

TEST(Convolution, BlockNormDecaysWithDisplacement) {
  SeparatedConvolution op(op_params(1, 6, 1e-8, 8),
                          single_gaussian(0.1));
  double prev = 1e300;
  for (std::int64_t m = 0; m <= 4; ++m) {
    const double norm = op.h_block_norm(0, 2, m);
    EXPECT_LT(norm, prev) << "m=" << m;
    prev = norm;
  }
}

TEST(Convolution, BlockIncludesLevelScale) {
  // The level-n block carries the 2^{-n} Jacobian: compare against the raw
  // block at the level-scaled exponent.
  const double beta = 5.0;
  SeparatedConvolution op(op_params(1, 5, 1e-8, 2), SeparatedKernel{{{1.0, beta}}});
  const int n = 3;
  const Tensor raw = gaussian_block(5, beta * std::pow(4.0, -n), 0);
  const auto blk = op.h_block(0, n, 0);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(blk->at({j, i}), raw.at({j, i}) * std::pow(2.0, -n), 1e-13);
}

TEST(Convolution, CacheIsWriteOnceAndShared) {
  SeparatedConvolution op(op_params(1, 5, 1e-8, 2), single_gaussian(0.2));
  const auto a = op.h_block(0, 1, 0);
  const auto b = op.h_block(0, 1, 0);
  EXPECT_EQ(a.get(), b.get());  // same cached object
  const auto stats = op.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
}

TEST(Convolution, DisplacementsScreenedAndSorted) {
  // Sharp kernel at a fine level: only near displacements survive.
  SeparatedConvolution op(op_params(2, 5, 1e-6, 6), single_gaussian(0.05));
  const auto& disps = op.displacements(0);  // level 0: kernel tiny vs box
  // m = 0 must always be present and first.
  ASSERT_FALSE(disps.empty());
  EXPECT_EQ(disps[0][0], 0);
  EXPECT_EQ(disps[0][1], 0);
  // Sorted by squared distance.
  auto dist2 = [](const Displacement& m) {
    return m[0] * m[0] + m[1] * m[1];
  };
  for (std::size_t i = 1; i < disps.size(); ++i)
    EXPECT_LE(dist2(disps[i - 1]), dist2(disps[i]));
  // A broad kernel at the same level keeps more displacements.
  SeparatedConvolution broad(op_params(2, 5, 1e-6, 6), single_gaussian(5.0));
  EXPECT_GT(broad.displacements(3).size(), disps.size());
}

TEST(Convolution, ReducedRankShrinksWithLooserTolerance) {
  SeparatedConvolution op(op_params(1, 10, 1e-12, 4), single_gaussian(0.3));
  const std::size_t tight = op.reduced_rank(0, 2, 0, 1e-12);
  const std::size_t loose = op.reduced_rank(0, 2, 0, 1e-3);
  EXPECT_LE(loose, tight);
  EXPECT_GE(loose, 1u);
  EXPECT_LE(tight, 10u);
}

TEST(Convolution, ReducedRankIsAccurate) {
  // Dropping to the reported rank must keep the block within tol.
  SeparatedConvolution op(op_params(1, 8, 1e-12, 4), single_gaussian(0.4));
  const double tol = 1e-6;
  const std::size_t r = op.reduced_rank(0, 3, 1, tol);
  const auto blk = op.h_block(0, 3, 1);
  double outside2 = 0.0;
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 8; ++i)
      if (j >= r || i >= r) outside2 += blk->at({j, i}) * blk->at({j, i});
  EXPECT_LT(std::sqrt(outside2), tol);
}

// Frobenius norm of what truncating `blk` to its leading r x r corner drops.
double dropped_mass(const Tensor& blk, std::size_t r) {
  double outside2 = 0.0;
  for (std::size_t j = 0; j < blk.dim(0); ++j)
    for (std::size_t i = 0; i < blk.dim(1); ++i)
      if (j >= r || i >= r) outside2 += blk.at({j, i}) * blk.at({j, i});
  return std::sqrt(outside2);
}

TEST(Convolution, ReducedRankIsExactForNearbyTolerances) {
  // Tolerances within 1/16 decade of each other (1e-6, then 9e-7) must not
  // share a cached rank: each answer is the smallest r whose dropped mass
  // is below its own tol, as on an operator that never saw the other tol.
  const auto params = op_params(1, 5, 1e-6, 4);
  const SeparatedKernel kernel = fit_coulomb(1e-4, 1e-4, std::sqrt(3.0));
  SeparatedConvolution warm(params, kernel);
  SeparatedConvolution cold(params, kernel);
  const double tol = 9e-7;
  // Slack for this test's own summation order.
  const double lo = tol * (1 - 1e-12);
  const double hi = tol * (1 + 1e-12);
  std::size_t blocks = 0;
  std::size_t bad = 0;
  for (std::size_t mu = 0; mu < kernel.rank(); ++mu) {
    for (int n = 0; n <= 5; ++n) {
      for (std::int64_t m = 0; m <= 4; ++m) {
        warm.reduced_rank(mu, n, m, 1e-6);
        const std::size_t r = warm.reduced_rank(mu, n, m, tol);
        const auto blk = warm.h_block(mu, n, m);
        const bool keeps = dropped_mass(*blk, r) < hi;
        const bool minimal = r == 1 || dropped_mass(*blk, r - 1) >= lo;
        if (r != cold.reduced_rank(mu, n, m, tol) || !keeps || !minimal) ++bad;
        ++blocks;
      }
    }
  }
  EXPECT_EQ(bad, 0u) << "of " << blocks << " blocks";
  // tol >= 1 is a valid question (everything may be dropped), not a key
  // the cache can overflow on.
  EXPECT_EQ(warm.reduced_rank(0, 2, 0, 2.0), 1u);
  EXPECT_EQ(warm.reduced_rank(0, 2, 0, 1e-6), cold.reduced_rank(0, 2, 0, 1e-6));
}

TEST(Convolution, OutOfRangeKeysAreTypedErrors) {
  SeparatedConvolution op(op_params(1, 5, 1e-8, 2), single_gaussian(0.2));
  const std::int64_t reach = 2 * 2 + 1;  // ns_block's child displacements
  EXPECT_NO_THROW(op.h_block(0, 1, reach));
  EXPECT_NO_THROW(op.h_block(0, 1, -reach));
  EXPECT_THROW(op.h_block(0, 1, reach + 1), Error);
  EXPECT_THROW(op.h_block_norm(0, 1, -reach - 1), Error);
  EXPECT_THROW(op.h_block(0, -1, 0), Error);
  EXPECT_THROW(op.h_block(0, SeparatedConvolution::kLevels, 0), Error);
  EXPECT_THROW(op.h_block(1, 1, 0), Error);  // one-term kernel
  EXPECT_THROW(op.reduced_rank(0, 70, 0, 1e-6), Error);
  EXPECT_THROW(op.displacements(-2), Error);
  EXPECT_THROW(op.ns_block(0, SeparatedConvolution::kLevels - 1, 0,
                           SeparatedConvolution::NsPart::kFull),
               Error);  // its children sit one level past the table
}

TEST(Convolution, BlockPointersAreNonOwningTableViews) {
  // h_block/ns_block hand out views into the operator table: no reference
  // count and the same address on every call. They are valid only while
  // the operator lives; callers must not keep them past it.
  const SeparatedConvolution op(op_params(1, 5, 1e-8, 2),
                                single_gaussian(0.2));
  using NsPart = SeparatedConvolution::NsPart;
  const auto h = op.h_block(0, 1, 1);
  EXPECT_EQ(h.use_count(), 0);
  EXPECT_EQ(op.h_block(0, 1, 1).get(), h.get());
  EXPECT_EQ(op.h_block_norm(0, 1, 1), h->normf());
  const auto ns = op.ns_block(0, 1, 1, NsPart::kFull);
  EXPECT_EQ(ns.use_count(), 0);
  EXPECT_EQ(op.ns_block(0, 1, 1, NsPart::kFull).get(), ns.get());
}

TEST(Convolution, ConcurrentFirstFillsAgreeWithOneThread) {
  // Threads race the first fill of every block on a cold operator. All must
  // see the same published objects, each block is computed exactly once,
  // and the values equal a single-threaded operator's.
  const auto params = op_params(2, 6, 1e-6, 2);
  const SeparatedKernel kernel = fit_coulomb(1e-3, 1e-3, std::sqrt(2.0));
  const SeparatedConvolution op(params, kernel);
  const SeparatedConvolution ref(params, kernel);
  constexpr int kMaxLevel = 3;
  using NsPart = SeparatedConvolution::NsPart;

  struct Seen {
    std::vector<const Tensor*> blocks, ns;
    std::vector<std::size_t> ranks;
    std::vector<const std::vector<Displacement>*> disps;
  };
  auto visit = [&](const SeparatedConvolution& o, Seen& seen) {
    for (int n = 0; n <= kMaxLevel; ++n) {
      seen.disps.push_back(&o.displacements(n));
      for (std::size_t mu = 0; mu < kernel.rank(); ++mu) {
        for (std::int64_t m = -2; m <= 2; ++m) {
          seen.blocks.push_back(o.h_block(mu, n, m).get());
          seen.ranks.push_back(o.reduced_rank(mu, n, m, 1e-7));
          seen.ns.push_back(o.ns_block(mu, n, m, NsPart::kFull).get());
          seen.ns.push_back(o.ns_block(mu, n, m, NsPart::kSsOnly).get());
        }
      }
    }
  };
  Seen expect;
  visit(ref, expect);

  constexpr std::size_t kThreads = 4;
  std::vector<Seen> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      visit(op, seen[t]);
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].blocks, seen[0].blocks);
    EXPECT_EQ(seen[t].ns, seen[0].ns);
    EXPECT_EQ(seen[t].disps, seen[0].disps);
    EXPECT_EQ(seen[t].ranks, expect.ranks);
  }
  EXPECT_EQ(seen[0].ranks, expect.ranks);
  // Distinct blocks: the single-threaded operator filled each once.
  EXPECT_EQ(op.cache_stats().misses, ref.cache_stats().misses);
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (std::size_t i = 0; i < expect.blocks.size(); ++i) {
    EXPECT_TRUE(same(*seen[0].blocks[i], *expect.blocks[i])) << "block " << i;
  }
  for (std::size_t i = 0; i < expect.ns.size(); ++i) {
    EXPECT_TRUE(same(*seen[0].ns[i], *expect.ns[i])) << "ns block " << i;
  }
  for (std::size_t i = 0; i < expect.disps.size(); ++i) {
    EXPECT_EQ(*seen[0].disps[i], *expect.disps[i]) << "level " << i;
  }
}

double gaussian1d(double x, double c, double w) {
  const double u = (x - c) / w;
  return std::exp(-u * u);
}

TEST(Apply, GaussianConvolutionMatchesClosedForm1D) {
  // (K * f)(x) with K = exp(-(u/wk)^2), f = exp(-((x-c)/wf)^2):
  // closed form sqrt(pi) wk wf / sqrt(wk^2+wf^2) exp(-(x-c)^2/(wk^2+wf^2)).
  const double wf = 0.06, wk = 0.06, c = 0.5;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-8;
  // Leaf-level apply projects the result at the *source* leaf level, so the
  // input must be refined at least to where a degree-(k-1) polynomial
  // resolves the smoothed output to the test tolerance.
  fp.initial_level = 4;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], c, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);

  // The band cap must cover the kernel's ~6-sigma reach at the *deepest*
  // leaf level (leaf-level apply has no coarse-scale shortcut).
  SeparatedConvolution op(op_params(1, 8, 1e-8, 40),
                          single_gaussian(wk));
  ApplyStats stats;
  mra::Function g = apply(op, f, {}, &stats);
  EXPECT_GT(stats.tasks, 0u);
  EXPECT_GT(stats.flops, 0.0);

  const double weff2 = wk * wk + wf * wf;
  const double amp = std::sqrt(std::numbers::pi) * wk * wf /
                     std::sqrt(weff2);
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const double x[1] = {rng.uniform(0.1, 0.9)};
    const double expect = amp * std::exp(-(x[0] - c) * (x[0] - c) / weff2);
    EXPECT_NEAR(g.eval(x), expect, 5e-4 * amp) << "x=" << x[0];
  }
}

TEST(Apply, ConservesTotalMass) {
  // integral(K * f) == integral(K) * integral(f) (free-space; boundary
  // leakage is negligible for well-contained Gaussians).
  const double wf = 0.05, wk = 0.04;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 7;
  fp.thresh = 1e-7;
  fp.initial_level = 3;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.45, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(op_params(1, 7, 1e-9, 8), single_gaussian(wk));
  mra::Function g = apply(op, f, {});
  const double int_k = std::sqrt(std::numbers::pi) * wk;
  const double int_f = f.integral();
  EXPECT_NEAR(g.integral(), int_k * int_f, 1e-6);
}

TEST(Apply, NearDeltaKernelReproducesInput) {
  const double w = 0.01;  // narrow normalized Gaussian ~ delta
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-7;
  fp.initial_level = 2;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, 0.15);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedKernel delta;
  delta.terms.push_back(
      {1.0 / (w * std::sqrt(std::numbers::pi)), 1.0 / (w * w)});
  SeparatedConvolution op(op_params(1, 8, 1e-8, 8), delta);
  mra::Function g = apply(op, f, {});
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const double x[1] = {rng.uniform(0.2, 0.8)};
    EXPECT_NEAR(g.eval(x), f_fn(x), 2e-2) << "x=" << x[0];
  }
}

TEST(Apply, TwoDimensionalSeparableKernel) {
  const double wf = 0.08, wk = 0.08, c = 0.5;
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 6;
  fp.thresh = 1e-5;
  fp.initial_level = 2;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], c, wf) * gaussian1d(x[1], c, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(op_params(2, 6, 1e-7, 6), single_gaussian(wk));
  mra::Function g = apply(op, f, {});

  const double weff2 = wk * wk + wf * wf;
  const double amp1 = std::sqrt(std::numbers::pi) * wk * wf / std::sqrt(weff2);
  Rng rng(35);
  for (int trial = 0; trial < 15; ++trial) {
    const double x[2] = {rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)};
    const double e1 = amp1 * std::exp(-(x[0] - c) * (x[0] - c) / weff2);
    const double e2 = amp1 * std::exp(-(x[1] - c) * (x[1] - c) / weff2);
    EXPECT_NEAR(g.eval(x), e1 * e2, 5e-3 * amp1 * amp1);
  }
}

TEST(Apply, RankReductionPreservesAccuracyAndShortensGemms) {
  const double wf = 0.07, wk = 0.3;  // broad, smooth kernel: low rank
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 12;
  fp.thresh = 1e-6;
  fp.initial_level = 3;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(op_params(1, 12, 1e-8, 8), single_gaussian(wk));

  ApplyStats full_stats, red_stats;
  mra::Function full = apply(op, f, {}, &full_stats);
  ApplyOptions ro;
  ro.rank_reduce = true;
  ro.rank_tol = 1e-9;
  mra::Function red = apply(op, f, ro, &red_stats);

  EXPECT_GT(red_stats.rank_reduced_gemms, 0u);
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    const double x[1] = {rng.uniform(0.1, 0.9)};
    EXPECT_NEAR(red.eval(x), full.eval(x), 1e-5);
  }
}

TEST(Apply, TaskEnumerationMatchesLeafAndBandCounts) {
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 6;
  fp.thresh = 1e-5;
  fp.initial_level = 3;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, 0.1);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(op_params(1, 6, 1e-7, 4), single_gaussian(0.2));
  const auto tasks = make_apply_tasks(op, f);
  // Each task's target is its source displaced by disp, at the same level.
  for (const ApplyTask& t : tasks) {
    EXPECT_EQ(t.source.level(), t.target.level());
    EXPECT_EQ(t.target.translation(0), t.source.translation(0) + t.disp[0]);
  }
  // Task count is bounded by leaves x band size and at least leaves (m=0).
  std::size_t band_total = 0;
  for (const mra::Key& key : f.leaf_keys())
    band_total += op.displacements(key.level()).size();
  EXPECT_LE(tasks.size(), band_total);
  EXPECT_GE(tasks.size(), f.num_leaves());
}

mra::Function coulomb_input_2d() {
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 5;
  fp.thresh = 1e-4;
  fp.initial_level = 2;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.45, 0.08) * gaussian1d(x[1], 0.55, 0.1);
  };
  return mra::Function::project(f_fn, fp);
}

bool bitwise_equal(const mra::Function& a, const mra::Function& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (const auto& [key, node] : a.nodes()) {
    const auto it = b.nodes().find(key);
    if (it == b.nodes().end()) return false;
    const Tensor& x = node.coeffs;
    const Tensor& y = it->second.coeffs;
    if (node.has_children != it->second.has_children ||
        x.size() != y.size() ||
        (x.size() != 0 &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

SeparatedConvolution::Params periodic_params(std::size_t d, std::size_t k,
                                             double thresh,
                                             std::int64_t cap) {
  auto p = op_params(d, k, thresh, cap);
  p.periodic = true;
  return p;
}

// apply() runs each leaf's tasks as one batch through apply_leaf_tasks; the
// result and the stats must equal the loop over make_apply_tasks, task by
// task, accumulated in the same order.
void expect_leaf_loop_matches_task_loop(const SeparatedConvolution& op,
                                        const mra::Function& f,
                                        const ApplyOptions& opts) {
  ApplyStats loop_stats, task_stats;
  const mra::Function by_leaf = apply(op, f, opts, &loop_stats);
  mra::Function by_task(f.params());
  by_task.accumulate(mra::Key::root(f.ndim()), Tensor::cube(f.ndim(), f.k()));
  for (const ApplyTask& t : make_apply_tasks(op, f)) {
    by_task.accumulate(
        t.target, apply_task_compute(op, f.leaf_coeffs(t.source),
                                     t.source.level(), t.disp, opts,
                                     &task_stats));
  }
  by_task.sum_down();
  EXPECT_TRUE(bitwise_equal(by_leaf, by_task)) << opts.rank_reduce;
  EXPECT_EQ(loop_stats.tasks, task_stats.tasks);
  EXPECT_EQ(loop_stats.gemms, task_stats.gemms);
  EXPECT_EQ(loop_stats.flops, task_stats.flops);
  EXPECT_EQ(loop_stats.rank_reduced_gemms, task_stats.rank_reduced_gemms);
  EXPECT_EQ(loop_stats.rank_reduced_gemms > 0, opts.rank_reduce);
}

TEST(Apply, LeafTaskLoopIsBitwiseEqualToPerTaskCompute) {
  const mra::Function f = coulomb_input_2d();
  const SeparatedConvolution op(op_params(2, 5, 1e-6, 3),
                                fit_coulomb(1e-3, 1e-3, std::sqrt(2.0)));
  ApplyOptions reduced;
  reduced.rank_reduce = true;
  reduced.rank_tol = 1e-5;
  EXPECT_GT(make_apply_tasks(op, f).size(), 64u);
  for (const ApplyOptions& opts : {ApplyOptions{}, reduced})
    expect_leaf_loop_matches_task_loop(op, f, opts);
}

TEST(Apply, PeriodicLeafTaskLoopKeepsWrappedSinkOrder) {
  // On a 4-box-wide level-2 torus, displacements m and m +- 4 wrap onto
  // one target, so one leaf sends several contributions to the same box:
  // the batched leaf must still accumulate them in for_each_task order.
  const mra::Function f = coulomb_input_2d();
  const SeparatedConvolution op(periodic_params(2, 5, 1e-6, 4),
                                single_gaussian(0.3));
  std::size_t repeats = 0;
  for (const mra::Key& leaf : f.leaf_keys()) {
    std::vector<mra::Key> targets;
    for_each_task(op, leaf, [&](const mra::Key& to, const Displacement&) {
      repeats += std::count(targets.begin(), targets.end(), to);
      targets.push_back(to);
    });
  }
  EXPECT_GT(repeats, 0u);
  ApplyOptions reduced;
  reduced.rank_reduce = true;
  for (const ApplyOptions& opts : {ApplyOptions{}, reduced})
    expect_leaf_loop_matches_task_loop(op, f, opts);
}

TEST(Apply, FourDimensionalLeafTaskLoopIsBitwiseEqual) {
  // The tdse shape: d = 4, k = 10, a single-Gaussian smoothing operator.
  mra::FunctionParams fp;
  fp.ndim = 4;
  fp.k = 10;
  fp.thresh = 1e-3;
  fp.initial_level = 1;
  fp.max_level = 1;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.4, 0.3) * gaussian1d(x[1], 0.5, 0.3) *
           gaussian1d(x[2], 0.6, 0.3) * gaussian1d(x[3], 0.5, 0.3);
  };
  const mra::Function f = mra::Function::project(f_fn, fp);
  const SeparatedConvolution op(op_params(4, 10, 1e-8, 1),
                                single_gaussian(0.1));
  EXPECT_GT(make_apply_tasks(op, f).size(), f.num_leaves());
  expect_leaf_loop_matches_task_loop(op, f, {});
}

TEST(Apply, SharesModePrefixGemmsAcrossALeafsTasks) {
  // ApplyStats::gemms stays the logical tasks * M * d count; the packed
  // GEMMs the engine executes are fewer, because a leaf's tasks share
  // their mode-prefix intermediates.
  const mra::Function f = coulomb_input_2d();
  const SeparatedConvolution op(op_params(2, 5, 1e-6, 3),
                                fit_coulomb(1e-3, 1e-3, std::sqrt(2.0)));
  ApplyStats stats;
  const std::size_t before =
      linalg::thread_workspace().stats().packed_gemms;
  apply(op, f, {}, &stats);
  const std::size_t executed =
      linalg::thread_workspace().stats().packed_gemms - before;
  EXPECT_EQ(stats.gemms, stats.tasks * op.rank() * 2);
  EXPECT_GT(executed, 0u);
  EXPECT_LT(executed, stats.gemms);
}

TEST(Apply, SourceThatIsNotAKCubeIsATypedError) {
  // Every entry point reads k^d doubles from the source: a (k, k, 1) leaf
  // of a 3-D operator must be rejected, not read past its end.
  const SeparatedConvolution op(op_params(3, 5, 1e-6, 2),
                                single_gaussian(0.2));
  const mra::Key leaf = mra::Key::root(3);
  const auto ignore = [](const mra::Key&, Tensor&&) {};
  for (const Tensor& bad : {Tensor({5, 5, 1}), Tensor({5, 5}),
                            Tensor({5, 5, 5, 1}), Tensor({5, 4, 5})}) {
    EXPECT_THROW(apply_task_compute(op, bad, 0, Displacement{}), Error);
    EXPECT_THROW(apply_leaf_tasks(op, leaf, bad, {}, nullptr, ignore),
                 Error);
  }
  EXPECT_NO_THROW(apply_task_compute(op, Tensor::cube(3, 5), 0, {}));
}

TEST(Apply, WarmApplyCountsOneLookupPerBlockRead) {
  // cache_stats keeps its meaning: every operator-block read of a task is
  // one hit or one miss, so a warm Apply adds tasks * M * d hits (twice
  // that with rank reduction, whose rank reads are lookups too).
  const mra::Function f = coulomb_input_2d();
  const SeparatedConvolution op(op_params(2, 5, 1e-6, 3),
                                fit_coulomb(1e-3, 1e-3, std::sqrt(2.0)));
  ApplyOptions reduced;
  reduced.rank_reduce = true;
  apply(op, f, reduced);  // warm every block the Apply reads
  for (const ApplyOptions& opts : {ApplyOptions{}, reduced}) {
    const CacheStats before = op.cache_stats();
    ApplyStats stats;
    apply(op, f, opts, &stats);
    const CacheStats after = op.cache_stats();
    const std::size_t reads = stats.tasks * op.rank() * 2;
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.hits - before.hits, opts.rank_reduce ? 2 * reads : reads);
  }
}

TEST(Apply, PeriodicConservesMassAtTheBoundary) {
  // A Gaussian hugging the boundary: free-space apply loses the mass that
  // convolves out of [0,1]; the periodic operator wraps it back.
  const double wf = 0.05, wk = 0.05;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-8;
  fp.initial_level = 4;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.08, wf);  // near the left edge
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  const double int_k = std::sqrt(std::numbers::pi) * wk;

  SeparatedConvolution free_op(op_params(1, 8, 1e-9, 24),
                               single_gaussian(wk));
  const double free_mass = apply(free_op, f).integral();

  SeparatedConvolution per_op(periodic_params(1, 8, 1e-9, 24),
                              single_gaussian(wk));
  const double per_mass = apply(per_op, f).integral();

  const double expect = int_k * f.integral();
  EXPECT_NEAR(per_mass, expect, 1e-6);          // torus: conserved
  EXPECT_LT(free_mass, expect - 1e-4);          // free: visible leakage
}

TEST(Apply, PeriodicIsTranslationInvariantOnTheTorus) {
  const double wf = 0.05, wk = 0.06;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-8;
  fp.initial_level = 4;
  fp.max_level = 4;  // uniform grid so both trees align
  auto f1 = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.3, wf);
  };
  auto f2 = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.8, wf);  // f1 shifted by 0.5 on the torus
  };
  SeparatedConvolution op(periodic_params(1, 8, 1e-9, 24),
                          single_gaussian(wk));
  mra::Function g1 = apply(op, mra::Function::project(f1, fp));
  mra::Function g2 = apply(op, mra::Function::project(f2, fp));
  Rng rng(51);
  for (int i = 0; i < 25; ++i) {
    const double x = rng.next_double();
    const double xs[1] = {x};
    const double shifted[1] = {x + 0.5 < 1.0 ? x + 0.5 : x - 0.5};
    EXPECT_NEAR(g2.eval(shifted), g1.eval(xs), 1e-8) << "x=" << x;
  }
}

TEST(Apply, PeriodicMatchesFreeSpaceForCenteredFunctions) {
  // When the kernel reach never touches the boundary the two agree.
  const double wf = 0.04, wk = 0.03;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 7;
  fp.thresh = 1e-7;
  fp.initial_level = 3;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution free_op(op_params(1, 7, 1e-9, 16),
                               single_gaussian(wk));
  SeparatedConvolution per_op(periodic_params(1, 7, 1e-9, 16),
                              single_gaussian(wk));
  mra::Function g_free = apply(free_op, f);
  mra::Function g_per = apply(per_op, f);
  Rng rng(52);
  for (int i = 0; i < 25; ++i) {
    const double x[1] = {rng.uniform(0.2, 0.8)};
    EXPECT_NEAR(g_per.eval(x), g_free.eval(x), 1e-10);
  }
}

TEST(Apply, PeriodicTaskTargetsStayOnGrid) {
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 5;
  fp.thresh = 1e-4;
  fp.initial_level = 2;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.1, 0.2) * gaussian1d(x[1], 0.9, 0.2);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(periodic_params(2, 5, 1e-6, 4),
                          single_gaussian(0.3));
  const auto tasks = make_apply_tasks(op, f);
  // Periodic wrap: every displacement yields a task (none fall off).
  std::size_t band_total = 0;
  for (const mra::Key& key : f.leaf_keys())
    band_total += op.displacements(key.level()).size();
  EXPECT_EQ(tasks.size(), band_total);
  for (const auto& t : tasks) {
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_GE(t.target.translation(m), 0);
      EXPECT_LT(t.target.translation(m),
                std::int64_t{1} << t.target.level());
    }
  }
}

TEST(Apply, RejectsCompressedInput) {
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 5;
  fp.thresh = 1e-4;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, 0.2);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  f.compress();
  SeparatedConvolution op(op_params(1, 5, 1e-6, 4), single_gaussian(0.2));
  EXPECT_THROW(make_apply_tasks(op, f), Error);
}

}  // namespace
}  // namespace mh::ops
