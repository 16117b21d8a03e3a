// Tests for src/ops: separated kernel fits, Gaussian operator blocks, the
// operator cache, displacement screening, rank reduction, and Apply.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <latch>
#include <map>
#include <memory>
#include <numbers>
#include <set>
#include <thread>
#include <tuple>

#include "bitwise.hpp"
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
  // m = 0 must always be present.
  ASSERT_FALSE(disps.empty());
  EXPECT_EQ(std::count(disps.begin(), disps.end(), Displacement{}), 1);
  // Sorted lexicographically, component 0 slowest, without repeats: the
  // tasks of one leaf that share a mode prefix (m_0, ..., m_j) are
  // consecutive.
  for (std::size_t i = 1; i < disps.size(); ++i) {
    EXPECT_TRUE(disps[i - 1][0] < disps[i][0] ||
                (disps[i - 1][0] == disps[i][0] &&
                 disps[i - 1][1] < disps[i][1]))
        << "position " << i;
  }
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

TEST(Convolution, ConcurrentMixedReadsCountEveryHit) {
  // Each thread counts hits into its own counter; cache_stats() sums them.
  // Four threads mixing h_block, reduced_rank and h_table reads (full rank
  // and ranked) on one cold operator: every read is one hit or one miss,
  // and each block is missed once.
  const auto params = op_params(2, 5, 1e-6, 2);
  const SeparatedConvolution op(params,
                                fit_coulomb(1e-3, 1e-3, std::sqrt(2.0)));
  constexpr int kLevels = 4;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 40;
  std::vector<std::size_t> reads(kThreads, 0);
  using BlockKey = std::tuple<int, std::size_t, std::int64_t>;
  std::vector<std::set<BlockKey>> blocks(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(rng.next_u64() %
                                              static_cast<std::uint64_t>(
                                                  hi - lo + 1));
      };
      start.arrive_and_wait();
      for (std::size_t round = 0; round < kRounds; ++round) {
        const int n = static_cast<int>(pick(0, kLevels - 1));
        const auto mu = static_cast<std::size_t>(
            pick(0, static_cast<std::int64_t>(op.rank()) - 1));
        const std::int64_t m0 = pick(-2, 2), m1 = pick(-2, 2);
        op.h_block(mu, n, m0);
        op.reduced_rank(mu, n, m1, 1e-6);
        reads[t] += 2;
        blocks[t].insert({n, mu, m0});
        blocks[t].insert({n, mu, m1});
        std::array<std::array<std::int64_t, 2>, 3> disps;
        std::vector<linalg::DisplacementItem> items;
        for (auto& disp : disps) {
          disp = {pick(-2, 2), pick(-2, 2)};
          items.push_back({nullptr, disp.data(), nullptr});
          if (items.size() == 1 + round % 3) break;
        }
        const double tol = round % 2 == 0 ? 0.0 : 1e-6;
        op.h_table(n, items, tol);
        reads[t] += items.size() * op.rank() * 2 * (tol > 0.0 ? 2 : 1);
        for (const auto& item : items) {
          for (std::size_t j = 0; j < op.rank(); ++j) {
            blocks[t].insert({n, j, item.disp[0]});
            blocks[t].insert({n, j, item.disp[1]});
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::size_t total = 0;
  std::set<BlockKey> distinct;
  for (std::size_t t = 0; t < kThreads; ++t) {
    total += reads[t];
    distinct.insert(blocks[t].begin(), blocks[t].end());
  }
  const CacheStats stats = op.cache_stats();
  EXPECT_EQ(stats.misses, distinct.size());
  EXPECT_EQ(stats.hits, total - distinct.size());
}

TEST(Convolution, RankRowsFollowOperatorLevelAndTolerance) {
  // h_table keeps the calling thread's rank row for its last (level table,
  // tolerance). One thread alternating two operators (different ranks and
  // widths), levels and tolerances must read every block's reduced_rank,
  // and each operator counts exactly its own reads.
  const SeparatedConvolution a(op_params(2, 5, 1e-6, 2),
                               fit_coulomb(1e-3, 1e-3, std::sqrt(2.0)));
  const SeparatedConvolution b(op_params(2, 6, 1e-6, 3),
                               fit_coulomb(1e-4, 1e-3, std::sqrt(2.0)));
  ASSERT_NE(a.rank(), b.rank());
  const double tols[] = {1e-4, 1e-6, 0.0};
  Rng rng(7);
  const auto pick = [&rng](std::uint64_t count) {
    return rng.next_u64() % count;
  };
  std::size_t checked = 0;
  std::map<const SeparatedConvolution*, std::size_t> reads;
  for (int step = 0; step < 300; ++step) {
    const SeparatedConvolution& op = pick(2) == 0 ? a : b;
    const int n = static_cast<int>(pick(3));
    const double tol = tols[pick(3)];
    const auto reach = 2 * op.params().max_disp + 1;
    std::array<std::array<std::int64_t, 2>, 2> disps;
    std::vector<linalg::DisplacementItem> items;
    for (auto& disp : disps) {
      for (auto& m : disp)
        m = static_cast<std::int64_t>(pick(2 * reach + 1)) - reach;
      items.push_back({nullptr, disp.data(), nullptr});
    }
    const linalg::BlockTable table = op.h_table(n, items, tol);
    reads[&op] += items.size() * op.rank() * 2 * (tol > 0.0 ? 2 : 1);
    ASSERT_EQ(table.ranks == nullptr, tol == 0.0);
    for (const auto& disp : disps) {
      for (const std::int64_t m : disp) {
        for (std::size_t mu = 0; mu < op.rank(); ++mu) {
          const std::size_t at =
              mu * table.width + static_cast<std::size_t>(table.origin + m);
          ASSERT_EQ(table.blocks[at], op.h_block(mu, n, m)->data());
          ++reads[&op];
          if (tol == 0.0) continue;
          ASSERT_EQ(table.ranks[at], op.reduced_rank(mu, n, m, tol))
              << "step " << step << " mu " << mu << " m " << m;
          ++reads[&op];
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
  for (const SeparatedConvolution* op : {&a, &b}) {
    const CacheStats stats = op->cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, reads[op]);
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

TEST(Apply, WrappedRepeatsOfComparableSizeKeepTaskOrder) {
  // On a 4-box-wide torus a broad kernel sends a leaf's images m and m +- 4
  // onto one target with comparable weights, and for_each_task (by
  // distance) and the engine (by block) order them differently. Repeats
  // that shared the target's tensor inside the batch would be summed in
  // the engine's order; the test above, whose far images are negligible,
  // cannot see that.
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 5;
  fp.thresh = 1e-3;
  fp.initial_level = 1;
  fp.max_level = 2;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.3, 0.2) * gaussian1d(x[1], 0.6, 0.3);
  };
  const mra::Function f = mra::Function::project(f_fn, fp);
  const SeparatedConvolution op(periodic_params(2, 5, 1e-12, 2),
                                single_gaussian(1.0));
  ApplyOptions reduced;
  reduced.rank_reduce = true;
  reduced.rank_tol = 1e-4;
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

TEST(Apply, WriteThroughKeepsSignedZerosAndInteriorTargets) {
  // apply() adds each task's product straight into the output node. Pin
  // that against the per-task loop on a mixed-level tree (levels 1-3), so
  // that coarse tasks target boxes that are interior nodes, and with one
  // leaf of all +0.0 and one of all -0.0, whose contributions are exact
  // zeros: bitwise, signs of zeros included.
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 5;
  Rng rng(29);
  const auto random_cube = [&] {
    Tensor t = Tensor::cube(2, 5);
    for (double& x : t.flat()) x = 2.0 * rng.next_double() - 1.0;
    return t;
  };
  const mra::Key root = mra::Key::root(2);
  const mra::Key fine = root.child(3).child(0);
  std::vector<std::pair<mra::Key, Tensor>> leaves;
  for (std::size_t c = 0; c < 3; ++c)
    leaves.emplace_back(root.child(c), random_cube());
  for (std::size_t c = 1; c < 4; ++c)
    leaves.emplace_back(root.child(3).child(c), random_cube());
  for (std::size_t c = 0; c < 4; ++c)
    leaves.emplace_back(fine.child(c), random_cube());
  leaves[1].second = Tensor::cube(2, 5);
  for (double& x : leaves[4].second.flat()) x = -0.0;
  const mra::Function f = mra::Function::from_leaves(fp, leaves);

  const SeparatedConvolution op(op_params(2, 5, 1e-6, 3),
                                fit_coulomb(1e-3, 1e-3, std::sqrt(2.0)));
  std::size_t interior = 0;
  for (const ApplyTask& t : make_apply_tasks(op, f)) {
    const auto it = f.nodes().find(t.target);
    if (it != f.nodes().end() && it->second.has_children) ++interior;
  }
  EXPECT_GT(interior, 0u);
  ApplyOptions reduced;
  reduced.rank_reduce = true;
  reduced.rank_tol = 1e-5;
  for (const ApplyOptions& opts : {ApplyOptions{}, reduced})
    expect_leaf_loop_matches_task_loop(op, f, opts);
}

// ops::apply with every leaf's tasks fed as pointer items, the way
// apply_leaf_tasks gathered them before its items named displacements: per
// task the M * d blocks (h_block) and, with rank reduction, each term's
// least reduced_rank over its modes; a wrapped repeat of a target gets a
// scratch result added after the batch, in task order.
mra::Function apply_by_pointer_items(const SeparatedConvolution& op,
                                     const mra::Function& f,
                                     const ApplyOptions& opts) {
  const std::size_t d = f.ndim();
  const std::size_t k = f.k();
  const std::size_t rank = op.rank();
  const double tol = opts.rank_tol > 0.0 ? opts.rank_tol : op.params().thresh;
  mra::Function out(f.params());
  for (const mra::Key& leaf : f.leaf_keys()) {
    const int n = leaf.level();
    std::vector<linalg::GemmMat> mats;
    std::vector<std::size_t> kreds;
    std::vector<double*> results;
    std::vector<std::pair<Tensor*, Tensor>> repeats;
    for_each_task(op, leaf, [&](const mra::Key& to, const Displacement& m) {
      for (std::size_t mu = 0; mu < rank; ++mu) {
        std::size_t kred = k;
        for (std::size_t dim = 0; dim < d; ++dim) {
          mats.push_back({op.h_block(mu, n, m[dim])->data(), k, k});
          kred = std::min(kred, op.reduced_rank(mu, n, m[dim], tol));
        }
        if (opts.rank_reduce) kreds.push_back(kred);
      }
      Tensor& sum = out.accumulate_target(to);
      double* r = sum.data();
      if (std::ranges::find(results, r) != results.end())
        r = repeats.emplace_back(&sum, Tensor::cube(d, k)).second.data();
      results.push_back(r);
    });
    std::vector<linalg::FusedApplyItem> items;
    for (std::size_t t = 0; t < results.size(); ++t) {
      items.push_back(
          {f.leaf_coeffs(leaf).data(),
           std::span{mats}.subspan(t * rank * d, rank * d), op.term_coeffs(),
           opts.rank_reduce ? std::span{kreds}.subspan(t * rank, rank)
                            : std::span<const std::size_t>{},
           results[t]});
    }
    linalg::batch_fused_apply(d, k, items, linalg::thread_workspace());
    for (auto& [sum, r] : repeats) *sum += r;
  }
  out.sum_down();
  return out;
}

TEST(Apply, DisplacementItemsMatchPointerItemsBitwise) {
  // apply's items name their displacements over the level's block table;
  // the same tasks as pointer items carrying their M * d blocks must give
  // the same bits and run the same engine work: on a free Coulomb operator
  // and on a torus whose leaves send wrapped repeats to one target, at
  // full rank and rank-reduced.
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 5;
  fp.thresh = 1e-3;
  fp.initial_level = 1;
  fp.max_level = 2;
  const mra::Function broad = mra::Function::project(
      [](std::span<const double> x) {
        return gaussian1d(x[0], 0.3, 0.2) * gaussian1d(x[1], 0.6, 0.3);
      },
      fp);
  const SeparatedConvolution free_op(op_params(2, 5, 1e-6, 3),
                                     fit_coulomb(1e-3, 1e-3, std::sqrt(2.0)));
  const SeparatedConvolution torus(periodic_params(2, 5, 1e-12, 2),
                                   single_gaussian(1.0));
  const mra::Function narrow = coulomb_input_2d();
  std::size_t repeats = 0;
  for (const mra::Key& leaf : broad.leaf_keys()) {
    std::vector<mra::Key> targets;
    for_each_task(torus, leaf, [&](const mra::Key& to, const Displacement&) {
      repeats += std::count(targets.begin(), targets.end(), to);
      targets.push_back(to);
    });
  }
  ASSERT_GT(repeats, 0u);
  struct Case {
    const SeparatedConvolution& op;
    const mra::Function& f;
    double rank_tol;
  };
  for (const Case& c : {Case{free_op, narrow, 1e-5}, Case{torus, broad, 1e-4}}) {
    ApplyOptions reduced;
    reduced.rank_reduce = true;
    reduced.rank_tol = c.rank_tol;
    for (const ApplyOptions& opts : {ApplyOptions{}, reduced}) {
      const linalg::BatchGemmStats& ws = linalg::thread_workspace().stats();
      const linalg::BatchGemmStats before = ws;
      ApplyStats stats;
      const mra::Function by_disp = apply(c.op, c.f, opts, &stats);
      const linalg::BatchGemmStats mid = ws;
      const mra::Function by_pointer = apply_by_pointer_items(c.op, c.f, opts);
      EXPECT_TRUE(bitwise_equal(by_disp, by_pointer)) << opts.rank_reduce;
      EXPECT_EQ(mid.packed_gemms - before.packed_gemms,
                ws.packed_gemms - mid.packed_gemms);
      EXPECT_EQ(mid.prefix_nodes - before.prefix_nodes,
                ws.prefix_nodes - mid.prefix_nodes);
      EXPECT_EQ(mid.flops - before.flops, ws.flops - mid.flops);
      EXPECT_EQ(stats.rank_reduced_gemms > 0, opts.rank_reduce);
    }
  }
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
  Tensor scratch = Tensor::cube(3, 5);
  const auto into = [&scratch](const mra::Key&) { return &scratch; };
  for (const Tensor& bad : {Tensor({5, 5, 1}), Tensor({5, 5}),
                            Tensor({5, 5, 5, 1}), Tensor({5, 4, 5})}) {
    EXPECT_THROW(apply_task_compute(op, bad, 0, Displacement{}), Error);
    EXPECT_THROW(apply_leaf_tasks(op, leaf, bad, {}, nullptr, into),
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

// The differential tier for one-task calls: seeded random sequences of
// apply_task_compute calls on one thread, each memcmp-equal to the same
// call on a fresh thread (so on a fresh workspace). Each thread's prefix
// stacks carry over from call to call; between calls the sequence edits
// a source in place (same pointer, new values), destroys and rebuilds the
// operator with new blocks (which may land where the old ones were), and
// interleaves pointer-keyed calls and calls of another shape, each of
// which may leave stacks that must not be reused. A failure prints its
// seed.
// `call`'s result on this thread, memcmp-equal to its result on a fresh
// thread.
template <class Call>
void expect_fresh_equal(const Call& call, std::size_t index,
                        std::uint64_t event) {
  const Tensor got = call();
  Tensor want;
  std::thread fresh([&] { want = call(); });
  fresh.join();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << "call " << index << " (event " << event << ")";
}

TEST(ApplyDifferential, OneTaskCallSequencesMatchFreshWorkspaces) {
  constexpr std::uint64_t kFirstSeed = 20261019;
  constexpr std::uint64_t kCases = 48;
  constexpr std::size_t kCalls = 40;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kCases; ++seed) {
    Rng rng(seed);
    const std::size_t d = 1 + rng.below(3);
    const std::size_t k = 3 + rng.below(5);
    auto params =
        op_params(d, k, 1e-8, 1 + static_cast<std::int64_t>(rng.below(3)));
    params.periodic = rng.below(2) == 1;
    SeparatedKernel kernel;
    const std::size_t terms = 1 + rng.below(4);
    for (std::size_t mu = 0; mu < terms; ++mu) {
      const double width = rng.uniform(0.03, 0.4);
      kernel.terms.push_back({rng.uniform(0.1, 2.0), 1.0 / (width * width)});
    }
    ApplyOptions opts;
    opts.rank_reduce = rng.below(2) == 1;
    if (opts.rank_reduce) opts.rank_tol = std::pow(10.0, rng.uniform(-8, -3));
    auto op = std::make_unique<SeparatedConvolution>(params, kernel);
    // Another shape, for the interleaved calls that forget the stacks.
    const SeparatedConvolution other(op_params(d == 3 ? 2 : d + 1, k, 1e-8, 1),
                                     single_gaussian(0.3));
    std::vector<Tensor> sources;
    for (std::size_t s = 0; s < 3; ++s) {
      Tensor t = Tensor::cube(d, k);
      const std::uint64_t kind = rng.below(6);
      for (double& x : t.flat())
        x = kind == 0 ? 0.0 : kind == 1 ? -0.0 : rng.uniform(-1.0, 1.0);
      sources.push_back(std::move(t));
    }
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << ": d=" << d << " k=" << k
                 << " terms=" << terms << " max_disp=" << params.max_disp
                 << (params.periodic ? " periodic" : " free") << " rank_tol="
                 << (opts.rank_reduce ? opts.rank_tol : 0.0));
    std::vector<Tensor> scratch(terms * d, Tensor::cube(2, k));
    // The current leaf: a source at a level, walked in task order.
    std::size_t src = 0;
    int level = 1;
    std::size_t next = 0;
    for (std::size_t call = 0; call < kCalls; ++call) {
      const std::uint64_t event = rng.below(12);
      if (event == 0) {
        // Same pointer, new values: one element, or its sign.
        double& x = sources[src].flat()[rng.below(sources[src].size())];
        x = rng.below(2) == 0 ? -x : rng.uniform(-1.0, 1.0);
      } else if (event == 1) {
        // New blocks, possibly at the old ones' addresses.
        for (auto& term : kernel.terms) term.exponent *= rng.uniform(0.5, 2.0);
        op.reset();
        op = std::make_unique<SeparatedConvolution>(params, kernel);
      } else if (event == 2) {
        // Two pointer-keyed calls over copies of a task's blocks in a
        // scratch buffer they reuse: same addresses, new values.
        const auto& disps = op->displacements(level);
        for (int twice = 0; twice < 2; ++twice) {
          const Displacement& disp = disps[rng.below(disps.size())];
          std::vector<MatrixView> mats;
          for (std::size_t mu = 0; mu < op->rank(); ++mu) {
            for (std::size_t m = 0; m < d; ++m) {
              Tensor& h = scratch[mu * d + m];
              h = *op->h_block(mu, level, disp[m]);
              mats.push_back(MatrixView(h));
            }
          }
          const auto by_pointer = [&] {
            Tensor r = Tensor::cube(d, k);
            fused_apply_accumulate(sources[src], mats, op->term_coeffs(), {},
                                   r);
            return r;
          };
          expect_fresh_equal(by_pointer, call, event);
        }
      } else if (event == 3) {
        Tensor t = Tensor::cube(other.params().ndim, k);
        t.flat()[0] = 1.0;
        apply_task_compute(other, t, 1, other.displacements(1)[0]);
      } else if (event == 4) {
        src = rng.below(sources.size());
        level = static_cast<int>(rng.below(3));
        next = rng.below(op->displacements(level).size());
      }
      const auto& disps = op->displacements(level);
      const Displacement disp = disps[next++ % disps.size()];
      expect_fresh_equal(
          [&] {
            return apply_task_compute(*op, sources[src], level, disp, opts);
          },
          call, event);
      if (HasFailure()) return;
    }
  }
}

// The owner-computes cut: SlabCut assigns each target to a side by its
// mode-0 box centre, at task-count quantiles, from one enumeration.
SeparatedConvolution smoothing(std::size_t d, std::size_t k, double width,
                               std::int64_t max_disp, double thresh,
                               bool periodic = false) {
  auto p = op_params(d, k, thresh, max_disp);
  p.periodic = periodic;
  return {p, single_gaussian(width)};
}

mra::Function slab_input(std::size_t d, double centre0) {
  mra::FunctionParams p;
  p.ndim = d;
  p.k = d == 1 ? 7 : 5;
  p.thresh = d == 1 ? 1e-6 : 1e-4;
  p.initial_level = d == 1 ? 3 : 2;
  return mra::Function::project(
      [d, centre0](std::span<const double> x) {
        const double u = (x[0] - centre0) / 0.1;
        if (d == 1) return std::exp(-u * u);
        const double v = (x[1] - 0.55) / 0.2;
        return std::exp(-u * u - v * v);
      },
      p);
}

mra::Key key1d(int level, std::int64_t l) {
  const std::int64_t t[1] = {l};
  return mra::Key(1, level, t);
}

TEST(SlabCut, SideDependsOnlyOnLevelAndModeZeroTranslation) {
  const mra::Function f = slab_input(2, 0.4);
  const auto op = smoothing(2, 5, 0.1, 3, 1e-6);
  const SlabCut cut(op, f.leaf_keys(), 3);
  for (int level = 0; level <= 7; ++level) {
    const std::int64_t boxes = std::int64_t{1} << level;
    for (std::int64_t l0 = 0; l0 < boxes; ++l0) {
      const std::int64_t a[2] = {l0, 0};
      const std::size_t side = cut.side(mra::Key(2, level, a));
      for (const std::int64_t l1 : {boxes / 2, boxes - 1}) {
        const std::int64_t b[2] = {l0, l1};
        EXPECT_EQ(cut.side(mra::Key(2, level, b)), side)
            << "level " << level << " l0 " << l0;
      }
      // Slabs are contiguous along mode 0: sides rise with l0.
      if (l0 > 0) {
        const std::int64_t left[2] = {l0 - 1, 0};
        EXPECT_LE(cut.side(mra::Key(2, level, left)), side);
      }
    }
  }
}

TEST(SlabCut, SideTaskCountsAreWithinOneColumnOfEven) {
  // Every side's share of the tasks is within one target column (the tasks
  // whose targets share a level and a mode-0 translation) of total/sides.
  const mra::Function f = slab_input(2, 0.4);
  const auto op = smoothing(2, 5, 0.1, 3, 1e-6);
  const std::vector<mra::Key> leaves = f.leaf_keys();
  std::map<std::pair<int, std::int64_t>, std::size_t> columns;
  std::size_t total = 0;
  for (const mra::Key& leaf : leaves) {
    for_each_task(op, leaf, [&](const mra::Key& target, const Displacement&) {
      ++columns[{target.level(), target.translation(0)}];
      ++total;
    });
  }
  std::size_t widest = 0;
  for (const auto& [column, tasks] : columns) widest = std::max(widest, tasks);
  ASSERT_LT(widest * 4, total);  // columns are narrower than a side's share
  for (const std::size_t sides : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << sides << " sides");
    const SlabCut cut(op, leaves, sides);
    std::vector<std::size_t> counts(sides, 0);
    for (const mra::Key& leaf : leaves) {
      for_each_task(op, leaf,
                    [&](const mra::Key& target, const Displacement&) {
                      ++counts[cut.side(target)];
                    });
    }
    const double even = static_cast<double>(total) / static_cast<double>(sides);
    for (std::size_t s = 0; s < sides; ++s) {
      const double off = std::abs(static_cast<double>(counts[s]) - even);
      EXPECT_LE(off, static_cast<double>(widest)) << "side " << s;
    }
  }
}

TEST(SlabCut, OneSideComputesEverything) {
  const mra::Function f = slab_input(1, 0.45);
  const auto op = smoothing(1, 7, 0.08, 8, 1e-7);
  const SlabCut cut(op, f.leaf_keys(), 1);
  for (int level = 0; level <= 6; ++level) {
    for (std::int64_t l = 0; l < (std::int64_t{1} << level); ++l)
      EXPECT_EQ(cut.side(key1d(level, l)), 0u);
  }
}

// loads() and computing_sides() against side() of every enumerated task.
void expect_cut_matches_task_sides(const SeparatedConvolution& op,
                                   const std::vector<mra::Key>& leaves,
                                   std::size_t sides) {
  SCOPED_TRACE(::testing::Message() << sides << " sides");
  const SlabCut cut(op, leaves, sides);
  std::vector<std::size_t> loads(sides, 0);
  for (const mra::Key& leaf : leaves) {
    std::set<std::size_t> computing;
    for_each_task(op, leaf, [&](const mra::Key& target, const Displacement&) {
      ++loads[cut.side(target)];
      computing.insert(cut.side(target));
    });
    EXPECT_EQ(cut.computing_sides(leaf),
              std::vector<std::size_t>(computing.begin(), computing.end()));
  }
  EXPECT_EQ(cut.loads(), loads);
}

TEST(SlabCut, LoadsAndComputingSidesMatchTaskSides) {
  const mra::Function f1 = slab_input(1, 0.45);
  const mra::Function f2 = slab_input(2, 0.4);
  for (std::size_t sides = 1; sides <= 4; ++sides) {
    expect_cut_matches_task_sides(smoothing(1, 7, 0.08, 8, 1e-7),
                                  f1.leaf_keys(), sides);
    expect_cut_matches_task_sides(smoothing(2, 5, 0.1, 3, 1e-6),
                                  f2.leaf_keys(), sides);
  }
  const SlabCut cut(smoothing(1, 7, 0.08, 8, 1e-7), f1.leaf_keys(), 2);
  EXPECT_THROW(cut.computing_sides(key1d(9, 0)), Error);
}

TEST(SlabCut, PeriodicTargetsWrapAcrossTheDomainEdge) {
  // On the torus, tasks of leaves at the domain edge wrap onto the far
  // edge. A flat function on the 16 level-4 boxes has 3 tasks per leaf
  // (displacements -1, 0, 1), so 3 sides cut at boxes 5 and 11, and the
  // edge leaves are computed on the first and last sides but not the one
  // between them.
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 5;
  p.thresh = 1e-4;
  p.initial_level = 4;
  const mra::Function flat =
      mra::Function::project([](std::span<const double>) { return 1.0; }, p);
  ASSERT_EQ(flat.num_leaves(), 16u);
  const auto op = smoothing(1, 5, 0.02, 2, 1e-7, /*periodic=*/true);
  const SlabCut cut(op, flat.leaf_keys(), 3);
  EXPECT_EQ(cut.loads(), (std::vector<std::size_t>{15, 18, 15}));
  for (const std::int64_t edge : {0, 15}) {
    EXPECT_EQ(cut.computing_sides(key1d(4, edge)),
              (std::vector<std::size_t>{0, 2}))
        << "leaf " << edge;
  }
  const mra::Function near_edge = slab_input(1, 0.04);
  const auto wide = smoothing(1, 7, 0.08, 8, 1e-7, /*periodic=*/true);
  for (std::size_t sides = 1; sides <= 4; ++sides) {
    expect_cut_matches_task_sides(op, flat.leaf_keys(), sides);
    expect_cut_matches_task_sides(wide, near_edge.leaf_keys(), sides);
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
