// Tests for the nonstandard-form Apply (ops/nonstandard.hpp): NS blocks,
// the NS representation, telescoping correctness, and its accuracy
// advantage on adaptive trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "differential.hpp"
#include "linalg/batch_gemm.hpp"
#include "mra/twoscale.hpp"
#include "ops/apply.hpp"
#include "ops/nonstandard.hpp"
#include "tensor/transform.hpp"

namespace mh::ops {
namespace {

double gauss(double x, double c, double w) {
  const double u = (x - c) / w;
  return std::exp(-u * u);
}

SeparatedConvolution::Params params1d(std::size_t k, double thresh,
                                      std::int64_t cap) {
  SeparatedConvolution::Params p;
  p.ndim = 1;
  p.k = k;
  p.thresh = thresh;
  p.max_disp = cap;
  return p;
}

TEST(NsBlock, SsQuadrantMatchesStandardBlock) {
  // The scaling->scaling quadrant of the full NS block at level n IS the
  // standard level-n block: <phi^n | T | phi^n> (exact two-scale algebra).
  const std::size_t k = 6;
  SeparatedConvolution op(params1d(k, 1e-10, 4), single_gaussian(0.2));
  for (const std::int64_t m : {0L, 1L, -2L}) {
    const auto full =
        op.ns_block(0, 2, m, SeparatedConvolution::NsPart::kFull);
    const auto std_blk = op.h_block(0, 2, m);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_NEAR(full->at({j, i}), std_blk->at({j, i}), 1e-10)
            << "m=" << m << " j=" << j << " i=" << i;
      }
    }
  }
}

TEST(NsBlock, SsOnlyBlockHasZeroWaveletQuadrants) {
  const std::size_t k = 5;
  SeparatedConvolution op(params1d(k, 1e-10, 4), single_gaussian(0.3));
  const auto ss = op.ns_block(0, 1, 0, SeparatedConvolution::NsPart::kSsOnly);
  const auto full =
      op.ns_block(0, 1, 0, SeparatedConvolution::NsPart::kFull);
  EXPECT_EQ(ss->dim(0), 2 * k);
  double wavelet_content = 0.0;
  for (std::size_t j = 0; j < 2 * k; ++j) {
    for (std::size_t i = 0; i < 2 * k; ++i) {
      if (j >= k || i >= k) {
        EXPECT_DOUBLE_EQ(ss->at({j, i}), 0.0);
        wavelet_content += std::abs(full->at({j, i}));
      } else {
        EXPECT_DOUBLE_EQ(ss->at({j, i}), full->at({j, i}));
      }
    }
  }
  // The full block's wavelet quadrants carry real content.
  EXPECT_GT(wavelet_content, 1e-8);
}

TEST(NsBlock, IsCachedAndShared) {
  SeparatedConvolution op(params1d(5, 1e-8, 2), single_gaussian(0.2));
  const auto a = op.ns_block(0, 1, 0, SeparatedConvolution::NsPart::kSsOnly);
  const auto b = op.ns_block(0, 1, 0, SeparatedConvolution::NsPart::kSsOnly);
  EXPECT_EQ(a.get(), b.get());
  const auto c = op.ns_block(0, 1, 0, SeparatedConvolution::NsPart::kFull);
  EXPECT_NE(a.get(), c.get());  // the part selector is in the cache key
}

TEST(NsForm, HoldsSupertensorAtEveryNode) {
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 6;
  fp.thresh = 1e-6;
  fp.initial_level = 2;
  auto f_fn = [](std::span<const double> x) { return gauss(x[0], 0.5, 0.1); };
  mra::Function f = mra::Function::project(f_fn, fp);
  const NsForm ns = NsForm::from(f);
  EXPECT_EQ(ns.num_nodes(), f.num_nodes());
  for (const auto& [key, u] : ns.nodes()) {
    EXPECT_EQ(u.ndim(), 1u);
    EXPECT_EQ(u.dim(0), 12u);  // 2k
  }
  // Leaf supertensors carry the leaf's s in the corner and zero d.
  for (const mra::Key& key : f.leaf_keys()) {
    const Tensor& u = ns.nodes().at(key);
    const Tensor corner = mra::extract_low_corner(u, 6);
    EXPECT_LT(max_abs_diff(corner, f.leaf_coeffs(key)), 1e-14);
    double dn = 0.0;
    for (std::size_t i = 6; i < 12; ++i) dn += std::abs(u[i]);
    EXPECT_DOUBLE_EQ(dn, 0.0);
  }
}

TEST(NsForm, NormIsPreservedAcrossNodes) {
  // Sum over nodes of ||d||^2 plus the root s block equals ||f||^2
  // (orthonormality of the multiwavelet decomposition).
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 5;
  fp.thresh = 1e-6;
  auto f_fn = [](std::span<const double> x) {
    return gauss(x[0], 0.5, 0.15) * gauss(x[1], 0.5, 0.15);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  const double norm = f.norm2();
  const NsForm ns = NsForm::from(f);

  double acc = 0.0;
  for (const auto& [key, u] : ns.nodes()) {
    // Wavelet part of every interior node...
    if (f.nodes().at(key).has_children) {
      Tensor wavelet = u;
      mra::set_low_corner(wavelet, Tensor::cube(2, 5));
      acc += wavelet.normf() * wavelet.normf();
      // ...plus the root's scaling block.
      if (key.level() == 0) {
        const Tensor corner = mra::extract_low_corner(u, 5);
        acc += corner.normf() * corner.normf();
      }
    }
  }
  EXPECT_NEAR(std::sqrt(acc), norm, 1e-10 * norm);
}

TEST(NsApply, MatchesLeafApplyOnUniformTree) {
  // On a uniform tree with unscreened bands the telescoped sum collapses to
  // P_L T P_L — the leaf-level apply — up to the extra output detail level,
  // which pointwise evaluation integrates over identically only after
  // projecting back; compare against the closed form instead, requiring NS
  // to be at least as accurate.
  const double wf = 0.07, wk = 0.07, c = 0.5;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-10;
  fp.initial_level = 3;
  fp.max_level = 3;
  auto f_fn = [&](std::span<const double> x) { return gauss(x[0], c, wf); };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(params1d(8, 1e-12, 8), single_gaussian(wk));

  mra::Function leaf = apply(op, f);
  ApplyStats stats;
  mra::Function nsr = apply_nonstandard(op, f, &stats);
  EXPECT_GT(stats.tasks, 0u);

  const double weff2 = wk * wk + wf * wf;
  const double amp = std::sqrt(std::numbers::pi) * wk * wf / std::sqrt(weff2);
  Rng rng(71);
  double leaf_err = 0.0, ns_err = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double x[1] = {rng.uniform(0.1, 0.9)};
    const double expect = amp * std::exp(-(x[0] - c) * (x[0] - c) / weff2);
    leaf_err = std::max(leaf_err, std::abs(leaf.eval(x) - expect));
    ns_err = std::max(ns_err, std::abs(nsr.eval(x) - expect));
  }
  EXPECT_LT(ns_err, leaf_err * 1.5 + 1e-12);
  EXPECT_LT(ns_err, 1e-4);
}

TEST(NsApply, BeatsLeafApplyOnAdaptiveTree) {
  // An adaptive tree with leaves at very different levels: the leaf-level
  // apply projects every contribution at its source level and misses
  // cross-level coupling; the NS form handles it through coarse levels.
  const double c = 0.3, wf = 0.02;  // narrow: deep refinement near c
  const double wk = 0.15;           // broad kernel: long-range coupling
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 6;
  fp.thresh = 1e-7;
  fp.initial_level = 2;
  auto f_fn = [&](std::span<const double> x) { return gauss(x[0], c, wf); };
  mra::Function f = mra::Function::project(f_fn, fp);
  ASSERT_GT(f.max_depth(), 4);  // genuinely adaptive

  SeparatedConvolution op(params1d(6, 1e-10, 10), single_gaussian(wk));
  mra::Function leaf = apply(op, f);
  mra::Function nsr = apply_nonstandard(op, f);

  const double weff2 = wk * wk + wf * wf;
  const double amp = std::sqrt(std::numbers::pi) * wk * wf / std::sqrt(weff2);
  Rng rng(72);
  double leaf_err = 0.0, ns_err = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double x[1] = {rng.uniform(0.05, 0.95)};
    const double expect = amp * std::exp(-(x[0] - c) * (x[0] - c) / weff2);
    leaf_err = std::max(leaf_err, std::abs(leaf.eval(x) - expect));
    ns_err = std::max(ns_err, std::abs(nsr.eval(x) - expect));
  }
  EXPECT_LT(ns_err, leaf_err);
}

TEST(NsApply, ConservesMass) {
  const double wf = 0.06, wk = 0.05;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 7;
  fp.thresh = 1e-8;
  fp.initial_level = 3;
  auto f_fn = [&](std::span<const double> x) { return gauss(x[0], 0.5, wf); };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(params1d(7, 1e-10, 12), single_gaussian(wk));
  mra::Function g = apply_nonstandard(op, f);
  const double int_k = std::sqrt(std::numbers::pi) * wk;
  EXPECT_NEAR(g.integral(), int_k * f.integral(), 1e-6);
}

TEST(NsApply, TwoDimensional) {
  const double wf = 0.1, wk = 0.1, c = 0.5;
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 7;
  fp.thresh = 1e-7;
  fp.initial_level = 3;
  fp.max_level = 4;
  auto f_fn = [&](std::span<const double> x) {
    return gauss(x[0], c, wf) * gauss(x[1], c, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution::Params p;
  p.ndim = 2;
  p.k = 7;
  p.thresh = 1e-8;
  p.max_disp = 8;
  SeparatedConvolution op(p, single_gaussian(wk));
  mra::Function g = apply_nonstandard(op, f);

  const double weff2 = wk * wk + wf * wf;
  const double amp1 = std::sqrt(std::numbers::pi) * wk * wf / std::sqrt(weff2);
  Rng rng(73);
  for (int i = 0; i < 15; ++i) {
    const double x[2] = {rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)};
    double expect = 1.0;
    for (double xi : x)
      expect *= amp1 * std::exp(-(xi - c) * (xi - c) / weff2);
    EXPECT_NEAR(g.eval(x), expect, 5e-3 * amp1 * amp1);
  }
}

TEST(NsApply, PeriodicConservesMassAtTheBoundary) {
  // NS form + torus wrap: a boundary-hugging function keeps its smeared
  // mass (the two features compose).
  const double wf = 0.05, wk = 0.05;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-8;
  fp.initial_level = 3;
  fp.max_level = 4;
  auto f_fn = [&](std::span<const double> x) {
    return gauss(x[0], 0.06, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  auto p = params1d(8, 1e-10, 8);
  p.periodic = true;
  SeparatedConvolution op(p, single_gaussian(wk));
  mra::Function g = apply_nonstandard(op, f);
  const double int_k = std::sqrt(std::numbers::pi) * wk;
  EXPECT_NEAR(g.integral(), int_k * f.integral(), 1e-5);
}

// The NS Apply as it ran before batch_fused_apply, written out: per task
// and term, one general_transform by the kFull blocks added with +c_mu
// and, for n > 0, one by the kSsOnly blocks added with -c_mu.
NsForm::NodeMap composed_nonstandard(const SeparatedConvolution& op,
                                     const NsForm& ns, ApplyStats& stats) {
  using NsPart = SeparatedConvolution::NsPart;
  const std::size_t d = ns.params().ndim;
  const std::size_t k = ns.params().k;
  NsForm::NodeMap result;
  std::vector<MatrixView> mats(d);
  for (const auto& [key, u] : ns.nodes()) {
    const int n = key.level();
    for_each_task(op, key, [&](const mra::Key& to, const Displacement& disp) {
      Tensor r = Tensor::cube(d, 2 * k);
      for (std::size_t mu = 0; mu < op.rank(); ++mu) {
        for (const NsPart part : {NsPart::kFull, NsPart::kSsOnly}) {
          if (part == NsPart::kSsOnly && n == 0) continue;
          for (std::size_t dim = 0; dim < d; ++dim)
            mats[dim] = MatrixView(*op.ns_block(mu, n, disp[dim], part));
          const double c = op.term_coeff(mu);
          r.gaxpy(1.0, general_transform(u, mats),
                  part == NsPart::kFull ? c : -c);
          stats.gemms += d;
        }
      }
      auto [it, inserted] = result.try_emplace(to, std::move(r));
      if (!inserted) it->second += r;
      ++stats.tasks;
    });
  }
  return result;
}

// apply_nonstandard with each node's tasks fed as pointer items, the way it
// ran before its items named displacements: per task the kFull blocks of
// every term and, at n > 0, the kSsOnly ones (ns_block), with the ss terms
// contracting k rows.
mra::Function nonstandard_by_pointer_items(const SeparatedConvolution& op,
                                           const mra::Function& f) {
  using NsPart = SeparatedConvolution::NsPart;
  const std::size_t d = f.ndim();
  const std::size_t k2 = 2 * f.k();
  const std::size_t rank = op.rank();
  std::vector<double> coeffs(2 * rank);
  std::vector<std::size_t> kreds(2 * rank, k2);
  for (std::size_t mu = 0; mu < rank; ++mu) {
    coeffs[mu] = op.term_coeff(mu);
    coeffs[rank + mu] = -op.term_coeff(mu);
    kreds[rank + mu] = f.k();
  }
  const NsForm ns = NsForm::from(f);
  NsForm::NodeMap result;
  for (const auto& [key, u] : ns.nodes()) {
    const int n = key.level();
    const std::size_t terms = n > 0 ? 2 * rank : rank;
    std::vector<linalg::GemmMat> mats;
    std::vector<std::pair<mra::Key, Tensor>> tasks;
    for_each_task(op, key, [&](const mra::Key& to, const Displacement& disp) {
      for (std::size_t t = 0; t < terms; ++t) {
        const NsPart part = t < rank ? NsPart::kFull : NsPart::kSsOnly;
        for (std::size_t dim = 0; dim < d; ++dim)
          mats.push_back(
              {op.ns_block(t % rank, n, disp[dim], part)->data(), k2, k2});
      }
      tasks.emplace_back(to, Tensor::cube(d, k2));
    });
    std::vector<linalg::FusedApplyItem> items;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      items.push_back({u.data(),
                       std::span{mats}.subspan(i * terms * d, terms * d),
                       std::span{coeffs}.first(terms),
                       std::span{kreds}.first(terms), tasks[i].second.data()});
    }
    linalg::batch_fused_apply(d, k2, items, linalg::thread_workspace());
    for (auto& [to, r] : tasks) {
      auto [it, inserted] = result.try_emplace(to, std::move(r));
      if (!inserted) it->second += r;
    }
  }
  return from_nonstandard(result, f.params());
}

TEST(NsApply, DisplacementItemsMatchPointerItemsBitwise) {
  // apply_nonstandard's items name their displacements over the level's
  // nonstandard table (kFull rows, then kSsOnly rows); the same tasks as
  // pointer items must give the same bits and run the same engine work,
  // on an adaptive d = 2 tree and on a d = 1 torus.
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 4;
  fp.thresh = 1e-4;
  fp.initial_level = 1;
  fp.max_level = 4;
  const mra::Function f2 = mra::Function::project(
      [](std::span<const double> x) {
        return gauss(x[0], 0.3, 0.05) * gauss(x[1], 0.6, 0.08);
      },
      fp);
  SeparatedKernel kernel;
  kernel.terms = {{1.0, 100.0}, {-0.4, 1000.0}, {0.3, 10.0}};
  SeparatedConvolution::Params p;
  p.ndim = 2;
  p.k = 4;
  p.thresh = 1e-8;
  p.max_disp = 3;
  const SeparatedConvolution op2(p, kernel);
  const mra::Function f1 = mra::Function::project(
      [](std::span<const double> x) { return gauss(x[0], 0.1, 0.05); },
      [] {
        mra::FunctionParams q;
        q.ndim = 1;
        q.k = 6;
        q.thresh = 1e-8;
        q.initial_level = 2;
        return q;
      }());
  auto p1 = params1d(6, 1e-10, 8);
  p1.periodic = true;
  const SeparatedConvolution op1(p1, single_gaussian(0.05));
  for (const auto& [op, f] :
       {std::pair<const SeparatedConvolution&, const mra::Function&>{op2, f2},
        {op1, f1}}) {
    const linalg::BatchGemmStats& ws = linalg::thread_workspace().stats();
    const linalg::BatchGemmStats before = ws;
    const mra::Function by_disp = apply_nonstandard(op, f);
    const linalg::BatchGemmStats mid = ws;
    const mra::Function by_pointer = nonstandard_by_pointer_items(op, f);
    ASSERT_EQ(by_disp.num_nodes(), by_pointer.num_nodes());
    for (const auto& [key, node] : by_disp.nodes()) {
      const Tensor& x = node.coeffs;
      const Tensor& y = by_pointer.nodes().at(key).coeffs;
      ASSERT_EQ(x.size(), y.size());
      if (x.size() == 0) continue;  // interior node
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(double)),
                0);
    }
    EXPECT_EQ(mid.packed_gemms - before.packed_gemms,
              ws.packed_gemms - mid.packed_gemms);
    EXPECT_EQ(mid.prefix_nodes - before.prefix_nodes,
              ws.prefix_nodes - mid.prefix_nodes);
    EXPECT_EQ(mid.flops - before.flops, ws.flops - mid.flops);
  }
}

TEST(NsApply, BatchedEngineMatchesPerTermComposition) {
  // A d = 2 adaptive tree under a 3-term kernel: apply_nonstandard runs
  // each node's tasks as one batch_fused_apply call (2M stacked terms,
  // the ss ones contracted over k rows). It must agree with the per-term
  // composition within 1e-12 of the result's largest magnitude, and count
  // the same logical work.
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 5;
  fp.thresh = 1e-5;
  fp.initial_level = 1;
  fp.max_level = 5;
  auto f_fn = [](std::span<const double> x) {
    return gauss(x[0], 0.3, 0.05) * gauss(x[1], 0.6, 0.08);
  };
  const mra::Function f = mra::Function::project(f_fn, fp);
  ASSERT_GT(f.max_depth(), 2);  // adaptive: leaves on several levels
  SeparatedKernel kernel;
  kernel.terms = {{1.0, 100.0}, {-0.4, 1000.0}, {0.3, 10.0}};
  SeparatedConvolution::Params p;
  p.ndim = 2;
  p.k = 5;
  p.thresh = 1e-8;
  p.max_disp = 4;
  const SeparatedConvolution op(p, kernel);

  ApplyStats stats;
  const mra::Function g = apply_nonstandard(op, f, &stats);
  ApplyStats want;
  const NsForm ns = NsForm::from(f);
  const mra::Function ref =
      from_nonstandard(composed_nonstandard(op, ns, want), f.params());

  // Logical work: d GEMMs per term per part per task, so
  // gemms = sum over tasks of d * M * (1 + [n > 0]).
  std::size_t tasks = 0, gemms = 0, coarsest = 0;
  for (const auto& [key, u] : ns.nodes()) {
    for_each_task(op, key, [&](const mra::Key&, const Displacement&) {
      ++tasks;
      gemms += fp.ndim * op.rank() * (key.level() > 0 ? 2 : 1);
      if (key.level() == 0) ++coarsest;
    });
  }
  ASSERT_GT(coarsest, 0u);
  ASSERT_GT(tasks, coarsest);
  EXPECT_EQ(stats.tasks, tasks);
  EXPECT_EQ(stats.gemms, gemms);
  EXPECT_EQ(want.tasks, tasks);
  EXPECT_EQ(want.gemms, gemms);

  ASSERT_EQ(g.num_nodes(), ref.num_nodes());
  double scale = 0.0;
  for (const mra::Key& key : ref.leaf_keys())
    for (const double x : ref.leaf_coeffs(key).flat())
      scale = std::max(scale, std::abs(x));
  ASSERT_GT(scale, 0.0);
  for (const mra::Key& key : ref.leaf_keys()) {
    const Tensor& got = g.leaf_coeffs(key);
    const Tensor& expect = ref.leaf_coeffs(key);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_LE(max_abs_diff(got, expect), 1e-12 * scale);
  }
}

// The differential tier's nonstandard-form slice: apply_nonstandard
// against the per-term composition on the generated inputs of
// differential.hpp, within 1e-12 of the result's largest magnitude and
// with the same logical work. The NS Apply has no rank reduction, so the
// cases' rank options go unused. A failure names the case's seed.
TEST(NsApplyDifferential, GeneratedInputsMatchPerTermComposition) {
  constexpr std::uint64_t kFirstSeed = 20261019;
  constexpr std::uint64_t kCases = 32;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kCases; ++seed) {
    const DifferentialCase c = draw_case(seed);
    SCOPED_TRACE(describe(seed, c));
    const SeparatedConvolution op(c.params, c.kernel);
    ApplyStats stats, want;
    const mra::Function g = apply_nonstandard(op, c.f, &stats);
    const mra::Function ref = from_nonstandard(
        composed_nonstandard(op, NsForm::from(c.f), want), c.f.params());
    ASSERT_EQ(stats.tasks, want.tasks);
    ASSERT_EQ(stats.gemms, want.gemms);
    const std::vector<mra::Key> keys = ref.leaf_keys();
    ASSERT_EQ(g.leaf_keys(), keys);
    double scale = 0.0;
    for (const mra::Key& key : keys)
      for (const double x : ref.leaf_coeffs(key).flat())
        scale = std::max(scale, std::abs(x));
    for (const mra::Key& key : keys) {
      ASSERT_LE(max_abs_diff(g.leaf_coeffs(key), ref.leaf_coeffs(key)),
                1e-12 * scale)
          << key;
    }
  }
}

// 64-bit hash of a tensor's coefficient bits.
std::uint64_t hash_bits(std::uint64_t h, const Tensor& t) {
  for (const double x : t.flat())
    h = hash_combine(h, std::bit_cast<std::uint64_t>(x));
  return h;
}

// A function's leaf coefficients, hashed in leaf_keys() order.
std::uint64_t hash_leaves(const mra::Function& f) {
  std::uint64_t h = 0;
  for (const mra::Key& key : f.leaf_keys())
    h = hash_bits(h, f.leaf_coeffs(key));
  return h;
}

// The operator blocks that tasks from `sources` read: every term's block
// at each (level, displacement component) a task of theirs names, in
// (level, component, term) order; `ns` picks ns_block's kFull and, above
// level 0, kSsOnly blocks instead of h_block.
std::uint64_t hash_blocks(const SeparatedConvolution& op,
                          const std::vector<mra::Key>& sources, bool ns) {
  using NsPart = SeparatedConvolution::NsPart;
  std::set<std::pair<int, std::int64_t>> read;
  for (const mra::Key& key : sources) {
    for_each_task(op, key, [&](const mra::Key&, const Displacement& disp) {
      for (std::size_t dim = 0; dim < op.params().ndim; ++dim)
        read.insert({key.level(), disp[dim]});
    });
  }
  std::uint64_t h = 0;
  for (const auto& [n, m] : read) {
    for (std::size_t mu = 0; mu < op.rank(); ++mu) {
      if (!ns) {
        h = hash_bits(h, *op.h_block(mu, n, m));
        continue;
      }
      h = hash_bits(h, *op.ns_block(mu, n, m, NsPart::kFull));
      if (n > 0) h = hash_bits(h, *op.ns_block(mu, n, m, NsPart::kSsOnly));
    }
  }
  return h;
}

// Golden hashes of both Apply paths on the first 24 generated inputs of
// differential.hpp (raw coefficients, no projection): ops::apply with the
// case's options and apply_nonstandard, each beside the hash of the
// operator blocks it reads, so a failure says whether the operator or the
// Apply moved. Every other Apply test compares two paths of this code; this
// one holds them to values fixed outside it. The values are IEEE-exact on
// any conforming double arithmetic (the GEMM units compile without FMA
// contraction), so a hash moves only when an output bit does.
TEST(ApplyGolden, OutputsHashToPinnedValues) {
  constexpr std::uint64_t kFirstSeed = 20261019;
  struct Golden {
    std::uint64_t apply, h_blocks, nonstandard, ns_blocks;
  };
  constexpr std::array<Golden, 24> kGolden{{
      {0x1629ed1c6f0b3fd8ULL, 0x53fbae19fbc483a7ULL, 0xf3a443bf582e32c6ULL,
       0xf993f4364e3332b4ULL},
      {0xb4d8a30b5a38050cULL, 0x1dd70c581cbd7fcfULL, 0x22597ed492af196dULL,
       0xc796826c199a8368ULL},
      {0xff3c33514e8d417aULL, 0xe9b6bd280ac52074ULL, 0xb6b0b581e66bdb59ULL,
       0xa3da0c1f6df2dfc0ULL},
      {0x1f2d43f01c2196aaULL, 0x48dd394050aad05cULL, 0x1eff9eed20bcd26cULL,
       0x686036e79a7fb4e2ULL},
      {0x4dd012349682daa0ULL, 0xe8463f34b29c6958ULL, 0xc9e4d04fdf7f16beULL,
       0x4458bcd2e9f6884fULL},
      {0x209d2b38b1886981ULL, 0x8271af2cf57ed2e7ULL, 0x0c372d8627afa296ULL,
       0x56e1ff697cece4e2ULL},
      {0x59a1f0b726eca8feULL, 0x69b6cd70101397adULL, 0xd28858831b83d225ULL,
       0x8b23ef41e17d3c8bULL},
      {0x722eddb490f63235ULL, 0x109ab44378e0071bULL, 0xefabd21161cb1045ULL,
       0xb4388d5fb5df8b74ULL},
      {0x65fca8f7a264f2efULL, 0x7d7176f3bc9b7a32ULL, 0x79292d54525c2b2eULL,
       0x061ee84866a991a7ULL},
      {0x8a31e03155d79529ULL, 0x471bbeff2e09bd77ULL, 0xb8458b5d66a06903ULL,
       0x351500952f0eeb5bULL},
      {0xf89c8c228992c466ULL, 0xdc9ba6f5f4147a4dULL, 0x6c44ef67c8dc7630ULL,
       0xbe397fb46832215eULL},
      {0xaf631341e5d941bfULL, 0x14343a24e480ffc6ULL, 0xfe23ffb351253e5dULL,
       0x64685a603381cc6eULL},
      {0xeb4f4197b723dd5aULL, 0x63816e77ecf0f2a0ULL, 0x23c3a2dcea31b2b2ULL,
       0xdd651779f0050578ULL},
      {0x8f2a5e1e0b4854a3ULL, 0x173d538fa5a53ab9ULL, 0xc7a901a4bd5181e6ULL,
       0xb51b14d143da3ca2ULL},
      {0x0b4d0f4349218e4cULL, 0xb25a0f3ef8fea5d4ULL, 0x41b8ce6894b6bee7ULL,
       0x851fb87993be57c8ULL},
      {0x2115353b4bdda1d3ULL, 0x22706749e1a94638ULL, 0xa0cc6b7434b61e53ULL,
       0x3db9df51131de3aaULL},
      {0x5e4e34bae4f97793ULL, 0x3108ab70125af998ULL, 0xb0ef0581a500ba99ULL,
       0x43ef3832cd323bb8ULL},
      {0x6b0649243e29d04fULL, 0x21e74dc5fb247bc7ULL, 0x7530d728240fa7afULL,
       0x8c517af0d3344bdaULL},
      {0xf24b47536262e54dULL, 0xf4bf565b51e2dfb7ULL, 0x28aec9ce4204dabfULL,
       0xf174c3e592258ea5ULL},
      {0xe7a06338df9fcafeULL, 0x78188eece32f1cb4ULL, 0x2117c40dd9c68445ULL,
       0x8d13874a185eb5eeULL},
      {0xdaf33c9fe024c74fULL, 0x5231c756af3886b8ULL, 0xc3fc3898b74698ceULL,
       0xd9dbc250b557409eULL},
      {0xe4eb6b4813da4848ULL, 0x87100e766e8c3a40ULL, 0x5cacf6cd5fc54e50ULL,
       0x5ca9812cd359c24cULL},
      {0x946fc30f5620a4beULL, 0xe2960cb3b3de8d2dULL, 0x55be34bfb1986a20ULL,
       0x9e251457d6743524ULL},
      {0x166f12684b6e2856ULL, 0xa6a0c08a2f6c3507ULL, 0x270ec855856b0939ULL,
       0x267d128df5d55c56ULL},
  }};
  for (std::uint64_t i = 0; i < kGolden.size(); ++i) {
    const std::uint64_t seed = kFirstSeed + i;
    const DifferentialCase c = draw_case(seed);
    std::ostringstream trace;
    trace << describe(seed, c) << " rank_tol="
          << (c.opts.rank_reduce ? c.opts.rank_tol : 0.0);
    SCOPED_TRACE(trace.str());
    const SeparatedConvolution op(c.params, c.kernel);
    const NsForm ns = NsForm::from(c.f);
    std::vector<mra::Key> ns_nodes;
    for (const auto& node : ns.nodes()) ns_nodes.push_back(node.first);
    const Golden got{hash_leaves(apply(op, c.f, c.opts)),
                     hash_blocks(op, c.f.leaf_keys(), /*ns=*/false),
                     hash_leaves(apply_nonstandard(op, c.f)),
                     hash_blocks(op, ns_nodes, /*ns=*/true)};
    EXPECT_EQ(got.h_blocks, kGolden[i].h_blocks) << "operator h blocks";
    EXPECT_EQ(got.apply, kGolden[i].apply) << "ops::apply output";
    EXPECT_EQ(got.ns_blocks, kGolden[i].ns_blocks) << "nonstandard blocks";
    EXPECT_EQ(got.nonstandard, kGolden[i].nonstandard)
        << "apply_nonstandard output";
  }
}

TEST(NsApply, RejectsCompressedInput) {
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 5;
  fp.thresh = 1e-4;
  auto f_fn = [](std::span<const double> x) { return gauss(x[0], 0.5, 0.2); };
  mra::Function f = mra::Function::project(f_fn, fp);
  f.compress();
  EXPECT_THROW(NsForm::from(f), Error);
}

}  // namespace
}  // namespace mh::ops
