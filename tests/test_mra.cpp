// Unit and property tests for src/mra: quadrature, basis, two-scale filters,
// keys, and the adaptive Function representation.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "mra/function.hpp"
#include "mra/key.hpp"
#include "mra/legendre.hpp"
#include "mra/quadrature.hpp"
#include "mra/twoscale.hpp"
#include "tensor/transform.hpp"

namespace mh::mra {
namespace {

TEST(Quadrature, WeightsSumToOne) {
  for (std::size_t order : {1u, 2u, 5u, 10u, 20u, 40u, 64u, 128u}) {
    const auto& rule = gauss_legendre(order);
    double sum = 0.0;
    for (double w : rule.w) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-14) << "order=" << order;
  }
}

TEST(Quadrature, NodesInsideUnitIntervalAscending) {
  const auto& rule = gauss_legendre(16);
  for (std::size_t i = 0; i < rule.x.size(); ++i) {
    EXPECT_GT(rule.x[i], 0.0);
    EXPECT_LT(rule.x[i], 1.0);
    if (i) {
      EXPECT_GT(rule.x[i], rule.x[i - 1]);
    }
  }
}

class QuadratureExactness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuadratureExactness, IntegratesPolynomialsExactly) {
  const std::size_t order = GetParam();
  const auto& rule = gauss_legendre(order);
  // Exact for x^p with p <= 2*order - 1: integral over [0,1] is 1/(p+1).
  for (std::size_t p = 0; p <= 2 * order - 1; ++p) {
    double acc = 0.0;
    for (std::size_t q = 0; q < order; ++q)
      acc += rule.w[q] * std::pow(rule.x[q], static_cast<double>(p));
    EXPECT_NEAR(acc, 1.0 / static_cast<double>(p + 1), 1e-13)
        << "order=" << order << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, QuadratureExactness,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 20, 30));

TEST(Quadrature, ConvergesOnSmoothNonPolynomial) {
  const auto& rule = gauss_legendre(24);
  double acc = 0.0;
  for (std::size_t q = 0; q < rule.x.size(); ++q)
    acc += rule.w[q] * std::exp(rule.x[q]);
  EXPECT_NEAR(acc, std::numbers::e - 1.0, 1e-14);
}

TEST(Quadrature, RejectsBadOrder) {
  EXPECT_THROW(gauss_legendre(0), Error);
  EXPECT_THROW(gauss_legendre(4096), Error);
}

TEST(Legendre, OrthonormalOnUnitInterval) {
  const std::size_t k = 8;
  const auto& rule = gauss_legendre(k + 2);
  std::vector<double> gram(k * k, 0.0);
  std::vector<double> phi(k);
  for (std::size_t q = 0; q < rule.x.size(); ++q) {
    legendre_scaling(rule.x[q], phi);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        gram[i * k + j] += rule.w[q] * phi[i] * phi[j];
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j)
      EXPECT_NEAR(gram[i * k + j], i == j ? 1.0 : 0.0, 1e-12)
          << "i=" << i << " j=" << j;
}

TEST(Legendre, KnownLowOrderValues) {
  // phi_0 = 1, phi_1 = sqrt(3)(2x-1), phi_2 = sqrt(5)(6x^2-6x+1).
  std::vector<double> phi(3);
  legendre_scaling(0.25, phi);
  EXPECT_NEAR(phi[0], 1.0, 1e-15);
  EXPECT_NEAR(phi[1], std::sqrt(3.0) * (-0.5), 1e-15);
  EXPECT_NEAR(phi[2], std::sqrt(5.0) * (6 * 0.0625 - 1.5 + 1.0), 1e-14);
}

class TwoScaleK : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TwoScaleK, FilterMatrixIsOrthogonal) {
  const std::size_t k = GetParam();
  const auto& ts = two_scale(k);
  const std::size_t n = 2 * k;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < n; ++c)
        acc += ts.w.at({i, c}) * ts.w.at({j, c});
      EXPECT_NEAR(acc, i == j ? 1.0 : 0.0, 1e-11) << "k=" << k;
    }
  }
}

TEST_P(TwoScaleK, RefinementRelationHolds) {
  // phi_i(x) = sqrt(2) sum_j [ h0(i,j) phi_j(2x) (x<1/2)
  //                          + h1(i,j) phi_j(2x-1) (x>=1/2) ]
  const std::size_t k = GetParam();
  const auto& ts = two_scale(k);
  std::vector<double> phi(k), phic(k);
  for (double x : {0.1, 0.3, 0.45, 0.55, 0.8, 0.95}) {
    legendre_scaling(x, phi);
    const bool left = x < 0.5;
    legendre_scaling(left ? 2 * x : 2 * x - 1, phic);
    const Tensor& h = left ? ts.h0 : ts.h1;
    for (std::size_t i = 0; i < k; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < k; ++j) acc += h.at({i, j}) * phic[j];
      EXPECT_NEAR(std::sqrt(2.0) * acc, phi[i], 1e-11)
          << "k=" << k << " x=" << x << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TwoScaleK,
                         ::testing::Values(1, 2, 3, 5, 8, 10, 14, 20, 30));

TEST(Key, RootAndChildren) {
  const Key root = Key::root(3);
  EXPECT_EQ(root.level(), 0);
  EXPECT_EQ(root.num_children(), 8u);
  const Key c5 = root.child(5);  // bits: dim0=1, dim1=0, dim2=1
  EXPECT_EQ(c5.level(), 1);
  EXPECT_EQ(c5.translation(0), 1);
  EXPECT_EQ(c5.translation(1), 0);
  EXPECT_EQ(c5.translation(2), 1);
  EXPECT_EQ(c5.parent(), root);
  EXPECT_EQ(c5.child_index(), 5u);
}

TEST(Key, ChildParentRoundTripAllIndices) {
  const Key root = Key::root(4);
  for (std::size_t c = 0; c < root.num_children(); ++c) {
    const Key child = root.child(c);
    EXPECT_EQ(child.parent(), root);
    EXPECT_EQ(child.child_index(), c);
  }
}

TEST(Key, NeighborInsideAndOutsideGrid) {
  const std::int64_t l[2] = {1, 2};
  const Key key(2, 2, l);  // grid size 4
  Key out;
  const std::int64_t d1[2] = {2, 1};
  EXPECT_TRUE(key.neighbor(d1, out));
  EXPECT_EQ(out.translation(0), 3);
  EXPECT_EQ(out.translation(1), 3);
  const std::int64_t d2[2] = {3, 0};  // 1+3 = 4 out of range
  EXPECT_FALSE(key.neighbor(d2, out));
  const std::int64_t d3[2] = {-1, -2};
  EXPECT_TRUE(key.neighbor(d3, out));
  EXPECT_EQ(out.translation(0), 0);
  EXPECT_EQ(out.translation(1), 0);
  const std::int64_t d4[2] = {-2, 0};  // 1 - 2 < 0: off the grid
  EXPECT_FALSE(key.neighbor(d4, out));
}

TEST(Key, HashDistinguishesLevelAndTranslation) {
  const Key root = Key::root(2);
  const Key a = root.child(0);
  const Key b = root.child(1);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(root.hash(), a.hash());
  EXPECT_EQ(a.hash(), root.child(0).hash());
}

TEST(Key, RejectsInvalidConstruction) {
  const std::int64_t l[1] = {2};
  EXPECT_THROW(Key(1, 1, l), Error);  // translation 2 needs level >= 2
  const std::int64_t neg[1] = {-1};
  EXPECT_THROW(Key(1, 3, neg), Error);
}

TEST(Blocks, GatherExtractRoundTrip) {
  Rng rng(11);
  const std::size_t d = 3, k = 3;
  std::vector<Tensor> children(1u << d);
  for (auto& c : children) {
    c = Tensor::cube(d, k);
    for (auto& x : c.flat()) x = rng.uniform(-1.0, 1.0);
  }
  Tensor super = gather_children(children, d, k);
  EXPECT_EQ(super.dim(0), 2 * k);
  for (std::size_t c = 0; c < children.size(); ++c) {
    Tensor back = extract_child_block(super, c, k);
    EXPECT_LT(max_abs_diff(back, children[c]), 1e-15);
  }
}

TEST(Blocks, LowCornerSetAndGet) {
  const std::size_t d = 2, k = 2;
  Tensor super = Tensor::cube(d, 2 * k);
  super.fill(5.0);
  Tensor corner = Tensor::cube(d, k);
  corner.fill(1.0);
  set_low_corner(super, corner);
  Tensor got = extract_low_corner(super, k);
  EXPECT_LT(max_abs_diff(got, corner), 1e-15);
  // Elements outside the corner untouched.
  EXPECT_DOUBLE_EQ(super.at({0, 3}), 5.0);
  EXPECT_DOUBLE_EQ(super.at({3, 3}), 5.0);
}

double gaussian1d(double x, double c, double w) {
  const double u = (x - c) / w;
  return std::exp(-u * u);
}

ScalarFn smooth_bump(std::size_t d) {
  return [d](std::span<const double> x) {
    double v = 1.0;
    for (std::size_t m = 0; m < d; ++m) v *= gaussian1d(x[m], 0.5, 0.2);
    return v;
  };
}

TEST(Function, ProjectionEvaluatesAccurately) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 8;
  p.thresh = 1e-7;
  p.initial_level = 2;
  Function f = Function::project(smooth_bump(2), p);
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const double x[2] = {rng.next_double(), rng.next_double()};
    const double expect = smooth_bump(2)(x);
    EXPECT_NEAR(f.eval(x), expect, 1e-6) << "x=(" << x[0] << "," << x[1] << ")";
  }
}

TEST(Function, ProjectionRefinesWherefunctionIsSharp) {
  // An off-center narrow spike forces deeper refinement near the spike.
  FunctionParams p;
  p.ndim = 1;
  p.k = 6;
  p.thresh = 1e-6;
  p.initial_level = 1;
  p.max_level = 14;
  auto spike = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.7, 0.01);
  };
  Function f = Function::project(spike, p);
  // Leaves near the spike must be deeper than leaves far away.
  int depth_near = 0, depth_far = 100;
  for (const Key& key : f.leaf_keys()) {
    const double lo = static_cast<double>(key.translation(0)) /
                      std::pow(2.0, key.level());
    const double hi = lo + std::pow(2.0, -key.level());
    if (lo <= 0.7 && 0.7 <= hi) depth_near = std::max(depth_near, key.level());
    if (hi < 0.3) depth_far = std::min(depth_far, key.level());
  }
  EXPECT_GT(depth_near, depth_far + 2);
}

TEST(Function, CompressReconstructRoundTrip) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 6;
  p.thresh = 1e-6;
  Function f = Function::project(smooth_bump(2), p);

  // Snapshot leaf coefficients.
  std::vector<std::pair<Key, Tensor>> before;
  for (const Key& key : f.leaf_keys()) before.emplace_back(key, f.leaf_coeffs(key));

  f.compress();
  EXPECT_TRUE(f.compressed());
  f.reconstruct();
  EXPECT_FALSE(f.compressed());

  for (const auto& [key, coeffs] : before) {
    EXPECT_LT(max_abs_diff(f.leaf_coeffs(key), coeffs), 1e-11);
  }
}

TEST(Function, NormIsFormIndependent) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 7;
  p.thresh = 1e-6;
  Function f = Function::project(smooth_bump(2), p);
  const double n_rec = f.norm2();
  f.compress();
  const double n_comp = f.norm2();
  EXPECT_NEAR(n_rec, n_comp, 1e-10 * n_rec);
  // And matches the analytic L2 norm of the product Gaussian reasonably.
  // ||exp(-((x-.5)/.2)^2)||_2^2 over [0,1] ~= w sqrt(pi/2) erf-corrections;
  // compare against high-order quadrature instead of closed form.
  const auto& rule = gauss_legendre(40);
  double i1 = 0.0;
  for (std::size_t q = 0; q < rule.x.size(); ++q) {
    const double g = gaussian1d(rule.x[q], 0.5, 0.2);
    i1 += rule.w[q] * g * g;
  }
  EXPECT_NEAR(n_rec, std::sqrt(i1 * i1), 1e-5);
}

TEST(Function, TruncateDropsNodesBoundsError) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 6;
  p.thresh = 1e-9;  // over-resolve first
  Function f = Function::project(smooth_bump(2), p);
  const std::size_t nodes_before = f.num_nodes();
  f.compress();
  const double tol = 1e-4;
  f.truncate(tol);
  EXPECT_LT(f.num_nodes(), nodes_before);
  f.reconstruct();
  // Error after truncation stays within a small multiple of the tolerance.
  Rng rng(14);
  for (int trial = 0; trial < 30; ++trial) {
    const double x[2] = {rng.next_double(), rng.next_double()};
    EXPECT_NEAR(f.eval(x), smooth_bump(2)(x), 20 * tol);
  }
}

TEST(Function, ScaleScalesValuesAndNorm) {
  FunctionParams p;
  p.ndim = 1;
  p.k = 8;
  p.thresh = 1e-8;
  auto g = [](std::span<const double> x) { return gaussian1d(x[0], 0.5, 0.2); };
  Function f = Function::project(g, p);
  const double n0 = f.norm2();
  f.scale(-2.5);
  EXPECT_NEAR(f.norm2(), 2.5 * n0, 1e-12);
  const double x[1] = {0.37};
  EXPECT_NEAR(f.eval(x), -2.5 * g(x), 1e-6);
}

TEST(Function, AccumulateAndSumDown) {
  FunctionParams p;
  p.ndim = 1;
  p.k = 4;
  p.thresh = 1e-6;
  p.initial_level = 2;  // uniform level-2 tree: 4 leaves
  auto zero = [](std::span<const double>) { return 0.0; };
  Function f = Function::project(zero, p);

  // Accumulate a contribution at an *interior* node (level 1) and at a leaf
  // (level 2); sum_down must push the interior part to the leaves.
  const Key root = Key::root(1);
  const Key mid = root.child(0);         // level 1, covers [0, 1/2)
  const Key leaf = mid.child(1);         // level 2, covers [1/4, 1/2)
  Tensor ct({4});
  ct[0] = std::pow(2.0, -0.5);  // constant 1 on the level-1 box, phi_0 = 1
  f.accumulate(mid, ct);
  Tensor cl({4});
  cl[0] = std::pow(2.0, -1.0);  // constant 1 on the level-2 box
  f.accumulate(leaf, cl);
  f.sum_down();

  // Value: 1 on [0, 1/4), 2 on [1/4, 1/2), 0 on [1/2, 1).
  const double x1[1] = {0.1}, x2[1] = {0.3}, x3[1] = {0.8};
  EXPECT_NEAR(f.eval(x1), 1.0, 1e-12);
  EXPECT_NEAR(f.eval(x2), 2.0, 1e-12);
  EXPECT_NEAR(f.eval(x3), 0.0, 1e-12);
}

Tensor random_cube(std::size_t d, std::size_t k, Rng& rng) {
  Tensor t = Tensor::cube(d, k);
  for (double& x : t.flat()) x = rng.uniform(-1.0, 1.0);
  return t;
}

// The unfilter sum_down used before the low-pass slab, kept as the
// reference: zero-pad s into a (2k)^d supertensor (zero wavelet part) and
// apply the full 2k x 2k filter w on every mode.
Tensor supertensor_unfilter(const Tensor& s, std::size_t k) {
  Tensor v = Tensor::cube(s.ndim(), 2 * k);
  set_low_corner(v, s);
  return transform(v, MatrixView(two_scale(k).w));
}

TEST(SumDown, SlabUnfilterEqualsSupertensorUnfilter) {
  // Random scaling data at two interior levels (the root and its child 0)
  // over a tree whose child 0 is refined to level 2 and whose other level-1
  // boxes are leaves, every leaf carrying data too.
  for (std::size_t d = 1; d <= 4; ++d) {
    const std::size_t k = d == 4 ? 4 : 6;
    FunctionParams p;
    p.ndim = d;
    p.k = k;
    Rng rng(1000 + d);
    const Key root = Key::root(d);
    const Key mid = root.child(0);
    std::unordered_map<Key, Tensor, KeyHash> own;
    own[root] = random_cube(d, k, rng);
    own[mid] = random_cube(d, k, rng);
    for (std::size_t c = 1; c < root.num_children(); ++c)
      own[root.child(c)] = random_cube(d, k, rng);
    for (std::size_t c = 0; c < mid.num_children(); ++c)
      own[mid.child(c)] = random_cube(d, k, rng);
    Function f(p);
    for (const auto& [key, t] : own) f.accumulate(key, t);
    f.sum_down();

    // Reference: the old recursion, s = own + inherited, unfiltered
    // through the supertensor.
    std::unordered_map<Key, Tensor, KeyHash> ref;
    const auto walk = [&](const auto& self, const Key& key,
                          const Tensor& inherited) -> void {
      Tensor s = own.at(key);
      if (!inherited.empty()) s += inherited;
      if (key != root && key != mid) {
        ref[key] = s;
        return;
      }
      const Tensor u = supertensor_unfilter(s, k);
      const Tensor slab = unfilter_scaling(s, k);
      ASSERT_EQ(slab.size(), u.size());
      for (std::size_t i = 0; i < u.size(); ++i)
        ASSERT_EQ(slab[i], u[i]) << "d " << d << " element " << i;
      for (std::size_t c = 0; c < key.num_children(); ++c)
        self(self, key.child(c), extract_child_block(u, c, k));
    };
    walk(walk, root, Tensor{});

    const std::vector<Key> leaves = f.leaf_keys();
    ASSERT_EQ(leaves.size(), ref.size());
    for (const Key& key : leaves) {
      const Tensor& got = f.leaf_coeffs(key);
      const Tensor& want = ref.at(key);
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "d " << d << " element " << i;
    }
  }
}

TEST(SumDown, ZeroSeededAndUnseededTreesAgree) {
  FunctionParams p;
  p.ndim = 3;
  p.k = 5;
  Rng rng(77);
  const Key mid = Key::root(3).child(5);
  const std::vector<std::pair<Key, Tensor>> parts{
      {mid, random_cube(3, 5, rng)},
      {mid.child(2), random_cube(3, 5, rng)},
      {mid.child(6).child(1), random_cube(3, 5, rng)}};
  Function seeded(p), unseeded(p);
  seeded.accumulate(Key::root(3), Tensor::cube(3, 5));
  for (const auto& [key, t] : parts) {
    seeded.accumulate(key, t);
    unseeded.accumulate(key, t);
  }
  seeded.sum_down();
  unseeded.sum_down();
  const std::vector<Key> leaves = unseeded.leaf_keys();
  ASSERT_EQ(seeded.leaf_keys(), leaves);
  for (const Key& key : leaves) {
    const Tensor& a = seeded.leaf_coeffs(key);
    const Tensor& b = unseeded.leaf_coeffs(key);
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

TEST(SumDown, RootlessFunctionEndsAsOneZeroLeaf) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 4;
  Function f(p);
  f.sum_down();
  ASSERT_EQ(f.num_nodes(), 1u);
  const std::vector<Key> leaves = f.leaf_keys();
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0], Key::root(2));
  const Tensor& s = f.leaf_coeffs(leaves[0]);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s.normf(), 0.0);
}

TEST(SumDown, RefinesNonConstantContributionsExactly) {
  // Level-2 scaling coefficients of a smooth function, accumulated at the
  // interior level-2 nodes of a zero level-4 tree: sum_down refines them
  // through two levels of the two-scale relation, which is exact because the
  // scaling spaces nest, so the sum evaluates to the original everywhere.
  FunctionParams p;
  p.ndim = 1;
  p.k = 6;
  p.thresh = 1e-8;
  p.initial_level = 2;
  p.max_level = 2;  // uniform level-2 leaves
  const Function f = Function::project(smooth_bump(1), p);
  ASSERT_EQ(f.num_leaves(), 4u);

  FunctionParams q = p;
  q.initial_level = 4;
  q.max_level = 4;  // uniform level-4 leaves
  Function g =
      Function::project([](std::span<const double>) { return 0.0; }, q);
  ASSERT_EQ(g.num_leaves(), 16u);
  for (const Key& key : f.leaf_keys()) g.accumulate(key, f.leaf_coeffs(key));
  g.sum_down();
  EXPECT_EQ(g.num_leaves(), 16u);
  EXPECT_EQ(g.max_depth(), 4);
  for (int i = 0; i < 64; ++i) {
    const double x[1] = {(i + 0.37) / 64.0};
    EXPECT_NEAR(g.eval(x), f.eval(x), 1e-12) << "x " << x[0];
  }
}

TEST(Function, AccumulateMovesIntoEmptyNodeAndAddsOtherwise) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 3;
  Rng rng(5);
  const Key leaf = Key::root(2).child(1);
  const Tensor a = random_cube(2, 3, rng);
  const Tensor b = random_cube(2, 3, rng);
  Tensor moved = a;
  const double* storage = moved.data();
  Function f(p);
  f.accumulate(leaf, std::move(moved));
  EXPECT_EQ(f.nodes().at(leaf).coeffs.data(), storage);
  f.accumulate(leaf, Tensor(b));
  Tensor want = a;
  want += b;
  EXPECT_EQ(f.nodes().at(leaf).coeffs, want);
  EXPECT_TRUE(f.nodes().at(Key::root(2)).has_children);
}

TEST(Function, FromLeavesBuildsEvaluableTree) {
  FunctionParams p;
  p.ndim = 1;
  p.k = 3;
  p.thresh = 1e-6;
  const Key root = Key::root(1);
  std::vector<std::pair<Key, Tensor>> leaves;
  for (std::size_t c = 0; c < 2; ++c) {
    Tensor t({3});
    t[0] = std::pow(2.0, -0.5) * static_cast<double>(c + 1);  // constants 1, 2
    leaves.emplace_back(root.child(c), t);
  }
  Function f = Function::from_leaves(p, leaves);
  EXPECT_EQ(f.num_leaves(), 2u);
  const double xl[1] = {0.2}, xr[1] = {0.8};
  EXPECT_NEAR(f.eval(xl), 1.0, 1e-12);
  EXPECT_NEAR(f.eval(xr), 2.0, 1e-12);
}

TEST(Function, LeafKeysSortedAndComplete) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 5;
  p.thresh = 1e-5;
  Function f = Function::project(smooth_bump(2), p);
  const auto keys = f.leaf_keys();
  EXPECT_EQ(keys.size(), f.num_leaves());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LE(keys[i - 1].level(), keys[i].level());
  }
  // Leaves tile the domain: the sum of box volumes is 1.
  double vol = 0.0;
  for (const Key& key : keys)
    vol += std::pow(2.0, -key.level() * static_cast<int>(p.ndim));
  EXPECT_NEAR(vol, 1.0, 1e-12);
}

TEST(Function, InnerOfSelfIsNormSquared) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 6;
  p.thresh = 1e-7;
  Function f = Function::project(smooth_bump(2), p);
  f.compress();
  const double n = f.norm2();
  EXPECT_NEAR(inner(f, f), n * n, 1e-12 * n * n + 1e-15);
}

TEST(Function, InnerMatchesQuadrature) {
  FunctionParams p;
  p.ndim = 1;
  p.k = 8;
  p.thresh = 1e-9;
  auto g1 = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.4, 0.15);
  };
  auto g2 = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.55, 0.2);
  };
  Function f1 = Function::project(g1, p);
  Function f2 = Function::project(g2, p);
  f1.compress();
  f2.compress();
  const double got = inner(f1, f2);

  const auto& rule = gauss_legendre(48);
  double expect = 0.0;
  for (std::size_t q = 0; q < rule.x.size(); ++q) {
    const double x[1] = {rule.x[q]};
    expect += rule.w[q] * g1(x) * g2(x);
  }
  EXPECT_NEAR(got, expect, 1e-8);
  // Symmetry.
  EXPECT_DOUBLE_EQ(inner(f1, f2), inner(f2, f1));
}

TEST(Function, InnerIsBilinearAcrossDifferentTrees) {
  FunctionParams p;
  p.ndim = 1;
  p.k = 6;
  p.thresh = 1e-7;
  auto g1 = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.3, 0.05);  // refines deep near 0.3
  };
  auto g2 = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.7, 0.3);  // shallow tree
  };
  Function f1 = Function::project(g1, p);
  Function f2 = Function::project(g2, p);
  Function sum = Function::project(
      [&](std::span<const double> x) { return g1(x) + g2(x); }, p);
  f1.compress();
  f2.compress();
  sum.compress();
  Function probe = Function::project(
      [](std::span<const double> x) { return gaussian1d(x[0], 0.5, 0.25); },
      p);
  probe.compress();
  EXPECT_NEAR(inner(sum, probe), inner(f1, probe) + inner(f2, probe), 1e-7);
}

TEST(Function, InnerRejectsUncompressedOrMismatched) {
  FunctionParams p;
  p.ndim = 1;
  p.k = 5;
  p.thresh = 1e-5;
  Function f = Function::project(smooth_bump(1), p);
  Function g = Function::project(smooth_bump(1), p);
  f.compress();
  EXPECT_THROW(inner(f, g), Error);  // g reconstructed
  g.compress();
  FunctionParams p2 = p;
  p2.k = 6;
  Function h = Function::project(smooth_bump(1), p2);
  h.compress();
  EXPECT_THROW(inner(f, h), Error);
}

TEST(Function, EvalRejectsCompressedAndOutOfDomain) {
  FunctionParams p;
  p.ndim = 1;
  p.k = 4;
  p.thresh = 1e-4;
  Function f = Function::project(smooth_bump(1), p);
  const double bad[1] = {1.5};
  EXPECT_THROW(f.eval(bad), Error);
  f.compress();
  const double ok[1] = {0.5};
  EXPECT_THROW(f.eval(ok), Error);
}

TEST(Function, PolynomialsProjectExactly) {
  // Degree < k polynomials live exactly in the scaling space at any level:
  // projection and evaluation are exact to rounding, the wavelet norms are
  // zero, and truncation collapses the tree to the minimum.
  FunctionParams p;
  p.ndim = 1;
  p.k = 6;
  p.thresh = 1e-10;
  p.initial_level = 3;
  auto poly = [](std::span<const double> x) {
    const double t = x[0];
    return 1.0 - 2.0 * t + 3.0 * t * t - t * t * t * t * t;  // degree 5
  };
  Function f = Function::project(poly, p);
  Rng rng(101);
  for (int i = 0; i < 40; ++i) {
    const double x[1] = {rng.next_double()};
    EXPECT_NEAR(f.eval(x), poly(x), 1e-12);
  }
  // All wavelet content is zero: truncate to the root's children.
  f.compress();
  f.truncate(1e-12);
  EXPECT_EQ(f.num_nodes(), 1u + 2u);  // root + its two children
  f.reconstruct();
  const double x[1] = {0.62};
  EXPECT_NEAR(f.eval(x), poly(x), 1e-12);
}

TEST(Function, PolynomialExactnessInTwoDimensions) {
  FunctionParams p;
  p.ndim = 2;
  p.k = 4;
  p.thresh = 1e-9;
  p.initial_level = 2;
  auto poly = [](std::span<const double> x) {
    return (1.0 + x[0] * x[0]) * (2.0 - x[1] + x[1] * x[1] * x[1]);
  };
  Function f = Function::project(poly, p);
  Rng rng(102);
  for (int i = 0; i < 30; ++i) {
    const double x[2] = {rng.next_double(), rng.next_double()};
    EXPECT_NEAR(f.eval(x), poly(x), 1e-11);
  }
  // The integral is exact too: int (1+x^2) dx * int (2-y+y^3) dy.
  const double ix = 1.0 + 1.0 / 3.0;
  const double iy = 2.0 - 0.5 + 0.25;
  EXPECT_NEAR(f.integral(), ix * iy, 1e-12);
}

TEST(Function, EvalIsContinuousAcrossBoxBoundaries) {
  FunctionParams p;
  p.ndim = 1;
  p.k = 8;
  p.thresh = 1e-8;
  p.initial_level = 3;
  Function f = Function::project(smooth_bump(1), p);
  // Probe pairs straddling dyadic boundaries.
  for (double b : {0.25, 0.5, 0.625, 0.75}) {
    const double lo[1] = {b - 1e-9};
    const double hi[1] = {b + 1e-9};
    EXPECT_NEAR(f.eval(lo), f.eval(hi), 1e-6) << "boundary " << b;
  }
}

TEST(Function, ProjectionConvergesWithK) {
  // Higher k gives smaller evaluation error at the same threshold.
  auto g = smooth_bump(1);
  double prev_err = 1e9;
  for (std::size_t k : {3u, 5u, 8u}) {
    FunctionParams p;
    p.ndim = 1;
    p.k = k;
    p.thresh = 1e-10;
    p.max_level = 8;
    Function f = Function::project(g, p);
    double err = 0.0;
    Rng rng(16);
    for (int trial = 0; trial < 40; ++trial) {
      const double x[1] = {rng.next_double()};
      err = std::max(err, std::abs(f.eval(x) - g(x)));
    }
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-8);
}

}  // namespace
}  // namespace mh::mra
