// Unit tests for src/tensor: Tensor container and mode-wise transforms.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "linalg/batch_gemm.hpp"
#include "tensor/tensor.hpp"
#include "tensor/transform.hpp"

namespace mh {
namespace {

Tensor random_cube(std::size_t d, std::size_t k, Rng& rng) {
  Tensor t = Tensor::cube(d, k);
  for (auto& x : t.flat()) x = rng.uniform(-1.0, 1.0);
  return t;
}

// The rank-reduced chain on a cube: every contraction sums only over the
// first kred values of the contracted index (the paper's §II-D screening).
Tensor reduced_chain(const Tensor& t, std::span<const MatrixView> mats,
                     std::size_t kred) {
  std::array<std::size_t, kMaxTensorDim> shape{};
  std::array<linalg::GemmMat, kMaxTensorDim> gm{};
  for (std::size_t m = 0; m < t.ndim(); ++m) {
    shape[m] = t.dim(m);
    gm[m] = linalg::GemmMat{mats[m].ptr, mats[m].rows, mats[m].cols};
  }
  Tensor r = Tensor::cube(t.ndim(), mats[0].cols);
  linalg::fused_transform_chain({shape.data(), t.ndim()}, t.data(),
                                {gm.data(), t.ndim()}, kred, r.data(),
                                linalg::thread_workspace());
  return r;
}

std::vector<double> identity(std::size_t k) {
  std::vector<double> m(k * k, 0.0);
  for (std::size_t i = 0; i < k; ++i) m[i * k + i] = 1.0;
  return m;
}

TEST(Tensor, ConstructionZeroInitialized) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ndim(), 3u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_EQ(t.dim(2), 4u);
  EXPECT_EQ(t.size(), 24u);
  for (double x : t.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Tensor, CubeFactory) {
  Tensor t = Tensor::cube(4, 5);
  EXPECT_EQ(t.ndim(), 4u);
  EXPECT_EQ(t.size(), 625u);
}

TEST(Tensor, RejectsBadShapes) {
  const std::vector<std::size_t> zero{0};
  const std::vector<std::size_t> toomany(kMaxTensorDim + 1, 2);
  EXPECT_THROW(Tensor(std::span<const std::size_t>{zero}), Error);
  EXPECT_THROW(Tensor(std::span<const std::size_t>{toomany}), Error);
  EXPECT_THROW(Tensor::cube(0, 3), Error);
  // Extent products that wrap around size_t (2^66 and 2^64 elements) must
  // not construct an empty tensor that claims a k^d shape.
  EXPECT_THROW(Tensor::cube(3, std::size_t{1} << 22), Error);
  EXPECT_THROW(Tensor::cube(4, std::size_t{1} << 16), Error);
}

TEST(Tensor, MultiIndexIsRowMajor) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.0;
  EXPECT_DOUBLE_EQ(t[1 * 3 + 2], 7.0);
  EXPECT_DOUBLE_EQ(t.at({1, 2}), 7.0);
}

TEST(Tensor, FillScaleGaxpy) {
  Tensor a({3, 3}), b({3, 3});
  a.fill(2.0);
  b.fill(3.0);
  a.scale(2.0);              // a = 4
  a.gaxpy(1.0, b, 2.0);      // a = 4 + 6 = 10
  for (double x : a.flat()) EXPECT_DOUBLE_EQ(x, 10.0);
  a += b;                    // 13
  for (double x : a.flat()) EXPECT_DOUBLE_EQ(x, 13.0);
  a -= b;                    // 10
  for (double x : a.flat()) EXPECT_DOUBLE_EQ(x, 10.0);
}

TEST(Tensor, GaxpyRejectsShapeMismatch) {
  Tensor a({2, 3}), b({3, 2});
  EXPECT_THROW(a += b, Error);
}

TEST(Tensor, Norms) {
  Tensor t({2, 2});
  t.at({0, 0}) = 3.0;
  t.at({1, 1}) = -4.0;
  EXPECT_DOUBLE_EQ(t.normf(), 5.0);
  EXPECT_DOUBLE_EQ(t.abs_max(), 4.0);
  EXPECT_DOUBLE_EQ(t.sum(), -1.0);
}

TEST(Tensor, ReshapePreservesData) {
  Rng rng(1);
  Tensor t = random_cube(3, 4, rng);
  Tensor m = t.reshaped({16, 4});
  EXPECT_EQ(m.ndim(), 2u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(m[i], t[i]);
  EXPECT_THROW(t.reshaped({5, 5}), Error);
}

TEST(Tensor, EqualityIsElementwise) {
  Rng rng(2);
  Tensor a = random_cube(2, 3, rng);
  Tensor b = a;
  EXPECT_TRUE(a == b);
  b[0] += 1e-9;
  EXPECT_FALSE(a == b);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a({2}), b({2});
  a[0] = 1.0;
  b[0] = 1.5;
  a[1] = -2.0;
  b[1] = -2.25;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
}

TEST(Transform, InnerFirstContractsFirstIndex) {
  // t(2,3), c(2,4): r(3,4) = sum_j t(j, a) c(j, b).
  Tensor t({2, 3});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<double>(i + 1);
  std::vector<double> c(2 * 4);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = static_cast<double>(i);
  Tensor r = inner_first(t, MatrixView(c.data(), 2, 4));
  ASSERT_EQ(r.ndim(), 2u);
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_EQ(r.dim(1), 4u);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      const double expect = t.at({0, a}) * c[b] + t.at({1, a}) * c[4 + b];
      EXPECT_NEAR(r.at({a, b}), expect, 1e-13);
    }
  }
}

TEST(Transform, IdentityOperatorIsNoop) {
  Rng rng(3);
  for (std::size_t d : {1u, 2u, 3u, 4u}) {
    Tensor t = random_cube(d, 5, rng);
    const auto eye = identity(5);
    Tensor r = transform(t, MatrixView(eye.data(), 5, 5));
    EXPECT_LT(max_abs_diff(t, r), 1e-13) << "d=" << d;
  }
}

TEST(Transform, MatchesNaiveFormulaIn2D) {
  // r(i1,i2) = sum_{j1,j2} t(j1,j2) c1(j1,i1) c2(j2,i2)
  Rng rng(4);
  const std::size_t k = 4;
  Tensor t = random_cube(2, k, rng);
  std::vector<double> c1(k * k), c2(k * k);
  for (auto& x : c1) x = rng.uniform(-1.0, 1.0);
  for (auto& x : c2) x = rng.uniform(-1.0, 1.0);
  std::array<MatrixView, 2> mats{MatrixView(c1.data(), k, k),
                                 MatrixView(c2.data(), k, k)};
  Tensor r = general_transform(t, mats);
  for (std::size_t i1 = 0; i1 < k; ++i1) {
    for (std::size_t i2 = 0; i2 < k; ++i2) {
      double expect = 0.0;
      for (std::size_t j1 = 0; j1 < k; ++j1)
        for (std::size_t j2 = 0; j2 < k; ++j2)
          expect += t.at({j1, j2}) * c1[j1 * k + i1] * c2[j2 * k + i2];
      EXPECT_NEAR(r.at({i1, i2}), expect, 1e-12);
    }
  }
}

TEST(Transform, MatchesNaiveFormulaIn3D) {
  Rng rng(5);
  const std::size_t k = 3;
  Tensor t = random_cube(3, k, rng);
  std::vector<std::vector<double>> cs(3, std::vector<double>(k * k));
  for (auto& c : cs)
    for (auto& x : c) x = rng.uniform(-1.0, 1.0);
  std::array<MatrixView, 3> mats{MatrixView(cs[0].data(), k, k),
                                 MatrixView(cs[1].data(), k, k),
                                 MatrixView(cs[2].data(), k, k)};
  Tensor r = general_transform(t, mats);
  for (std::size_t i1 = 0; i1 < k; ++i1)
    for (std::size_t i2 = 0; i2 < k; ++i2)
      for (std::size_t i3 = 0; i3 < k; ++i3) {
        double expect = 0.0;
        for (std::size_t j1 = 0; j1 < k; ++j1)
          for (std::size_t j2 = 0; j2 < k; ++j2)
            for (std::size_t j3 = 0; j3 < k; ++j3)
              expect += t.at({j1, j2, j3}) * cs[0][j1 * k + i1] *
                        cs[1][j2 * k + i2] * cs[2][j3 * k + i3];
        EXPECT_NEAR(r.at({i1, i2, i3}), expect, 1e-12);
      }
}

TEST(Transform, SameOperatorEqualsGeneralWithCopies) {
  Rng rng(6);
  const std::size_t k = 6;
  Tensor t = random_cube(3, k, rng);
  std::vector<double> c(k * k);
  for (auto& x : c) x = rng.uniform(-1.0, 1.0);
  const MatrixView cv(c.data(), k, k);
  std::array<MatrixView, 3> mats{cv, cv, cv};
  EXPECT_LT(max_abs_diff(transform(t, cv), general_transform(t, mats)), 1e-12);
}

TEST(Transform, NonSquareOperatorChangesExtent) {
  Rng rng(7);
  Tensor t = random_cube(2, 3, rng);
  std::vector<double> c(3 * 5);
  for (auto& x : c) x = rng.uniform(-1.0, 1.0);
  const MatrixView cv(c.data(), 3, 5);
  Tensor r = transform(t, cv);
  // Note: transform applies cv per mode; after two modes both extents are 5.
  EXPECT_EQ(r.dim(0), 5u);
  EXPECT_EQ(r.dim(1), 5u);
}

TEST(Transform, VectorCase) {
  Tensor t({3});
  t[0] = 1.0;
  t[1] = 2.0;
  t[2] = 3.0;
  std::vector<double> c = {1.0, 4.0, 2.0, 5.0, 3.0, 6.0};  // (3 x 2) row-major
  Tensor r = inner_first(t, MatrixView(c.data(), 3, 2));
  ASSERT_EQ(r.ndim(), 1u);
  ASSERT_EQ(r.dim(0), 2u);
  // r(i) = sum_j t(j) c(j,i)
  EXPECT_DOUBLE_EQ(r[0], 1.0 * 1 + 2.0 * 2 + 3.0 * 3);
  EXPECT_DOUBLE_EQ(r[1], 1.0 * 4 + 2.0 * 5 + 3.0 * 6);
}

TEST(Transform, ReducedEqualsFullAtFullRank) {
  Rng rng(8);
  const std::size_t k = 5;
  Tensor t = random_cube(3, k, rng);
  std::vector<std::vector<double>> cs(3, std::vector<double>(k * k));
  for (auto& c : cs)
    for (auto& x : c) x = rng.uniform(-1.0, 1.0);
  std::array<MatrixView, 3> mats{MatrixView(cs[0].data(), k, k),
                                 MatrixView(cs[1].data(), k, k),
                                 MatrixView(cs[2].data(), k, k)};
  Tensor full = general_transform(t, mats);
  Tensor red = reduced_chain(t, mats, k);
  EXPECT_LT(max_abs_diff(full, red), 1e-12);
}

TEST(Transform, ReducedIsExactWhenTailIsZero) {
  // If rows kred.. of every operator's contraction index see only zeros in
  // the tensor, the reduced transform is exact.
  const std::size_t k = 4, kred = 2;
  Tensor t = Tensor::cube(2, k);
  // Only the leading kred x kred block of t is nonzero.
  for (std::size_t i = 0; i < kred; ++i)
    for (std::size_t j = 0; j < kred; ++j)
      t.at({i, j}) = static_cast<double>(1 + i + j);
  Rng rng(9);
  std::vector<double> c(k * k);
  for (auto& x : c) x = rng.uniform(-1.0, 1.0);
  // Zero the rows >= kred of the operator so the full transform also only
  // sees the leading block (making the comparison exact).
  for (std::size_t r = kred; r < k; ++r)
    for (std::size_t j = 0; j < k; ++j) c[r * k + j] = 0.0;
  const MatrixView cv(c.data(), k, k);
  std::array<MatrixView, 2> mats{cv, cv};
  Tensor full = general_transform(t, mats);
  Tensor red = reduced_chain(t, mats, kred);
  EXPECT_LT(max_abs_diff(full, red), 1e-13);
}

TEST(Transform, FlopCountFormula) {
  // d GEMMs of (k^{d-1}, k) x (k, k): 2 d k^{d+1}.
  EXPECT_DOUBLE_EQ(transform_flops(3, 10), 3 * 2.0 * 100 * 10 * 10);
  EXPECT_DOUBLE_EQ(transform_flops(4, 14),
                   4 * 2.0 * (14.0 * 14 * 14) * 14 * 14);
}

}  // namespace
}  // namespace mh
