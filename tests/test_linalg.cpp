// Unit tests for src/linalg: GEMM kernels and the batched GEMM engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "linalg/batch_gemm.hpp"
#include "linalg/batch_gemm_kernels.hpp"
#include "linalg/gemm.hpp"

namespace mh::linalg {
namespace {

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  Rng& rng) {
  std::vector<double> m(rows * cols);
  for (double& x : m) x = rng.uniform(-1.0, 1.0);
  return m;
}

// Naive reference: c(i,j) += a(i,k) b(k,j).
void ref_mxm(std::size_t di, std::size_t dj, std::size_t dk, double* c,
             const double* a, const double* b) {
  for (std::size_t i = 0; i < di; ++i)
    for (std::size_t j = 0; j < dj; ++j)
      for (std::size_t k = 0; k < dk; ++k)
        c[i * dj + j] += a[i * dk + k] * b[k * dj + j];
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MxmMatchesReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 10007 + dj * 101 + dk);
  const auto a = random_matrix(di, dk, rng);
  const auto b = random_matrix(dk, dj, rng);
  std::vector<double> c(di * dj, 0.5), ref(di * dj, 0.5);
  mxm(di, dj, dk, c.data(), a.data(), b.data());
  ref_mxm(di, dj, dk, ref.data(), a.data(), b.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST_P(GemmShapes, MTxmMatchesTransposedReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 7 + dj * 13 + dk * 17);
  const auto at = random_matrix(dk, di, rng);  // a stored transposed
  const auto b = random_matrix(dk, dj, rng);
  // Build the untransposed a for the reference.
  std::vector<double> a(static_cast<std::size_t>(di) * dk);
  for (int k = 0; k < dk; ++k)
    for (int i = 0; i < di; ++i)
      a[static_cast<std::size_t>(i) * dk + k] =
          at[static_cast<std::size_t>(k) * di + i];
  std::vector<double> c(static_cast<std::size_t>(di) * dj, 0.0),
      ref(static_cast<std::size_t>(di) * dj, 0.0);
  mTxm(di, dj, dk, c.data(), at.data(), b.data());
  ref_mxm(di, dj, dk, ref.data(), a.data(), b.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST_P(GemmShapes, MxmTMatchesReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di + dj + dk);
  const auto a = random_matrix(di, dk, rng);
  const auto bt = random_matrix(dj, dk, rng);  // b stored transposed
  std::vector<double> b(static_cast<std::size_t>(dk) * dj);
  for (int j = 0; j < dj; ++j)
    for (int k = 0; k < dk; ++k)
      b[static_cast<std::size_t>(k) * dj + j] =
          bt[static_cast<std::size_t>(j) * dk + k];
  std::vector<double> c(static_cast<std::size_t>(di) * dj, 0.0),
      ref(static_cast<std::size_t>(di) * dj, 0.0);
  mxmT(di, dj, dk, c.data(), a.data(), bt.data());
  ref_mxm(di, dj, dk, ref.data(), a.data(), b.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{8, 8, 8}, std::tuple{10, 10, 10},
                      std::tuple{100, 10, 10},   // (k^2, k) x (k, k), k=10
                      std::tuple{9, 17, 4}, std::tuple{2744, 14, 14},
                      std::tuple{1, 16, 32}));

TEST(Gemm, AccumulatesIntoExistingC) {
  // c starts nonzero; kernels must add, not overwrite.
  const double a[1] = {2.0};
  const double b[1] = {3.0};
  double c[1] = {10.0};
  mxm(1, 1, 1, c, a, b);
  EXPECT_DOUBLE_EQ(c[0], 16.0);
}

TEST(Gemm, ReducedEqualsFullWhenKredIsDimk) {
  Rng rng(99);
  const std::size_t di = 6, dj = 5, dk = 8;
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  std::vector<double> full(di * dj, 0.0), red(di * dj, 0.0);
  std::vector<double> ref = red;
  mTxm(di, dj, dk, full.data(), at.data(), b.data());
  mTxm_packed(di, dj, dk, dk, red.data(), at.data(), b.data(),
              thread_workspace());
  mTxm_reduced_ref(di, dj, dk, dk, ref.data(), at.data(), b.data());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(full[i], red[i], 1e-13);
    EXPECT_EQ(red[i], ref[i]);
  }
}

TEST(Gemm, ReducedContractsOnlyLeadingRows) {
  // With kred = 1 only the first row of a^T and b contribute.
  const std::size_t di = 2, dj = 2, dk = 3;
  const double at[dk * di] = {1, 2, 100, 100, 100, 100};
  const double b[dk * dj] = {3, 4, 100, 100, 100, 100};
  double c[di * dj] = {};
  double ref[di * dj] = {};
  mTxm_packed(di, dj, dk, 1, c, at, b, thread_workspace());
  mTxm_reduced_ref(di, dj, dk, 1, ref, at, b);
  for (std::size_t i = 0; i < di * dj; ++i) EXPECT_EQ(c[i], ref[i]);
  EXPECT_DOUBLE_EQ(c[0], 3.0);   // 1*3
  EXPECT_DOUBLE_EQ(c[1], 4.0);   // 1*4
  EXPECT_DOUBLE_EQ(c[2], 6.0);   // 2*3
  EXPECT_DOUBLE_EQ(c[3], 8.0);   // 2*4
}

TEST(Gemm, ReducedClampsOversizedKred) {
  Rng rng(1);
  const std::size_t d = 4;
  const auto at = random_matrix(d, d, rng);
  const auto b = random_matrix(d, d, rng);
  std::vector<double> c1(d * d, 0.0), c2(d * d, 0.0), ref(d * d, 0.0);
  mTxm_packed(d, d, d, d + 10, c1.data(), at.data(), b.data(),
              thread_workspace());
  mTxm_reduced_ref(d, d, d, d + 10, ref.data(), at.data(), b.data());
  mTxm(d, d, d, c2.data(), at.data(), b.data());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-13);
    EXPECT_EQ(c1[i], ref[i]);
  }
}

TEST(Gemm, FlopCount) {
  EXPECT_DOUBLE_EQ(gemm_flops(100, 10, 10), 2.0 * 100 * 10 * 10);
}

// --- batch-GEMM engine (linalg/batch_gemm.hpp) -------------------------
//
// The engine's contract is BITWISE agreement with the scalar reference
// kernels (same IEEE operation order, no FMA), so these tests compare with
// EXPECT_EQ on doubles, not tolerances.

// Edge shapes around the 4x8 register tile: dims in {1, 2, tile-1, tile,
// tile+1} plus the paper's (k^{d-1}, k) shapes; k in {1, 2, 3, 4, 5} and
// odd j remainders exercise the 4-wide tile and the column-vector tail.
class PackedGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PackedGemmShapes, PackedBitwiseEqualsScalarReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 131 + dj * 17 + dk * 3);
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  // Nonzero c: the final "c += acc" add must match too.
  std::vector<double> c(static_cast<std::size_t>(di) * dj, 0.25);
  std::vector<double> ref = c;
  mTxm(di, dj, dk, c.data(), at.data(), b.data());
  mTxm_ref(di, dj, dk, ref.data(), at.data(), b.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(c[i], ref[i]) << "element " << i << " differs bitwise";
  }
}

TEST_P(PackedGemmShapes, ReducedBitwiseEqualsScalarReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 29 + dj * 31 + dk * 37);
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  for (std::size_t kred : {std::size_t{0}, std::size_t{1},
                           static_cast<std::size_t>(dk) / 2,
                           static_cast<std::size_t>(dk)}) {
    std::vector<double> c(static_cast<std::size_t>(di) * dj, -0.125);
    std::vector<double> ref = c;
    mTxm_packed(di, dj, dk, kred, c.data(), at.data(), b.data(),
                thread_workspace());
    mTxm_reduced_ref(di, dj, dk, kred, ref.data(), at.data(), b.data());
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], ref[i]) << "kred " << kred << " element " << i;
    }
  }
}

TEST_P(PackedGemmShapes, ExplicitWorkspaceMatchesThreadWorkspace) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di + dj * 1009 + dk * 7);
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  std::vector<double> c1(static_cast<std::size_t>(di) * dj, 0.0);
  std::vector<double> c2 = c1;
  GemmWorkspace ws;
  mTxm_packed(di, dj, dk, dk, c1.data(), at.data(), b.data(), ws);
  mTxm_packed(di, dj, dk, dk, c2.data(), at.data(), b.data(),
              thread_workspace());
  EXPECT_GE(ws.stats().packed_gemms, 1u);
  for (std::size_t i = 0; i < c1.size(); ++i) ASSERT_EQ(c1[i], c2[i]);
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, PackedGemmShapes,
    ::testing::Values(
        // i/j/k in {1, 2, tile±1} around the 4-row / 8-column tile.
        std::tuple{1, 1, 1}, std::tuple{2, 2, 2}, std::tuple{3, 7, 5},
        std::tuple{4, 8, 10}, std::tuple{5, 9, 11}, std::tuple{3, 9, 1},
        std::tuple{5, 7, 2}, std::tuple{4, 4, 4}, std::tuple{2, 12, 30},
        std::tuple{7, 3, 13},
        // Paper shapes (k^{d-1}, k) x (k, k) incl. non-multiples of 4/8.
        std::tuple{100, 10, 10}, std::tuple{196, 14, 14},
        std::tuple{2744, 14, 14}, std::tuple{400, 20, 20},
        std::tuple{841, 29, 29}, std::tuple{1, 16, 32}));

// Column-tail shapes: every dj mod 4 remainder (1..3 leftover columns, one
// or two per pass) at the benchmark's k = 5 and k = 10, for 1-row, partial
// 4-row and long panels. Each shape runs at the full contraction length
// kc = dk and at the reduced kc = dk / 2 and 1 of rank-reduced blocks.
class PackedTailShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(PackedTailShapes, PackedAndPortableBitwiseEqualReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 7919 + dj * 37 + dk);
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  std::vector<double> apack(4 * dk);
  GemmWorkspace ws;
  for (const std::size_t kc : {dk, dk / 2, std::size_t{1}}) {
    std::vector<double> ref(di * dj, 0.375);
    std::vector<double> packed = ref;
    std::vector<double> portable = ref;
    if (kc == dk) {
      mTxm_ref(di, dj, dk, ref.data(), at.data(), b.data());
    } else {
      mTxm_reduced_ref(di, dj, dk, kc, ref.data(), at.data(), b.data());
    }
    mTxm_packed(di, dj, dk, kc, packed.data(), at.data(), b.data(), ws);
    detail::mtxm_portable(di, dj, kc, portable.data(), at.data(), b.data(),
                          apack.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(packed[i], ref[i]) << "kc " << kc << " element " << i;
      ASSERT_EQ(portable[i], ref[i]) << "kc " << kc << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ColumnTails, PackedTailShapes,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 25, 100, 1000),
                       ::testing::Values<std::size_t>(5, 9, 10, 13, 15, 25,
                                                      30),
                       ::testing::Values<std::size_t>(5, 10)));

TEST(BatchGemm, FusedChainBitwiseEqualsSequentialComposition) {
  // One fused pass over a d=3 mode chain must reproduce, bit for bit, the
  // three-call composition through the scalar reference kernel with a
  // freshly zeroed intermediate per mode (the legacy transform path).
  const std::size_t k = 10, rest = k * k, size = k * k * k;
  Rng rng(777);
  const auto src = random_matrix(k, rest, rng);
  const auto h0 = random_matrix(k, k, rng);
  const auto h1 = random_matrix(k, k, rng);
  const auto h2 = random_matrix(k, k, rng);

  std::vector<double> t1(size, 0.0), t2(size, 0.0), ref(size, 0.0);
  mTxm_ref(rest, k, k, t1.data(), src.data(), h0.data());
  mTxm_ref(rest, k, k, t2.data(), t1.data(), h1.data());
  mTxm_ref(rest, k, k, ref.data(), t2.data(), h2.data());

  const std::size_t shape[3] = {k, k, k};
  const GemmMat mats[3] = {{h0.data(), k, k}, {h1.data(), k, k},
                           {h2.data(), k, k}};
  std::vector<double> fused(size, 0.0);
  GemmWorkspace ws;
  fused_transform_chain({shape, 3}, src.data(), {mats, 3}, k, fused.data(),
                        ws);
  for (std::size_t i = 0; i < size; ++i) ASSERT_EQ(fused[i], ref[i]);
}

// The reference of one fused-apply item, by the engine's contract: each
// term's mode-0..d-2 chain through mTxm_reduced_ref with zeroed
// temporaries; the terms stacked along the contraction (A = c_mu * the
// chain's rows 0..kc_mu-1, B = the last block's rows 0..kc_mu-1); ONE
// mTxm_ref over K = sum kc_mu into a zeroed product; then result += it.
std::vector<double> stacked_reference(std::size_t d, std::size_t k,
                                      const double* src,
                                      std::span<const GemmMat> mats,
                                      std::span<const double> coeffs,
                                      std::span<const std::size_t> kreds,
                                      std::vector<double> result) {
  const std::size_t size = result.size(), rest = size / k;
  std::vector<double> a_st, b_st;
  for (std::size_t mu = 0; mu < coeffs.size(); ++mu) {
    const std::size_t kc = kreds.empty() ? k : std::min(kreds[mu], k);
    std::vector<double> cur(src, src + size);
    for (std::size_t m = 0; m + 1 < d; ++m) {
      std::vector<double> next(size, 0.0);
      mTxm_reduced_ref(rest, k, k, kc, next.data(), cur.data(),
                       mats[mu * d + m].ptr);
      cur = std::move(next);
    }
    for (std::size_t e = 0; e < kc * rest; ++e)
      a_st.push_back(coeffs[mu] * cur[e]);
    const double* h = mats[mu * d + d - 1].ptr;
    b_st.insert(b_st.end(), h, h + kc * k);
  }
  std::vector<double> product(size, 0.0);
  mTxm_ref(rest, k, b_st.size() / k, product.data(), a_st.data(),
           b_st.data());
  for (std::size_t e = 0; e < size; ++e) result[e] += product[e];
  return result;
}

// The per-term composition the engine matched bitwise before it stacked
// the last mode: term by term, mode by mode through mTxm_reduced_ref, each
// term added as result + coeff * chain.
std::vector<double> term_by_term_reference(std::size_t d, std::size_t k,
                                           const double* src,
                                           std::span<const GemmMat> mats,
                                           std::span<const double> coeffs,
                                           std::span<const std::size_t> kreds,
                                           std::vector<double> result) {
  const std::size_t size = result.size(), rest = size / k;
  for (std::size_t mu = 0; mu < coeffs.size(); ++mu) {
    const std::size_t kc = kreds.empty() ? k : std::min(kreds[mu], k);
    std::vector<double> cur(src, src + size);
    for (std::size_t m = 0; m < d; ++m) {
      std::vector<double> next(size, 0.0);
      mTxm_reduced_ref(rest, k, k, kc, next.data(), cur.data(),
                       mats[mu * d + m].ptr);
      cur = std::move(next);
    }
    for (std::size_t e = 0; e < size; ++e)
      result[e] = 1.0 * result[e] + coeffs[mu] * cur[e];
  }
  return result;
}

// Stated tolerance between the stacked and the per-term orders: they sum
// the same products in a different order, so they agree to within 1e-12
// of the result's largest magnitude.
void expect_close_to_term_by_term(const std::vector<double>& got,
                                  const std::vector<double>& ref) {
  double scale = 0.0;
  for (const double x : ref) scale = std::max(scale, std::abs(x));
  for (std::size_t e = 0; e < ref.size(); ++e)
    ASSERT_NEAR(got[e], ref[e], 1e-12 * scale) << "element " << e;
}

// One item, its result += sum_mu coeffs[mu] * chain_mu with per-term
// reduced rank, checked bitwise against the stacked product (every term's
// rows in one contraction) and within the stated tolerance of the
// term-by-term composition.
void expect_one_item_matches_references(std::size_t d, std::size_t k,
                                        std::span<const double> coeffs,
                                        std::span<const std::size_t> kreds,
                                        Rng& rng) {
  std::size_t size = 1;
  for (std::size_t m = 0; m < d; ++m) size *= k;
  const std::size_t terms = coeffs.size();
  const auto src = random_matrix(k, size / k, rng);
  std::vector<std::vector<double>> h;
  for (std::size_t i = 0; i < terms * d; ++i)
    h.push_back(random_matrix(k, k, rng));
  std::vector<GemmMat> mats;
  for (std::size_t i = 0; i < terms * d; ++i)
    mats.push_back(GemmMat{h[i].data(), k, k});
  const std::vector<double> init(size, 0.0625);
  std::vector<double> out = init;
  GemmWorkspace ws;
  const FusedApplyItem item{src.data(), mats, coeffs, kreds, out.data()};
  batch_fused_apply(d, k, {&item, 1}, ws);
  EXPECT_EQ(ws.stats().fused_chains, 1u);
  const std::vector<double> ref =
      stacked_reference(d, k, src.data(), mats, coeffs, kreds, init);
  for (std::size_t i = 0; i < size; ++i)
    ASSERT_EQ(out[i], ref[i]) << "d=" << d << " k=" << k << " terms=" << terms;
  expect_close_to_term_by_term(
      out, term_by_term_reference(d, k, src.data(), mats, coeffs, kreds,
                                  init));
}

TEST(BatchGemm, FusedApplyChainBitwiseEqualsStackedProduct) {
  const std::size_t k = 12, terms = 4;
  Rng rng(4242);
  const double coeffs[terms] = {1.5, -0.25, 3.0, 0.125};
  const std::size_t kreds[terms] = {k, 7, k, 1};
  expect_one_item_matches_references(3, k, coeffs, kreds, rng);
  // The sweep of (d, k, terms) shapes the engine serves: d = 1..4, k = 4,
  // 5, 6, 10, 2-10 terms; each at full rank and with every term reduced
  // to a different rank.
  for (const auto& [d, kk, nt] :
       {std::tuple{1, 4, 3}, std::tuple{2, 6, 8}, std::tuple{3, 5, 10},
        std::tuple{3, 6, 5}, std::tuple{3, 10, 4}, std::tuple{4, 4, 5},
        std::tuple{4, 6, 2}}) {
    const std::size_t dim = d, ext = kk, n = nt;
    std::vector<double> c(n);
    std::vector<std::size_t> kr(n);
    for (std::size_t mu = 0; mu < n; ++mu) {
      c[mu] = rng.uniform(-2.0, 2.0);
      kr[mu] = ext - mu % ext;
    }
    expect_one_item_matches_references(dim, ext, c, {}, rng);
    expect_one_item_matches_references(dim, ext, c, kr, rng);
  }
}

TEST(BatchGemm, BatchedFusedApplySharesOneWorkspace) {
  // batch_fused_apply over several items must equal one-item calls, and
  // the workspace must see every item.
  const std::size_t d = 2, k = 5, size = k * k;
  const std::size_t items = 3, terms = 2;
  Rng rng(9);
  std::vector<std::vector<double>> srcs, hs;
  for (std::size_t i = 0; i < items; ++i)
    srcs.push_back(random_matrix(k, k, rng));
  for (std::size_t i = 0; i < items * terms * d; ++i)
    hs.push_back(random_matrix(k, k, rng));
  const double coeffs[terms] = {2.0, -1.0};

  std::vector<std::vector<double>> results(items,
                                           std::vector<double>(size, 0.0));
  std::vector<std::vector<double>> expected = results;
  std::vector<std::vector<GemmMat>> mats(items);
  std::vector<FusedApplyItem> batch;
  for (std::size_t i = 0; i < items; ++i) {
    for (std::size_t j = 0; j < terms * d; ++j)
      mats[i].push_back(GemmMat{hs[i * terms * d + j].data(), k, k});
    FusedApplyItem item;
    item.src = srcs[i].data();
    item.mats = {mats[i].data(), mats[i].size()};
    item.coeffs = {coeffs, terms};
    item.result = results[i].data();
    batch.push_back(item);
  }
  GemmWorkspace batch_ws;
  batch_fused_apply(d, k, batch, batch_ws);
  EXPECT_EQ(batch_ws.stats().fused_chains, items);

  for (std::size_t i = 0; i < items; ++i) {
    GemmWorkspace ws;
    FusedApplyItem alone = batch[i];
    alone.result = expected[i].data();
    batch_fused_apply(d, k, {&alone, 1}, ws);
    for (std::size_t e = 0; e < size; ++e)
      ASSERT_EQ(results[i][e], expected[i][e]);
  }
}

// Shared-prefix batches: items over a few sources whose blocks come from a
// per-term table indexed by a 1-D displacement, as an Apply operator's do.
struct PrefixBatch {
  struct Slot {
    std::size_t src = 0;
    std::vector<std::int64_t> disp;  ///< term 0's displacement
    std::vector<GemmMat> mats;
    std::vector<std::size_t> kreds;
    std::size_t nterms = 0;
    std::vector<double> result;
  };

  PrefixBatch(std::size_t d_, std::size_t k_, std::size_t terms_,
              std::size_t sources, std::int64_t reach_, std::uint64_t seed)
      : d(d_), k(k_), terms(terms_), reach(reach_), rng(seed) {
    std::size_t size = 1;
    for (std::size_t m = 0; m < d; ++m) size *= k;
    for (std::size_t s = 0; s < sources; ++s)
      srcs.push_back(random_matrix(1, size, rng));
    table = random_matrix(terms * width(), k * k, rng);
    for (std::size_t mu = 0; mu < terms; ++mu)
      coeffs.push_back(rng.uniform(-2.0, 2.0));
  }

  std::size_t width() const { return static_cast<std::size_t>(2 * reach + 1); }

  /// Term mu's block in table column `col` (displacement col - reach).
  const double* block_at(std::size_t mu, std::size_t col) const {
    return table.data() + (mu * width() + col) * k * k;
  }

  /// The table as a BlockTable reads it, [mu * width() + col].
  std::vector<const double*> blocks() const {
    std::vector<const double*> out;
    for (std::size_t i = 0; i < terms * width(); ++i)
      out.push_back(block_at(i / width(), i % width()));
    return out;
  }

  /// Item over source `s` at displacement `disp` (d components), with
  /// per-term reduced ranks `kreds` (empty: full rank) and `nterms` terms
  /// (0: all).
  void add(std::size_t s, const std::vector<std::int64_t>& disp,
           std::vector<std::size_t> kreds = {}, std::size_t nterms = 0) {
    if (nterms == 0) nterms = terms;
    add_per_term(s, std::vector<std::vector<std::int64_t>>(nterms, disp),
                 std::move(kreds));
  }

  /// Item over source `s` whose term mu reads its blocks at displacement
  /// disps[mu], so its terms' prefixes need not agree with each other's.
  void add_per_term(std::size_t s,
                    const std::vector<std::vector<std::int64_t>>& disps,
                    std::vector<std::size_t> kreds = {}) {
    Slot slot;
    slot.src = s;
    slot.disp = disps[0];
    for (std::size_t mu = 0; mu < disps.size(); ++mu) {
      for (std::size_t m = 0; m < d; ++m) {
        const auto col = static_cast<std::size_t>(disps[mu][m] + reach);
        slot.mats.push_back({block_at(mu, col), k, k});
      }
    }
    slot.kreds = std::move(kreds);
    slot.nterms = disps.size();
    slot.result = random_matrix(1, srcs[slot.src].size(), rng);
    slots.push_back(std::move(slot));
  }

  /// Every displacement of [-reach, reach]^d over source 0, shuffled.
  void add_leaf() {
    std::vector<std::vector<std::int64_t>> disps(1);
    for (std::size_t m = 0; m < d; ++m) {
      std::vector<std::vector<std::int64_t>> next;
      for (const auto& v : disps) {
        for (std::int64_t x = -reach; x <= reach; ++x) {
          next.push_back(v);
          next.back().push_back(x);
        }
      }
      disps = std::move(next);
    }
    for (std::size_t i = disps.size(); i > 1; --i)
      std::swap(disps[i - 1], disps[rng.next_u64() % i]);
    for (const auto& disp : disps) add(0, disp);
  }

  std::vector<FusedApplyItem> items(
      std::vector<std::vector<double>>& results) const {
    std::vector<FusedApplyItem> out;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      out.push_back({srcs[slot.src].data(),
                     {slot.mats.data(), slot.mats.size()},
                     {coeffs.data(), slot.nterms},
                     {slot.kreds.data(), slot.kreds.size()},
                     results[i].data()});
    }
    return out;
  }

  std::vector<std::vector<double>> initial_results() const {
    std::vector<std::vector<double>> r;
    for (const Slot& slot : slots) r.push_back(slot.result);
    return r;
  }

  std::size_t kc_of(const Slot& slot, std::size_t mu) const {
    return slot.kreds.empty() ? k : std::min(slot.kreds[mu], k);
  }

  /// Distinct (term, src, kc, blocks 0..m) nodes of modes 0..d-2: the
  /// prefix GEMMs a batch that shares every common prefix executes.
  std::set<std::vector<std::uintptr_t>> inner_nodes() const {
    std::set<std::vector<std::uintptr_t>> nodes;
    for (const Slot& slot : slots) {
      for (std::size_t mu = 0; mu < slot.nterms; ++mu) {
        std::vector<std::uintptr_t> key{mu, slot.src, kc_of(slot, mu)};
        for (std::size_t m = 0; m + 1 < d; ++m) {
          key.push_back(reinterpret_cast<std::uintptr_t>(
              slot.mats[mu * d + m].ptr));
          nodes.insert(key);
        }
      }
    }
    return nodes;
  }

  /// The fan-out groups: items with the same src, terms, kc vector and
  /// blocks of modes 0..d-2 in every term (the weights are one table).
  /// Each holds its slots, the distinct tuples of last blocks.
  struct Group {
    std::size_t terms = 0;
    std::set<std::vector<const double*>> slots;
  };
  std::map<std::vector<std::uintptr_t>, Group> groups() const {
    std::map<std::vector<std::uintptr_t>, Group> out;
    for (const Slot& slot : slots) {
      std::vector<std::uintptr_t> key{slot.src, slot.nterms};
      std::vector<const double*> last;
      for (std::size_t mu = 0; mu < slot.nterms; ++mu) {
        key.push_back(kc_of(slot, mu));
        for (std::size_t m = 0; m + 1 < d; ++m)
          key.push_back(reinterpret_cast<std::uintptr_t>(
              slot.mats[mu * d + m].ptr));
        last.push_back(slot.mats[mu * d + d - 1].ptr);
      }
      Group& g = out[key];
      g.terms = slot.nterms;
      g.slots.insert(last);
    }
    return out;
  }

  /// Nodes a batch that shares every common prefix counts: the prefix
  /// nodes, plus one last-mode node per term of every slot of every group.
  std::size_t distinct_nodes() const {
    std::size_t n = inner_nodes().size();
    for (const auto& [key, g] : groups()) n += g.slots.size() * g.terms;
    return n;
  }

  /// Microkernel calls of such a batch: the prefix nodes, plus per group
  /// one stacked fan-out call per fan_out_limit(k) slots.
  std::size_t fan_out_calls() const {
    const std::size_t cap = fan_out_limit(k);
    std::size_t calls = inner_nodes().size();
    for (const auto& [key, g] : groups())
      calls += (g.slots.size() + cap - 1) / cap;
    return calls;
  }

  const double* block(const Slot& slot, std::size_t mu, std::size_t m) const {
    return slot.mats[mu * d + m].ptr;
  }

  bool same_group(const Slot& a, const Slot& b) const {
    if (a.src != b.src || a.nterms != b.nterms) return false;
    for (std::size_t mu = 0; mu < a.nterms; ++mu) {
      if (kc_of(a, mu) != kc_of(b, mu)) return false;
      for (std::size_t m = 0; m + 1 < d; ++m)
        if (block(a, mu, m) != block(b, mu, m)) return false;
    }
    return true;
  }

  /// The engine's stack record as the model keeps it: per term the (src,
  /// kc, blocks of modes 0..d-2) its stack was computed from (empty: none),
  /// and the source of the last group walked, the one whose stacks carry
  /// over to the next call.
  struct Record {
    std::vector<std::vector<std::uintptr_t>> term;
    std::uintptr_t last_src = 0;
  };

  /// The counters batch_fused_apply's walk reaches, modelled from its
  /// contract: the items in the call's one order (source by first
  /// appearance, columns of modes 0..d-2, term count, kc vector from the
  /// last term down, last column, position in the call) cut into groups
  /// and the groups into calls of at most fan_out_limit(k) slots; each
  /// call first recomputes every term's prefix from the first mode where
  /// its (src, kc, blocks) differ from the record's, then counts one
  /// last-mode node per term of each slot. A column is a mode's tuple of
  /// blocks, one per term, and columns order as their tuples do: this
  /// table's addresses are its column order, which is the order the
  /// pointer path numbers tuples in. Flops: a prefix GEMM contracts
  /// kc rows into a (k^{d-1}, k) node, 2 * k^d * kc; a fan-out call
  /// contracts K = sum_mu kc_mu rows into each of its n slots,
  /// 2 * k^d * K * n. walk() is one call on a fresh workspace (or after a
  /// call of another table); walk(rec, which) is a call of the slots
  /// `which` that finds `rec` left by the previous call of the same
  /// table, and leaves its own record there.
  BatchGemmStats walk() const {
    std::vector<std::size_t> all(slots.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    Record fresh;
    return walk(fresh, all);
  }

  BatchGemmStats walk(Record& rec, std::vector<std::size_t> order) const {
    // Only the stacks of the source the engine keeps a copy of carry over.
    for (auto& held : rec.term)
      if (!held.empty() && held[0] != rec.last_src) held.clear();
    std::size_t size = 1;
    for (std::size_t m = 0; m < d; ++m) size *= k;
    std::vector<std::size_t> rank(srcs.size(), srcs.size());
    std::size_t sources = 0;
    for (const std::size_t i : order)
      if (rank[slots[i].src] == srcs.size()) rank[slots[i].src] = sources++;
    const auto tuple = [&](const Slot& slot, std::size_t m) {
      std::vector<std::uintptr_t> out;
      for (std::size_t mu = 0; mu < slot.nterms; ++mu)
        out.push_back(reinterpret_cast<std::uintptr_t>(block(slot, mu, m)));
      return out;
    };
    const auto key = [&](std::size_t i) {
      const Slot& slot = slots[i];
      std::vector<std::vector<std::uintptr_t>> out{{rank[slot.src]}};
      for (std::size_t m = 0; m + 1 < d; ++m) out.push_back(tuple(slot, m));
      out.push_back({slot.nterms});
      out.emplace_back();
      for (std::size_t mu = slot.nterms; mu-- > 0;)
        out.back().push_back(kc_of(slot, mu));
      out.push_back(tuple(slot, d - 1));
      return out;
    };
    std::vector<std::size_t> at(slots.size());
    for (std::size_t q = 0; q < order.size(); ++q) at[order[q]] = q;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const auto ka = key(a);
      const auto kb = key(b);
      return ka != kb ? ka < kb : at[a] < at[b];
    });
    for (std::size_t q = 1; q < order.size(); ++q) {
      const Slot& a = slots[order[q - 1]];
      const Slot& b = slots[order[q]];
      EXPECT_TRUE(key(order[q - 1]) != key(order[q]) || same_group(a, b))
          << "the model needs tied items to share a group";
    }
    BatchGemmStats st;
    for (std::size_t pos = 0; pos < order.size();) {
      const Slot& lead = slots[order[pos]];
      const auto src =
          reinterpret_cast<std::uintptr_t>(srcs[lead.src].data());
      rec.last_src = src;
      if (rec.term.size() < lead.nterms) rec.term.resize(lead.nterms);
      std::size_t stacked = 0;
      for (std::size_t mu = 0; mu < lead.nterms; ++mu) {
        const std::size_t kc = kc_of(lead, mu);
        std::vector<std::uintptr_t> now{src, kc};
        for (std::size_t m = 0; m + 1 < d; ++m)
          now.push_back(reinterpret_cast<std::uintptr_t>(block(lead, mu, m)));
        std::vector<std::uintptr_t>& held = rec.term[mu];
        std::size_t m = 0;
        if (!held.empty() && held[0] == src && held[1] == kc) {
          while (m + 1 < d && held[2 + m] == now[2 + m]) ++m;
        }
        held = std::move(now);
        st.packed_gemms += d - 1 - m;
        st.prefix_nodes += d - 1 - m;
        st.flops += 2.0 * static_cast<double>((d - 1 - m) * size * kc);
        stacked += kc;
      }
      std::set<std::vector<const double*>> seen;
      std::size_t end = pos;
      for (; end < order.size(); ++end) {
        const Slot& item = slots[order[end]];
        if (!same_group(lead, item)) break;
        std::vector<const double*> last;
        for (std::size_t mu = 0; mu < item.nterms; ++mu)
          last.push_back(block(item, mu, d - 1));
        if (!seen.contains(last)) {
          if (seen.size() == fan_out_limit(k)) break;
          seen.insert(last);
        }
      }
      st.packed_gemms += 1;
      st.prefix_nodes += seen.size() * lead.nterms;
      st.flops += 2.0 * static_cast<double>(size * stacked * seen.size());
      pos = end;
    }
    st.fused_chains = order.size();
    return st;
  }

  /// Asserts a batch's counters are the modelled walk's, exactly.
  void expect_walk(const BatchGemmStats& st) const {
    const BatchGemmStats w = walk();
    EXPECT_EQ(st.prefix_nodes, w.prefix_nodes);
    EXPECT_EQ(st.packed_gemms, w.packed_gemms);
    EXPECT_EQ(st.flops, w.flops);
  }

  /// Runs the whole batch through one workspace and checks every result
  /// bitwise against the stacked reference and against the item's own
  /// one-item call, and within the stated tolerance of the
  /// term-by-term composition. Returns the batch's engine counters.
  BatchGemmStats run_and_check() const {
    std::vector<std::vector<double>> batched = initial_results();
    GemmWorkspace ws;
    batch_fused_apply(d, k, items(batched), ws);
    EXPECT_EQ(ws.stats().fused_chains, slots.size());

    std::vector<std::vector<double>> single = initial_results();
    const std::vector<FusedApplyItem> alone = items(single);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      GemmWorkspace own;
      batch_fused_apply(d, k, {&alone[i], 1}, own);
      const std::vector<double> ref =
          stacked_reference(d, k, alone[i].src, alone[i].mats,
                            alone[i].coeffs, alone[i].kreds, slot.result);
      for (std::size_t e = 0; e < ref.size(); ++e) {
        EXPECT_EQ(batched[i][e], ref[e]) << "item " << i;
        EXPECT_EQ(single[i][e], ref[e]) << "item " << i;
        if (batched[i][e] != ref[e] || single[i][e] != ref[e]) break;
      }
      expect_close_to_term_by_term(
          batched[i],
          term_by_term_reference(d, k, alone[i].src, alone[i].mats,
                                 alone[i].coeffs, alone[i].kreds,
                                 slot.result));
    }
    return ws.stats();
  }

  std::size_t d, k, terms;
  std::int64_t reach;
  Rng rng;
  std::vector<std::vector<double>> srcs;
  /// One buffer, block (mu, m) at (mu * width() + m + reach) * k^2: the
  /// pointer path numbers its tuples in address order, so pointer items
  /// over this table walk in its column order, as displacement items do.
  std::vector<double> table;
  std::vector<double> coeffs;
  std::vector<Slot> slots;
};

TEST(BatchGemm, LeafBatchSharesModePrefixesBitwise) {
  // One source through every displacement of a small lattice: term mu's
  // mode-0..j intermediate depends only on the leading j + 1 displacement
  // components, so the batch computes one node per distinct prefix —
  // width + width^2 + ... + width^(d-1) per term — instead of d per item,
  // and takes the width last-mode children of each mode-(d-2) node, every
  // term stacked, in one fan-out call.
  for (const auto& [d, k, reach] :
       {std::tuple<std::size_t, std::size_t, std::int64_t>{1, 5, 2},
        {3, 5, 2},
        {4, 4, 1}}) {
    PrefixBatch b(d, k, /*terms=*/3, /*sources=*/1, reach, 17 + d);
    b.add_leaf();
    std::size_t per_term = 0, level = 1;
    for (std::size_t m = 0; m < d; ++m) per_term += (level *= b.width());
    EXPECT_EQ(b.distinct_nodes(), b.terms * per_term);
    const BatchGemmStats st = b.run_and_check();
    b.expect_walk(st);
    EXPECT_EQ(st.prefix_nodes, b.distinct_nodes()) << "d = " << d;
    // width <= fan_out_limit, so every group is one fan-out call.
    ASSERT_LE(b.width(), fan_out_limit(k));
    const std::size_t groups = level / b.width();
    EXPECT_EQ(b.fan_out_calls(), b.terms * (per_term - level) + groups);
    EXPECT_EQ(st.packed_gemms, b.fan_out_calls()) << "d = " << d;
    if (d > 1) {
      EXPECT_LT(b.distinct_nodes(), b.slots.size() * b.terms * d);
    }
  }
}

TEST(BatchGemm, MixedSourcesAndDuplicatesShareOnlyEqualPrefixes) {
  // Two sources, repeated items, items with fewer terms: only equal
  // (src, kc, block prefix) nodes are shared, and a duplicate item
  // (distinct result) costs no GEMM at all.
  PrefixBatch b(3, 6, /*terms=*/4, /*sources=*/2, /*reach=*/1, 99);
  b.add(0, {0, 0, 0});
  b.add(1, {0, 0, 0});
  b.add(0, {1, 0, -1});
  b.add(0, {0, 0, 0});  // duplicate of item 0
  b.add(1, {0, 1, 0});
  b.add(0, {1, 0, 1}, {}, /*nterms=*/2);
  b.add(1, {0, 0, 0});  // duplicate of item 1
  b.add(0, {-1, 1, 1}, {}, /*nterms=*/1);
  const BatchGemmStats st = b.run_and_check();
  b.expect_walk(st);
  EXPECT_EQ(st.prefix_nodes, b.distinct_nodes());
  EXPECT_EQ(st.packed_gemms, b.fan_out_calls());
  EXPECT_LT(b.distinct_nodes(), 8u * 4u * 3u);
}

TEST(BatchGemm, DifferentReducedRanksDoNotShare) {
  // Same source, same blocks: items share a term's prefix chain only when
  // its contraction length matches, and a fan-out group only when every
  // term's does. kreds >= k is full rank, like no kreds.
  const std::size_t k = 5;
  PrefixBatch b(3, k, /*terms=*/2, /*sources=*/1, /*reach=*/1, 7);
  b.add(0, {1, 0, 1}, {k, 3});
  b.add(0, {1, 0, 1}, {k, 4});
  b.add(0, {1, 0, 1});
  b.add(0, {1, 0, 1}, {k + 2, 3});
  // Prefix modes: one full-rank term-0 chain (2 nodes), term-1 chains at
  // contraction lengths 3, 4 and k (2 nodes each). Groups: kc vectors
  // (k, 3), (k, 4) and (k, k), one slot of two terms each.
  EXPECT_EQ(b.groups().size(), 3u);
  EXPECT_EQ(b.distinct_nodes(), 2u + 3u * 2u + 3u * 2u);
  const BatchGemmStats st = b.run_and_check();
  b.expect_walk(st);
  EXPECT_EQ(st.prefix_nodes, b.distinct_nodes());
  // One stacked fan-out call per group.
  EXPECT_EQ(b.fan_out_calls(), 2u + 3u * 2u + 3u);
  EXPECT_EQ(st.packed_gemms, b.fan_out_calls());
}

TEST(BatchGemm, GroupsCheckEveryTermsPrefixAndKc) {
  // Items that share term 0's prefix but not term 1's, and items that
  // differ only in term 1's contraction length, must not share a group:
  // the group stacks every term's prefix of its first item, so a wrong
  // grouping would give one of them another item's A.
  const std::size_t k = 5;
  PrefixBatch b(3, k, /*terms=*/3, /*sources=*/1, /*reach=*/1, 23);
  b.add_per_term(0, {{0, 0, -1}, {0, 0, -1}, {0, 0, -1}});
  b.add_per_term(0, {{0, 0, 1}, {1, 0, 1}, {0, 0, 1}});
  b.add_per_term(0, {{0, 0, 0}, {-1, 0, 0}, {0, 0, 0}});
  b.add(0, {1, 1, 0}, {k, 2, k});
  b.add(0, {1, 1, 1}, {k, 3, k});
  b.add(0, {1, 1, -1}, {k, 2, k});
  // Groups: the three prefixes of term 1 over term-0 prefix (0, 0), and
  // the kc vectors (k, 2, k) (two slots) and (k, 3, k) over (1, 1).
  EXPECT_EQ(b.groups().size(), 5u);
  const BatchGemmStats st = b.run_and_check();
  b.expect_walk(st);
  EXPECT_EQ(st.prefix_nodes, b.distinct_nodes());
  EXPECT_EQ(st.packed_gemms, b.fan_out_calls());
  EXPECT_EQ(st.packed_gemms, b.inner_nodes().size() + 5u);
}

TEST(BatchGemm, FanOutLastModeBitwise) {
  // Runs of items below one mode-(d-2) node, with 1 up to more than
  // fan_out_limit(k) slots, plus duplicate last blocks, mixed kreds
  // within one prefix run and items with fewer terms, over non-zero
  // initial results. k = 7 leaves a 4-wide tile and a column-vector tail
  // in every fan-out product.
  for (const std::size_t d : {1, 2, 3, 4}) {
    for (const std::size_t k : {5, 7, 10}) {
      const std::size_t cap = fan_out_limit(k);
      const std::vector<std::size_t> fans{1, 2, cap - 1, cap, cap + 1,
                                          2 * cap + 1};
      const auto reach = static_cast<std::int64_t>(cap);  // width 2cap+1
      PrefixBatch b(d, k, /*terms=*/3, /*sources=*/fans.size(), reach,
                    100 * d + k);
      // At d = 1 every item of a source is below the root node, so each
      // run gets its own source; above that, runs alternate two sources
      // and differ in their leading components.
      const auto run_at = [&](std::size_t c, std::int64_t last) {
        std::vector<std::int64_t> disp;
        for (std::size_t m = 0; m + 1 < d; ++m)
          disp.push_back(static_cast<std::int64_t>((c + m) % b.width()) -
                         reach);
        disp.push_back(last);
        return disp;
      };
      for (std::size_t c = 0; c < fans.size(); ++c) {
        const std::size_t src = d == 1 ? c : c % 2;
        for (std::size_t j = 0; j < fans[c]; ++j)
          b.add(src, run_at(c, static_cast<std::int64_t>(j) - reach));
      }
      const std::size_t big = fans.size() - 1;
      const std::size_t big_src = d == 1 ? big : big % 2;
      // Duplicate last blocks, then mixed kreds in the widest run.
      b.add(big_src, run_at(big, -reach));
      b.add(big_src, run_at(big, 1 - reach));
      b.add(big_src, run_at(big, -reach), {k, 3, k});
      b.add(big_src, run_at(big, 2 - reach), {k, 3, k + 1});
      b.add(big_src, run_at(big, 3 - reach), {2, k, 3});
      b.add(big_src, run_at(big, 5 - reach), {k, k, 2});
      b.add(big_src, run_at(big, 4 - reach), {}, /*nterms=*/1);
      b.add(0, run_at(0, 0), {}, /*nterms=*/2);
      // Term 0 reduced in two runs of one source: the call's one ordering
      // must not separate them from their run for the later terms.
      b.add(d == 1 ? 2 : 0, run_at(2, 0), {2, k, k});
      b.add(d == 1 ? 4 : 0, run_at(4, 0), {2, k, k});

      // The groups of one term-0 prefix differ in their kc vectors, and a
      // term's prefix is shared only between adjacent groups: in the
      // widest run the one-term group, then kc vectors (k, k, 2),
      // (2, k, 3), (k, 3, k) and (k, k, k), so terms 0 and 1 compute their
      // full-rank prefixes twice there (and term 2 too, were kc vectors
      // compared from term 0 up). The prefix GEMMs are exactly the
      // modelled walk's, more than complete sharing needs; the fan-out
      // part is the same either way: one call per group per
      // fan_out_limit(k) slots.
      const BatchGemmStats st = b.run_and_check();
      b.expect_walk(st);
      EXPECT_EQ(st.prefix_nodes - st.packed_gemms,
                b.distinct_nodes() - b.fan_out_calls())
          << d << " " << k;
      if (d > 1) {
        EXPECT_GT(st.packed_gemms, b.fan_out_calls()) << d << " " << k;
      } else {
        EXPECT_EQ(st.packed_gemms, b.fan_out_calls()) << d << " " << k;
      }
      EXPECT_LT(st.packed_gemms, st.prefix_nodes) << d << " " << k;
    }
  }
}

// The same tasks through both entry points: displacement items over
// PrefixBatch's table (with a per-block rank table when `ranked`) and
// pointer items carrying that table's blocks, their kreds each term's least
// rank over its d blocks, as the displacement path derives kc. The pointer
// path interns each mode's tuple of blocks into a column, so both run one
// walk in one order: results memcmp-equal, counters equal, and each result
// equal to its own one-item displacement call.
void expect_entry_points_agree(std::size_t d, std::size_t k,
                               std::int64_t reach, bool ranked,
                               std::uint64_t seed) {
  PrefixBatch b(d, k, /*terms=*/3, /*sources=*/2, reach, seed);
  Rng rng(seed + 1);
  std::vector<std::size_t> ranks;  // [mu * width + m + reach]
  for (std::size_t i = 0; ranked && i < b.terms * b.width(); ++i)
    ranks.push_back(1 + rng.next_u64() % k);
  // Every displacement of [-reach, reach]^d over both sources, shuffled,
  // then a few again (duplicates with their own results).
  std::vector<std::vector<std::int64_t>> lattice(1);
  for (std::size_t m = 0; m < d; ++m) {
    std::vector<std::vector<std::int64_t>> next;
    for (const auto& v : lattice) {
      for (std::int64_t x = -reach; x <= reach; ++x) {
        next.push_back(v);
        next.back().push_back(x);
      }
    }
    lattice = std::move(next);
  }
  std::vector<std::pair<std::size_t, std::vector<std::int64_t>>> tasks;
  for (std::size_t s = 0; s < 2; ++s)
    for (const auto& disp : lattice) tasks.emplace_back(s, disp);
  for (std::size_t i = tasks.size(); i > 1; --i)
    std::swap(tasks[i - 1], tasks[rng.next_u64() % i]);
  for (std::size_t i = 0; i < 5; ++i) tasks.push_back(tasks[i * 3]);
  for (const auto& [s, disp] : tasks) {
    std::vector<std::size_t> kreds;
    for (std::size_t mu = 0; ranked && mu < b.terms; ++mu) {
      std::size_t kc = k;
      for (const std::int64_t x : disp) {
        kc = std::min(kc, ranks[mu * b.width() +
                                static_cast<std::size_t>(x + reach)]);
      }
      kreds.push_back(kc);
    }
    b.add(s, disp, kreds);
  }

  std::vector<std::vector<double>> by_pointer = b.initial_results();
  GemmWorkspace pointer_ws;
  batch_fused_apply(d, k, b.items(by_pointer), pointer_ws);

  const std::vector<const double*> blocks = b.blocks();
  const BlockTable table{blocks.data(), b.width(), reach,
                         ranked ? ranks.data() : nullptr};
  std::vector<std::vector<double>> by_disp = b.initial_results();
  std::vector<DisplacementItem> items;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    items.push_back({b.srcs[tasks[i].first].data(), tasks[i].second.data(),
                     by_disp[i].data()});
  }
  GemmWorkspace disp_ws;
  batch_fused_apply(d, k, table, b.coeffs, {}, items, disp_ws);

  const std::size_t bytes = by_disp[0].size() * sizeof(double);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_EQ(std::memcmp(by_disp[i].data(), by_pointer[i].data(), bytes), 0)
        << "d " << d << " ranked " << ranked << " item " << i;
    std::vector<double> alone = b.slots[i].result;
    DisplacementItem one = items[i];
    one.result = alone.data();
    GemmWorkspace own;
    batch_fused_apply(d, k, table, b.coeffs, {}, {&one, 1}, own);
    ASSERT_EQ(std::memcmp(by_disp[i].data(), alone.data(), bytes), 0)
        << "d " << d << " ranked " << ranked << " item " << i;
  }
  const BatchGemmStats& p = pointer_ws.stats();
  const BatchGemmStats& q = disp_ws.stats();
  EXPECT_EQ(q.packed_gemms, p.packed_gemms) << d << " " << ranked;
  EXPECT_EQ(q.prefix_nodes, p.prefix_nodes) << d << " " << ranked;
  EXPECT_EQ(q.flops, p.flops) << d << " " << ranked;
  EXPECT_EQ(q.fused_chains, p.fused_chains) << d << " " << ranked;
  b.expect_walk(p);
  if (!ranked) {
    EXPECT_EQ(q.prefix_nodes, b.distinct_nodes()) << d;
  }
}

TEST(BatchGemm, DisplacementAndPointerItemsAgreeBitwise) {
  // d = 1..4 at full rank and with a random rank per block, so the items'
  // kc vectors mix within every prefix run; width 7 > fan_out_limit(5)
  // splits groups into several fan-out calls.
  for (const auto& [d, k, reach] :
       {std::tuple<std::size_t, std::size_t, std::int64_t>{1, 5, 2},
        {2, 5, 3},
        {3, 5, 2},
        {4, 4, 1}}) {
    for (const bool ranked : {false, true})
      expect_entry_points_agree(d, k, reach, ranked, 31 * d + k);
  }
}

TEST(BatchGemm, CountersDoNotDependOnAllocation) {
  // One batch of displacement items over two tables with the same block
  // values, one allocated in column order and one in the opposite order:
  // the walk orders and groups by column, so both give the same counters
  // and memcmp-equal results, at full rank and with per-block ranks that
  // mix kc vectors within every prefix run.
  for (const bool ranked : {false, true}) {
    const std::size_t d = 3, k = 5;
    const std::int64_t reach = 2;
    PrefixBatch b(d, k, /*terms=*/3, /*sources=*/2, reach, 61);
    Rng rng(62);
    std::vector<std::size_t> ranks;
    for (std::size_t i = 0; ranked && i < b.terms * b.width(); ++i)
      ranks.push_back(1 + rng.next_u64() % k);
    b.add_leaf();
    for (const auto& slot : std::vector<PrefixBatch::Slot>(b.slots))
      b.add(1, slot.disp);
    const std::size_t width = b.width(), block = k * k;
    std::vector<double> reversed(b.table.size());
    std::vector<const double*> backwards(b.terms * width);
    for (std::size_t mu = 0; mu < b.terms; ++mu) {
      for (std::size_t c = 0; c < width; ++c) {
        double* at = reversed.data() + (mu * width + width - 1 - c) * block;
        std::copy_n(b.block_at(mu, c), block, at);
        backwards[mu * width + c] = at;
      }
    }
    const std::vector<const double*> forwards = b.blocks();
    const auto run = [&](const std::vector<const double*>& blocks,
                         std::vector<std::vector<double>>& results) {
      const BlockTable table{blocks.data(), width, reach,
                             ranked ? ranks.data() : nullptr};
      std::vector<DisplacementItem> items;
      for (std::size_t i = 0; i < b.slots.size(); ++i) {
        items.push_back({b.srcs[b.slots[i].src].data(),
                         b.slots[i].disp.data(), results[i].data()});
      }
      GemmWorkspace ws;
      batch_fused_apply(d, k, table, b.coeffs, {}, items, ws);
      return ws.stats();
    };
    std::vector<std::vector<double>> ahead = b.initial_results();
    std::vector<std::vector<double>> behind = b.initial_results();
    const BatchGemmStats p = run(forwards, ahead);
    const BatchGemmStats q = run(backwards, behind);
    EXPECT_EQ(p.prefix_nodes, q.prefix_nodes) << ranked;
    EXPECT_EQ(p.packed_gemms, q.packed_gemms) << ranked;
    EXPECT_EQ(p.flops, q.flops) << ranked;
    EXPECT_EQ(p.fused_chains, q.fused_chains) << ranked;
    const std::size_t bytes = ahead[0].size() * sizeof(double);
    for (std::size_t i = 0; i < ahead.size(); ++i)
      ASSERT_EQ(std::memcmp(ahead[i].data(), behind[i].data(), bytes), 0) << i;
  }
}

TEST(BatchGemm, DisplacementItemsCheckTheirTable) {
  // A component outside the table, or kcap of the wrong length, is a
  // typed error, not a read past the table.
  const std::size_t k = 4;
  PrefixBatch b(2, k, /*terms=*/2, /*sources=*/1, /*reach=*/1, 3);
  const std::vector<const double*> blocks = b.blocks();
  const BlockTable table{blocks.data(), b.width(), 1, nullptr};
  std::vector<double> result(k * k, 0.0);
  const std::int64_t inside[2] = {1, -1};
  const std::int64_t outside[2] = {0, 2};
  const DisplacementItem ok{b.srcs[0].data(), inside, result.data()};
  const DisplacementItem bad{b.srcs[0].data(), outside, result.data()};
  GemmWorkspace ws;
  EXPECT_NO_THROW(batch_fused_apply(2, k, table, b.coeffs, {}, {&ok, 1}, ws));
  EXPECT_THROW(batch_fused_apply(2, k, table, b.coeffs, {}, {&bad, 1}, ws),
               Error);
  const std::size_t kcap[1] = {2};
  EXPECT_THROW(batch_fused_apply(2, k, table, b.coeffs, kcap, {&ok, 1}, ws),
               Error);
}

TEST(BatchGemm, OneItemCallsCarryTheirPrefixStacksOver) {
  // One-item calls on one workspace over one identified table, in the
  // order one leaf's tasks run: a call recomputes each term's stack only
  // from the first mode whose (src, kc, block) differ from what the call
  // before left, exactly the modelled walk with the record carried over,
  // and every result is memcmp-equal to the same call on a fresh
  // workspace.
  const std::size_t d = 3, k = 5;
  PrefixBatch b(d, k, /*terms=*/3, /*sources=*/2, /*reach=*/2, 41);
  const std::vector<std::pair<std::size_t, std::vector<std::int64_t>>> tasks{
      {0, {0, 0, 0}},  {0, {0, 1, -1}}, {0, {0, 1, 2}},  {0, {1, 1, 2}},
      {1, {1, 1, 2}},  {0, {1, 1, 2}},  {0, {1, -2, 0}}, {0, {1, -2, 0}}};
  for (const auto& [s, disp] : tasks) b.add(s, disp);
  const std::vector<const double*> blocks = b.blocks();
  const BlockTable table{blocks.data(), b.width(), b.reach, nullptr,
                         BlockTable::fresh_id()};
  std::vector<std::vector<double>> results = b.initial_results();
  const std::size_t bytes = results[0].size() * sizeof(double);
  GemmWorkspace ws;
  PrefixBatch::Record rec;
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i + 1 == tasks.size()) {
      // The last call repeats the one before over a source edited in
      // place: same pointer, new values, so nothing carries over.
      b.srcs[0][7] += 1.0;
      rec = {};
    }
    const DisplacementItem item{b.srcs[tasks[i].first].data(),
                                tasks[i].second.data(), results[i].data()};
    const BatchGemmStats before = ws.stats();
    batch_fused_apply(d, k, table, b.coeffs, {}, {&item, 1}, ws);
    const BatchGemmStats model = b.walk(rec, {i});
    nodes.push_back(ws.stats().prefix_nodes - before.prefix_nodes);
    EXPECT_EQ(nodes.back(), model.prefix_nodes) << "call " << i;
    EXPECT_EQ(ws.stats().packed_gemms - before.packed_gemms,
              model.packed_gemms)
        << "call " << i;
    std::vector<double> alone = b.slots[i].result;
    DisplacementItem one = item;
    one.result = alone.data();
    GemmWorkspace fresh;
    batch_fused_apply(d, k, table, b.coeffs, {}, {&one, 1}, fresh);
    EXPECT_EQ(std::memcmp(results[i].data(), alone.data(), bytes), 0)
        << "call " << i;
  }
  // Per term: a new (src, m_0) computes modes 0 and 1 and the last mode;
  // a shared (src, m_0) mode 1 and the last; a shared (src, m_0, m_1) the
  // last only. Only the last call's source carries over (call 5).
  const std::size_t t = b.terms;
  EXPECT_EQ(nodes, (std::vector<std::size_t>{3 * t, 2 * t, t, 3 * t, 3 * t,
                                             3 * t, 2 * t, 3 * t}));
}

TEST(BatchGemm, CallsWithoutATableIdCarryNothingOver) {
  // A table without an id, and a pointer-keyed call, promise nothing about
  // their blocks: the same task twice computes every node twice, and a
  // pointer-keyed call between two calls of an identified table clears
  // what the first left.
  const std::size_t d = 3, k = 4;
  PrefixBatch b(d, k, /*terms=*/2, /*sources=*/1, /*reach=*/1, 5);
  b.add(0, {1, 0, -1});
  const std::vector<const double*> blocks = b.blocks();
  const BlockTable anonymous{blocks.data(), b.width(), b.reach, nullptr};
  BlockTable named = anonymous;
  named.id = BlockTable::fresh_id();
  std::vector<std::vector<double>> results = b.initial_results();
  const std::vector<FusedApplyItem> pointer = b.items(results);
  const std::int64_t disp[3] = {1, 0, -1};
  const DisplacementItem task{b.srcs[0].data(), disp, results[0].data()};
  GemmWorkspace ws;
  const auto nodes_of = [&](const auto& call) {
    const std::size_t before = ws.stats().prefix_nodes;
    call();
    return ws.stats().prefix_nodes - before;
  };
  const std::size_t all = 3 * b.terms;
  const auto run = [&](const BlockTable& table) {
    return nodes_of(
        [&] { batch_fused_apply(d, k, table, b.coeffs, {}, {&task, 1}, ws); });
  };
  EXPECT_EQ(run(anonymous), all);
  EXPECT_EQ(run(anonymous), all);
  EXPECT_EQ(run(named), all);
  EXPECT_EQ(run(named), b.terms);  // the last mode only
  EXPECT_EQ(nodes_of([&] { batch_fused_apply(d, k, pointer, ws); }), all);
  EXPECT_EQ(run(named), all);
}

TEST(BatchGemm, WarmCallsAllocateNothing) {
  // The workspace buffers (the packed panel and the per-term prefix
  // stacks), the call's items, columns, sources and order, its group and
  // slot scratch, and the pointer path's column table and tuple order only
  // grow: a warm call of either entry point, and a smaller batch after
  // it, move none of them.
  const std::size_t d = 3, k = 5;
  PrefixBatch b(d, k, /*terms=*/3, /*sources=*/1, /*reach=*/3, 5);
  b.add_leaf();  // 7 slots per group: past fan_out_limit(5)
  b.add(0, {0, 0, 0}, {k, 2, 4});
  std::vector<std::vector<double>> results = b.initial_results();
  const std::vector<FusedApplyItem> items = b.items(results);
  const std::vector<const double*> blocks = b.blocks();
  const BlockTable table{blocks.data(), b.width(), b.reach, nullptr};
  std::vector<DisplacementItem> tasks;
  for (std::size_t i = 0; i < b.slots.size(); ++i)
    tasks.push_back(
        {b.srcs[0].data(), b.slots[i].disp.data(), results[i].data()});
  GemmWorkspace ws;
  const auto storage = [&ws] {
    const GemmWorkspace::ShareScratch& sc = ws.share_scratch();
    return std::vector<const void*>{
        ws.pack_a(0),          ws.prefix(0),          sc.entries.data(),
        sc.cols.data(),        sc.kc.data(),          sc.sources.data(),
        sc.order.data(),       sc.group_a.data(),     sc.fan_blocks.data(),
        sc.fan_start.data(),   sc.fan_targets.data(), sc.table.data(),
        sc.tuples.data()};
  };
  const auto both = [&](std::size_t n) {
    batch_fused_apply(d, k, {items.data(), n}, ws);
    batch_fused_apply(d, k, table, b.coeffs, {}, {tasks.data(), n}, ws);
  };
  both(items.size());
  const std::vector<const void*> warm = storage();
  both(items.size());
  EXPECT_EQ(storage(), warm);
  batch_fused_apply(d, k, {items.data(), items.size() / 2}, ws);
  EXPECT_EQ(storage(), warm);
  both(items.size() / 2);
  EXPECT_EQ(storage(), warm);
}

TEST(BatchGemm, WideLastModeShapesAgreeBitwise) {
  // The fan-out products' shapes: portable tile, dispatched packed kernel
  // and scalar reference agree bit for bit.
  for (const auto& [di, dj, dk] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{25, 25, 5},
        {100, 50, 10}}) {
    Rng rng(di + dj + dk);
    const auto at = random_matrix(dk, di, rng);
    const auto b = random_matrix(dk, dj, rng);
    std::vector<double> ref(di * dj, 0.5);
    std::vector<double> packed = ref;
    std::vector<double> portable = ref;
    std::vector<double> apack(4 * dk);
    mTxm_ref(di, dj, dk, ref.data(), at.data(), b.data());
    GemmWorkspace ws;
    mTxm_packed(di, dj, dk, dk, packed.data(), at.data(), b.data(), ws);
    detail::mtxm_portable(di, dj, dk, portable.data(), at.data(), b.data(),
                          apack.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(packed[i], ref[i]) << di << "x" << dj << " element " << i;
      ASSERT_EQ(portable[i], ref[i]) << di << "x" << dj << " element " << i;
    }
  }
}

// One stacked fan-out call through `kernel` against mTxm_ref on the
// stacked operands: per term an A segment (kc, dimi) scaled by its weight
// and per slot a block per term, each its own allocation read in place, so
// a tile that reads past a block's k columns or kc rows shows up under
// ASan. Slot 0 has two targets, every other slot one, over random initial
// results.
void check_fan_out(detail::FanOutKernelFn kernel, std::size_t dimi,
                   std::size_t k, const std::vector<std::size_t>& kc,
                   std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t terms = kc.size();
  std::vector<std::vector<double>> a, blocks;
  std::vector<const double*> a_ptrs, block_ptrs;
  std::vector<double> coeffs;
  std::size_t depth = 0;
  for (std::size_t mu = 0; mu < terms; ++mu) {
    a.push_back(random_matrix(kc[mu], dimi, rng));
    coeffs.push_back(rng.uniform(-2.0, 2.0));
    depth += kc[mu];
  }
  for (const auto& x : a) a_ptrs.push_back(x.data());
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t mu = 0; mu < terms; ++mu)
      blocks.push_back(random_matrix(kc[mu], k, rng));
  }
  for (const auto& x : blocks) block_ptrs.push_back(x.data());
  std::vector<std::size_t> start{0, 2};
  for (std::size_t s = 1; s < n; ++s) start.push_back(start.back() + 1);
  const std::size_t count = start.back();
  std::vector<std::vector<double>> init;
  for (std::size_t t = 0; t < count; ++t)
    init.push_back(random_matrix(dimi, k, rng));

  // Reference: the stacked operands, one mTxm_ref into a zeroed product,
  // then target += product.
  std::vector<double> a_st;
  for (std::size_t mu = 0; mu < terms; ++mu) {
    for (const double x : a[mu]) a_st.push_back(coeffs[mu] * x);
  }
  std::vector<std::vector<double>> ref = init;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> b_st;
    for (std::size_t mu = 0; mu < terms; ++mu) {
      const auto& h = blocks[s * terms + mu];
      b_st.insert(b_st.end(), h.begin(), h.end());
    }
    std::vector<double> product(dimi * k, 0.0);
    mTxm_ref(dimi, k, depth, product.data(), a_st.data(), b_st.data());
    for (std::size_t t = start[s]; t < start[s + 1]; ++t) {
      for (std::size_t e = 0; e < product.size(); ++e)
        ref[t][e] += product[e];
    }
  }

  std::vector<std::vector<double>> got = init;
  std::vector<double*> targets;
  for (auto& g : got) targets.push_back(g.data());
  std::vector<double> apack(4 * std::max<std::size_t>(depth, 1));
  kernel({dimi, k, terms, kc.data(), a_ptrs.data(), coeffs.data(),
          block_ptrs.data(), n, start.data(), targets.data()},
         apack.data());
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t e = 0; e < got[t].size(); ++e) {
      ASSERT_EQ(got[t][e], ref[t][e])
          << dimi << "x" << k << " K " << depth << " n " << n << " target "
          << t << " element " << e;
    }
  }
}

TEST(BatchGemm, FanOutEpilogueKernelsAgreeBitwise) {
  // The stacked last-mode kernel, portable and dispatched, against
  // mTxm_ref on the stacked operands followed by the add into each
  // target, for 1..k slots: dimi = 25 leaves a row tail, and k = 20 runs
  // the kernels at an order above 10 (two 4x8 tiles and a 4x4 one).
  struct Case {
    std::size_t dimi, k;
    std::vector<std::size_t> kc;
  };
  const std::vector<Case> cases{
      {25, 5, {5, 5, 5}},
      {25, 5, {5, 3, 5, 1}},
      {1000, 10, {10, 10}},
      {1000, 10, {10}},
      {400, 20, {20, 13, 1}},
  };
  for (const Case& c : cases) {
    for (std::size_t n = 1; n <= c.k; ++n) {
      for (const detail::FanOutKernelFn kernel :
           {detail::fan_out_portable, detail::fan_out_kernel()}) {
        check_fan_out(kernel, c.dimi, c.k, c.kc, n, c.dimi + c.k + n);
      }
    }
  }
  // Exact zeros: an all-zero A over targets of -0.0. Each element becomes
  // -0.0 + (0.0 + acc) = +0.0 whatever the weight's sign; ASSERT_EQ
  // cannot tell -0 from +0, so compare bytes.
  const std::size_t dimi = 9, k = 5;
  const std::vector<double> zero_a(k * dimi, 0.0);
  Rng rng(3);
  const auto block = random_matrix(k, k, rng);
  const double* a_ptrs[2] = {zero_a.data(), zero_a.data()};
  const double* block_ptrs[2] = {block.data(), block.data()};
  const std::size_t kc[2] = {k, k};
  const double coeffs[2] = {0.75, -0.75};
  const std::size_t start[2] = {0, 2};
  for (const detail::FanOutKernelFn kernel :
       {detail::fan_out_portable, detail::fan_out_kernel()}) {
    std::vector<std::vector<double>> got(2,
                                         std::vector<double>(dimi * k, -0.0));
    std::vector<std::vector<double>> ref = got;
    std::vector<double> a_st, b_st;
    for (std::size_t mu = 0; mu < 2; ++mu) {
      for (const double x : zero_a) a_st.push_back(coeffs[mu] * x);
      b_st.insert(b_st.end(), block.begin(), block.end());
    }
    std::vector<double> product(dimi * k, 0.0);
    mTxm_ref(dimi, k, 2 * k, product.data(), a_st.data(), b_st.data());
    for (auto& r : ref) {
      for (std::size_t e = 0; e < r.size(); ++e) r[e] += product[e];
    }
    double* targets[2] = {got[0].data(), got[1].data()};
    std::vector<double> apack(4 * 2 * k);
    kernel({dimi, k, 2, kc, a_ptrs, coeffs, block_ptrs, 1, start, targets},
           apack.data());
    for (std::size_t t = 0; t < 2; ++t) {
      EXPECT_EQ(std::memcmp(got[t].data(), ref[t].data(),
                            got[t].size() * sizeof(double)),
                0)
          << "target " << t;
    }
  }
}

TEST(BatchGemm, StoreKernelsWriteWhatAZeroedTargetReceives) {
  // Prefix nodes and transform-chain steps store c = 0.0 + acc instead of
  // zeroing c and adding the product into it: bitwise the same, signed
  // zeros included, and c's old contents (-0.0 or NaN here) never read.
  // Portable and dispatched, on tiled shapes with column and row tails,
  // at full, reduced and zero contraction length, over a random A and an
  // all-zero one (whose products are -0.0 wherever B is negative).
  for (const auto& [di, dj, dk] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{25, 5, 5},
        {100, 10, 10},
        {49, 7, 7},
        {3, 9, 4}}) {
    Rng rng(di * 3 + dj + dk);
    const auto at = random_matrix(dk, di, rng);
    const std::vector<double> zero_a(dk * di, 0.0);
    const auto b = random_matrix(dk, dj, rng);
    for (const double* a : {at.data(), zero_a.data()}) {
      for (const std::size_t kc : {dk, dk / 2, std::size_t{0}}) {
        std::vector<double> ref(di * dj, 0.0);
        mTxm_reduced_ref(di, dj, dk, kc, ref.data(), a, b.data());
        std::vector<double> apack(4 * std::max<std::size_t>(kc, 1));
        for (const detail::MTxmKernelFn kernel :
             {detail::mtxm_store_portable, detail::mtxm_store_kernel()}) {
          for (const double fill : {-0.0, std::nan("")}) {
            std::vector<double> c(di * dj, fill);
            kernel(di, dj, kc, c.data(), a, b.data(), apack.data());
            EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                                  c.size() * sizeof(double)),
                      0)
                << di << "x" << dj << " kc " << kc << " fill " << fill;
          }
        }
      }
    }
  }
}

TEST(BatchGemm, StackedKernelParityCases) {
  // The contraction shapes the stacked last mode adds, portable tile and
  // dispatched kernel each bitwise against mTxm_ref on the stacked
  // operands: an odd K (the unroll-by-two tail), mixed kc with kc = 1 in
  // between, k = 7 (a 4-wide tile and a three-column tail) and the
  // paper-sized K = 1000 (M = 100 terms at k = 10).
  struct Case {
    std::size_t dimi, k;
    std::vector<std::size_t> kc;
    std::size_t n;
  };
  const std::vector<Case> cases{
      {25, 5, std::vector<std::size_t>(7, 5), 3},          // K = 35
      {49, 7, {7, 1, 4, 1, 7, 2}, 4},                      // mixed, K = 22
      {49, 7, std::vector<std::size_t>(5, 7), 7},          // K = 35
      {100, 10, {1, 10, 3, 1}, 2},                         // K = 15
      {100, 10, std::vector<std::size_t>(100, 10), 2},     // K = 1000
  };
  for (const Case& c : cases) {
    for (const detail::FanOutKernelFn kernel :
         {detail::fan_out_portable, detail::fan_out_kernel()}) {
      check_fan_out(kernel, c.dimi, c.k, c.kc, c.n, 31 * c.dimi + c.kc.size());
    }
  }
}

TEST(BatchGemm, FoldedTailTilesAgreeBitwise) {
  // Behind a 4x4 tile (widths 5..7 and 13) the AVX2 kernels fold a slot's
  // 1..3 remaining columns into that tile; the other widths keep the
  // cross-slot column run. The add, store and fan-out kernels, portable and
  // dispatched, each bitwise against mTxm_ref at every width 1..9 and 13,
  // over 1..3-row tail panels (dimi 1, 2, 3, 5, 6, 7, 25), with a mixed
  // kc vector and 1, 2, 5 and 6 slots.
  const std::vector<std::size_t> widths{1, 2, 3, 4, 5, 6, 7, 8, 9, 13};
  const std::vector<std::size_t> rows{1, 2, 3, 5, 6, 7, 25};
  const std::vector<std::size_t> kc{3, 1, 5, 2};
  for (const std::size_t dj : widths) {
    for (const std::size_t di : rows) {
      Rng rng(di * 131 + dj);
      const std::size_t dk = 6;
      const auto at = random_matrix(dk, di, rng);
      const auto b = random_matrix(dk, dj, rng);
      const auto init = random_matrix(di, dj, rng);
      std::vector<double> apack(4 * dk);
      GemmWorkspace ws;
      for (const std::size_t k : {dk, std::size_t{5}, std::size_t{1}}) {
        std::vector<double> ref = init;
        mTxm_reduced_ref(di, dj, dk, k, ref.data(), at.data(), b.data());
        std::vector<double> packed = init;
        std::vector<double> portable = init;
        mTxm_packed(di, dj, dk, k, packed.data(), at.data(), b.data(), ws);
        detail::mtxm_portable(di, dj, k, portable.data(), at.data(),
                              b.data(), apack.data());
        EXPECT_EQ(packed, ref) << di << "x" << dj << " kc " << k;
        EXPECT_EQ(portable, ref) << di << "x" << dj << " kc " << k;
        std::vector<double> zeroed(di * dj, 0.0);
        mTxm_reduced_ref(di, dj, dk, k, zeroed.data(), at.data(), b.data());
        for (const detail::MTxmKernelFn kernel :
             {detail::mtxm_store_portable, detail::mtxm_store_kernel()}) {
          std::vector<double> c(di * dj, std::nan(""));
          kernel(di, dj, k, c.data(), at.data(), b.data(), apack.data());
          EXPECT_EQ(std::memcmp(c.data(), zeroed.data(),
                                c.size() * sizeof(double)),
                    0)
              << "store " << di << "x" << dj << " kc " << k;
        }
      }
      for (const std::size_t n : {1, 2, 5, 6}) {
        for (const detail::FanOutKernelFn kernel :
             {detail::fan_out_portable, detail::fan_out_kernel()}) {
          check_fan_out(kernel, di, dj, kc, n, di * 1009 + dj * 17 + n);
        }
      }
    }
  }
}

TEST(BatchGemm, EmptyBatchIsANoOp) {
  GemmWorkspace ws;
  batch_fused_apply(3, 5, {}, ws);
  EXPECT_EQ(ws.stats().packed_gemms, 0u);
  EXPECT_EQ(ws.stats().fused_chains, 0u);
}

TEST(BatchGemm, VectorAndDegenerateChains) {
  // 1-D tensor (rest = 1) and an empty chain (pure copy).
  const std::size_t k = 7;
  Rng rng(55);
  const auto v = random_matrix(1, k, rng);
  const auto h = random_matrix(k, 3, rng);
  std::vector<double> out(3, 0.0), ref(3, 0.0);
  const std::size_t shape[1] = {k};
  const GemmMat mats[1] = {{h.data(), k, 3}};
  GemmWorkspace ws;
  fused_transform_chain({shape, 1}, v.data(), {mats, 1}, k, out.data(), ws);
  mTxm_ref(1, 3, k, ref.data(), v.data(), h.data());
  for (std::size_t i = 0; i < 3; ++i) ASSERT_EQ(out[i], ref[i]);

  std::vector<double> copy(k, 0.0);
  fused_transform_chain({shape, 1}, v.data(), {}, k, copy.data(), ws);
  for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(copy[i], v[i]);
}

}  // namespace
}  // namespace mh::linalg
