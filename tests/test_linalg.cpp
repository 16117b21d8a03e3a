// Unit tests for src/linalg: GEMM kernels, QR, SVD.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

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
  ASSERT_EQ(chain_output_size({shape, 3}, {mats, 3}), size);
  for (std::size_t i = 0; i < size; ++i) ASSERT_EQ(fused[i], ref[i]);
}

TEST(BatchGemm, FusedApplyChainBitwiseEqualsTermByTermComposition) {
  // Multi-term fusion: result += sum_mu coeff[mu] * chain_mu, with per-term
  // reduced rank, against the composed scalar path (zeroed temporaries,
  // mTxm_reduced_ref per mode, gaxpy-style epilogue).
  const std::size_t d = 3, k = 12, rest = k * k, size = k * k * k;
  const std::size_t terms = 4;
  Rng rng(4242);
  const auto src = random_matrix(k, rest, rng);
  std::vector<std::vector<double>> h;
  for (std::size_t i = 0; i < terms * d; ++i)
    h.push_back(random_matrix(k, k, rng));
  const double coeffs[terms] = {1.5, -0.25, 3.0, 0.125};
  const std::size_t kreds[terms] = {k, 7, k, 1};

  // Reference: term-by-term, mode-by-mode through the scalar kernels.
  std::vector<double> ref(size, 0.0625);
  for (std::size_t mu = 0; mu < terms; ++mu) {
    std::vector<double> cur(src);
    for (std::size_t m = 0; m < d; ++m) {
      std::vector<double> next(size, 0.0);
      mTxm_reduced_ref(rest, k, k, kreds[mu], next.data(), cur.data(),
                       h[mu * d + m].data());
      cur = std::move(next);
    }
    for (std::size_t i = 0; i < size; ++i)
      ref[i] = 1.0 * ref[i] + coeffs[mu] * cur[i];
  }

  std::vector<GemmMat> mats;
  for (std::size_t i = 0; i < terms * d; ++i)
    mats.push_back(GemmMat{h[i].data(), k, k});
  std::vector<double> out(size, 0.0625);
  GemmWorkspace ws;
  fused_apply_chain(d, k, src.data(), {mats.data(), mats.size()},
                    {coeffs, terms}, {kreds, terms}, out.data(), ws);
  EXPECT_EQ(ws.stats().fused_chains, 1u);
  for (std::size_t i = 0; i < size; ++i) ASSERT_EQ(out[i], ref[i]);
}

TEST(BatchGemm, BatchedFusedApplySharesOneWorkspace) {
  // batch_fused_apply must equal per-item fused_apply_chain calls (it IS
  // that loop, with buffers reused), and the workspace must see every item.
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
    fused_apply_chain(d, k, srcs[i].data(), {mats[i].data(), mats[i].size()},
                      {coeffs, terms}, {}, expected[i].data(), ws);
    for (std::size_t e = 0; e < size; ++e)
      ASSERT_EQ(results[i][e], expected[i][e]);
  }
}

// Shared-prefix batches: items over a few sources whose blocks come from a
// per-term table indexed by a 1-D displacement, as an Apply operator's do.
struct PrefixBatch {
  PrefixBatch(std::size_t d_, std::size_t k_, std::size_t terms_,
              std::size_t sources, std::int64_t reach_, std::uint64_t seed)
      : d(d_), k(k_), terms(terms_), reach(reach_), rng(seed) {
    std::size_t size = 1;
    for (std::size_t m = 0; m < d; ++m) size *= k;
    for (std::size_t s = 0; s < sources; ++s)
      srcs.push_back(random_matrix(1, size, rng));
    for (std::size_t i = 0; i < terms * width(); ++i)
      table.push_back(random_matrix(k, k, rng));
    for (std::size_t mu = 0; mu < terms; ++mu)
      coeffs.push_back(rng.uniform(-2.0, 2.0));
  }

  std::size_t width() const { return static_cast<std::size_t>(2 * reach + 1); }

  /// Item over source `s` at displacement `disp` (d components), with
  /// per-term reduced ranks `kreds` (empty: full rank) and `nterms` terms
  /// (0: all).
  void add(std::size_t s, const std::vector<std::int64_t>& disp,
           std::vector<std::size_t> kreds = {}, std::size_t nterms = 0) {
    if (nterms == 0) nterms = terms;
    Slot slot;
    slot.src = s;
    for (std::size_t mu = 0; mu < nterms; ++mu) {
      for (std::size_t m = 0; m < d; ++m) {
        const auto col = static_cast<std::size_t>(disp[m] + reach);
        slot.mats.push_back({table[mu * width() + col].data(), k, k});
      }
    }
    slot.kreds = std::move(kreds);
    slot.nterms = nterms;
    slot.result = random_matrix(1, srcs[s].size(), rng);
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

  /// Distinct (term, src, kc, block prefix) nodes: the GEMMs a batch that
  /// shares every common prefix must execute.
  std::size_t distinct_nodes() const {
    std::set<std::vector<std::uintptr_t>> nodes;
    for (const Slot& slot : slots) {
      for (std::size_t mu = 0; mu < slot.nterms; ++mu) {
        std::vector<std::uintptr_t> key{
            mu, slot.src,
            slot.kreds.empty() ? k : std::min(slot.kreds[mu], k)};
        for (std::size_t m = 0; m < d; ++m) {
          key.push_back(reinterpret_cast<std::uintptr_t>(
              slot.mats[mu * d + m].ptr));
          nodes.insert(key);
        }
      }
    }
    return nodes.size();
  }

  /// Microkernel calls of a batch that shares every common prefix and fans
  /// out the last mode: the nodes of modes 0..d-2, plus per mode-(d-2)
  /// node one call per fan_out_limit(k) distinct last blocks.
  std::size_t fan_out_calls() const {
    std::set<std::vector<std::uintptr_t>> inner;
    std::map<std::vector<std::uintptr_t>, std::set<const double*>> children;
    for (const Slot& slot : slots) {
      for (std::size_t mu = 0; mu < slot.nterms; ++mu) {
        std::vector<std::uintptr_t> key{
            mu, slot.src,
            slot.kreds.empty() ? k : std::min(slot.kreds[mu], k)};
        for (std::size_t m = 0; m + 1 < d; ++m) {
          key.push_back(reinterpret_cast<std::uintptr_t>(
              slot.mats[mu * d + m].ptr));
          inner.insert(key);
        }
        children[key].insert(slot.mats[mu * d + d - 1].ptr);
      }
    }
    const std::size_t cap = fan_out_limit(k);
    std::size_t calls = inner.size();
    for (const auto& [node, blocks] : children)
      calls += (blocks.size() + cap - 1) / cap;
    return calls;
  }

  /// Runs the whole batch through one workspace and checks every result
  /// bitwise against the scalar composition and against the item's own
  /// fused_apply_chain. Returns the batch's engine counters.
  BatchGemmStats run_and_check() const {
    std::vector<std::vector<double>> batched = initial_results();
    GemmWorkspace ws;
    batch_fused_apply(d, k, items(batched), ws);
    EXPECT_EQ(ws.stats().fused_chains, slots.size());

    std::vector<std::vector<double>> single = initial_results();
    const std::vector<FusedApplyItem> alone = items(single);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      const std::size_t size = slot.result.size();
      const std::size_t rest = size / k;
      GemmWorkspace own;
      fused_apply_chain(d, k, alone[i].src, alone[i].mats, alone[i].coeffs,
                        alone[i].kreds, alone[i].result, own);
      std::vector<double> ref = slot.result;
      for (std::size_t mu = 0; mu < slot.nterms; ++mu) {
        const std::size_t kred =
            slot.kreds.empty() ? k : std::min(slot.kreds[mu], k);
        std::vector<double> cur = srcs[slot.src];
        for (std::size_t m = 0; m < d; ++m) {
          std::vector<double> next(size, 0.0);
          mTxm_reduced_ref(rest, k, k, kred, next.data(), cur.data(),
                           slot.mats[mu * d + m].ptr);
          cur = std::move(next);
        }
        for (std::size_t e = 0; e < size; ++e)
          ref[e] = 1.0 * ref[e] + coeffs[mu] * cur[e];
      }
      for (std::size_t e = 0; e < size; ++e) {
        EXPECT_EQ(batched[i][e], ref[e]) << "item " << i;
        EXPECT_EQ(single[i][e], ref[e]) << "item " << i;
        if (batched[i][e] != ref[e] || single[i][e] != ref[e]) break;
      }
    }
    return ws.stats();
  }

  struct Slot {
    std::size_t src = 0;
    std::vector<GemmMat> mats;
    std::vector<std::size_t> kreds;
    std::size_t nterms = 0;
    std::vector<double> result;
  };

  std::size_t d, k, terms;
  std::int64_t reach;
  Rng rng;
  std::vector<std::vector<double>> srcs;
  std::vector<std::vector<double>> table;  ///< [mu * width() + m + reach]
  std::vector<double> coeffs;
  std::vector<Slot> slots;
};

TEST(BatchGemm, LeafBatchSharesModePrefixesBitwise) {
  // One source through every displacement of a small lattice: term mu's
  // mode-0..j intermediate depends only on the leading j + 1 displacement
  // components, so the batch computes one node per distinct prefix —
  // width + width^2 + ... + width^d per term — instead of d per item, and
  // takes the width last-mode children of each mode-(d-2) node in one
  // wide product.
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
    EXPECT_EQ(st.prefix_nodes, b.distinct_nodes()) << "d = " << d;
    // width <= k, so every mode-(d-2) node is one fan-out call.
    ASSERT_LE(b.width(), fan_out_limit(k));
    const std::size_t calls = per_term - level + level / b.width();
    EXPECT_EQ(b.fan_out_calls(), b.terms * calls);
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
  EXPECT_EQ(st.prefix_nodes, b.distinct_nodes());
  EXPECT_EQ(st.packed_gemms, b.fan_out_calls());
  EXPECT_LT(b.distinct_nodes(), 8u * 4u * 3u);
}

TEST(BatchGemm, DifferentReducedRanksDoNotShare) {
  // Same source, same blocks: items share a term's chain only when its
  // contraction length matches. kreds >= k is full rank, like no kreds.
  const std::size_t k = 5;
  PrefixBatch b(3, k, /*terms=*/2, /*sources=*/1, /*reach=*/1, 7);
  b.add(0, {1, 0, 1}, {k, 3});
  b.add(0, {1, 0, 1}, {k, 4});
  b.add(0, {1, 0, 1});
  b.add(0, {1, 0, 1}, {k + 2, 3});
  // Term 0: one full-rank chain. Term 1: contraction lengths 3, 4 and k.
  EXPECT_EQ(b.distinct_nodes(), 3u + 3u * 3u);
  const BatchGemmStats st = b.run_and_check();
  EXPECT_EQ(st.prefix_nodes, b.distinct_nodes());
  // One fan-out call per (term, kc) chain: nothing to widen.
  EXPECT_EQ(st.packed_gemms, b.distinct_nodes());
}

TEST(BatchGemm, FanOutLastModeBitwise) {
  // Runs of items below one mode-(d-2) node, with 1 up to more than
  // fan_out_limit(k) distinct last blocks, plus duplicate last blocks,
  // mixed kreds within one prefix group and items with fewer terms, over
  // non-zero initial results. k = 7 leaves a 4-wide tile and a
  // column-vector tail in every wide product.
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
      b.add(big_src, run_at(big, 4 - reach), {}, /*nterms=*/1);
      b.add(0, run_at(0, 0), {}, /*nterms=*/2);
      // Term 0 reduced in two runs of one source: the call's one ordering
      // must not separate them from their run for the later terms.
      b.add(d == 1 ? 2 : 0, run_at(2, 0), {2, k, k});
      b.add(d == 1 ? 4 : 0, run_at(4, 0), {2, k, k});

      const BatchGemmStats st = b.run_and_check();
      EXPECT_EQ(st.prefix_nodes, b.distinct_nodes()) << d << " " << k;
      EXPECT_EQ(st.packed_gemms, b.fan_out_calls()) << d << " " << k;
      EXPECT_LT(st.packed_gemms, st.prefix_nodes) << d << " " << k;
    }
  }
}

TEST(BatchGemm, WarmCallsAllocateNothing) {
  // The workspace buffers, the call's order and its per-term regrouping
  // only grow: a warm call, and a smaller batch after it, move none of
  // them.
  const std::size_t k = 5;
  PrefixBatch b(3, k, /*terms=*/3, /*sources=*/1, /*reach=*/3, 5);
  b.add_leaf();  // 7 last-mode children per node: past fan_out_limit(5)
  b.add(0, {0, 0, 0}, {k, 2, 4});
  std::vector<std::vector<double>> results = b.initial_results();
  const std::vector<FusedApplyItem> items = b.items(results);
  GemmWorkspace ws;
  const auto storage = [&ws] {
    const GemmWorkspace::ShareScratch& sc = ws.share_scratch();
    return std::vector<const void*>{
        ws.pack_a(0), ws.prefix(0), sc.keys.data(), sc.order.data(),
        sc.kc_start.data(), sc.term_order.data(), sc.fan_blocks.data(),
        sc.fan_slot.data(), sc.fan_start.data(), sc.fan_targets.data()};
  };
  batch_fused_apply(3, k, items, ws);
  const std::vector<const void*> warm = storage();
  batch_fused_apply(3, k, items, ws);
  EXPECT_EQ(storage(), warm);
  batch_fused_apply(3, k, {items.data(), items.size() / 2}, ws);
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

TEST(BatchGemm, FanOutEpilogueKernelsAgreeBitwise) {
  // The fused last-mode kernel, portable and dispatched, against mTxm_ref
  // into a zeroed product followed by the gaxpy result + coeff * chain.
  // Each block is its own allocation read in place, so a tile that reads
  // past a block's k columns shows up under ASan. Slot 0 has two items
  // with different coefficients; dimi = 25 leaves a row tail, and k = 20
  // runs the kernels at an order above 10 (two 4x8 tiles and a 4x4 one).
  for (const auto& [dimi, k] :
       {std::pair<std::size_t, std::size_t>{25, 5}, {1000, 10}, {400, 20}}) {
    Rng rng(dimi + k);
    const auto a = random_matrix(k, dimi, rng);
    for (std::size_t n = 1; n <= k; ++n) {
      std::vector<std::vector<double>> blocks;
      std::vector<const double*> block_ptrs;
      for (std::size_t s = 0; s < n; ++s) {
        blocks.push_back(random_matrix(k, k, rng));
        block_ptrs.push_back(blocks.back().data());
      }
      // Targets grouped by slot: slot 0 has two, every other slot one.
      std::vector<std::size_t> start{0, 2};
      for (std::size_t s = 1; s < n; ++s) start.push_back(start.back() + 1);
      const std::size_t count = start.back();
      std::vector<double> coeffs;
      for (std::size_t t = 0; t < count; ++t)
        coeffs.push_back(rng.uniform(-2.0, 2.0));
      std::vector<std::vector<double>> init;
      for (std::size_t t = 0; t < count; ++t)
        init.push_back(random_matrix(dimi, k, rng));
      for (const std::size_t kc : {k, k - 2, std::size_t{1}}) {
        std::vector<std::vector<double>> ref = init;
        for (std::size_t s = 0; s < n; ++s) {
          std::vector<double> chain(dimi * k, 0.0);
          mTxm_reduced_ref(dimi, k, k, kc, chain.data(), a.data(),
                           blocks[s].data());
          for (std::size_t t = start[s]; t < start[s + 1]; ++t) {
            for (std::size_t e = 0; e < chain.size(); ++e)
              ref[t][e] = 1.0 * ref[t][e] + coeffs[t] * chain[e];
          }
        }
        for (const detail::FanOutKernelFn kernel :
             {detail::fan_out_portable, detail::fan_out_kernel()}) {
          std::vector<std::vector<double>> got = init;
          std::vector<FanOutTarget> targets;
          for (std::size_t t = 0; t < count; ++t)
            targets.push_back({got[t].data(), coeffs[t]});
          std::vector<double> apack(4 * k);
          kernel(dimi, k, kc, a.data(), block_ptrs.data(), n, start.data(),
                 targets.data(), apack.data());
          for (std::size_t t = 0; t < count; ++t) {
            for (std::size_t e = 0; e < got[t].size(); ++e) {
              ASSERT_EQ(got[t][e], ref[t][e])
                  << dimi << "x" << k << " n " << n << " kc " << kc
                  << " target " << t << " element " << e;
            }
          }
        }
      }
    }
  }
  // Exact zeros: an all-zero A over results of -0.0. Each element becomes
  // -0.0 + coeff * (+0.0), whose sign depends on the coefficient's;
  // ASSERT_EQ cannot tell -0 from +0, so compare bytes.
  const std::size_t dimi = 9, k = 5;
  const std::vector<double> zero_a(k * dimi, 0.0);
  Rng rng(3);
  const auto block = random_matrix(k, k, rng);
  const double* block_ptr = block.data();
  const std::size_t start[2] = {0, 2};
  const double coeffs[2] = {0.75, -0.75};
  for (const detail::FanOutKernelFn kernel :
       {detail::fan_out_portable, detail::fan_out_kernel()}) {
    std::vector<std::vector<double>> got(2,
                                         std::vector<double>(dimi * k, -0.0));
    std::vector<std::vector<double>> ref = got;
    std::vector<double> chain(dimi * k, 0.0);
    mTxm_ref(dimi, k, k, chain.data(), zero_a.data(), block.data());
    for (std::size_t t = 0; t < 2; ++t) {
      for (std::size_t e = 0; e < chain.size(); ++e)
        ref[t][e] = 1.0 * ref[t][e] + coeffs[t] * chain[e];
    }
    const FanOutTarget targets[2] = {{got[0].data(), coeffs[0]},
                                     {got[1].data(), coeffs[1]}};
    std::vector<double> apack(4 * k);
    kernel(dimi, k, k, zero_a.data(), &block_ptr, 1, start, targets,
           apack.data());
    for (std::size_t t = 0; t < 2; ++t) {
      EXPECT_EQ(std::memcmp(got[t].data(), ref[t].data(),
                            got[t].size() * sizeof(double)),
                0)
          << "target " << t;
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

TEST(Qr, ReproducesMatrixAndOrthonormalQ) {
  Rng rng(42);
  const std::size_t m = 12, n = 5;
  const auto a = random_matrix(m, n, rng);
  const QrResult f = qr(a, m, n);
  // a == q r
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        acc += f.q[i * n + k] * f.r[k * n + j];
      EXPECT_NEAR(acc, a[i * n + j], 1e-12);
    }
  }
  // q^T q == I
  for (std::size_t c1 = 0; c1 < n; ++c1) {
    for (std::size_t c2 = 0; c2 < n; ++c2) {
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i)
        acc += f.q[i * n + c1] * f.q[i * n + c2];
      EXPECT_NEAR(acc, c1 == c2 ? 1.0 : 0.0, 1e-12);
    }
  }
  // r upper triangular
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_DOUBLE_EQ(f.r[i * n + j], 0.0);
}

TEST(Qr, SquareIdentity) {
  std::vector<double> eye(9, 0.0);
  eye[0] = eye[4] = eye[8] = 1.0;
  const QrResult f = qr(eye, 3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(std::abs(f.q[i * 3 + j]), i == j ? 1.0 : 0.0, 1e-14);
}

TEST(Qr, RejectsWideMatrix) {
  EXPECT_THROW(qr(std::vector<double>(6, 1.0), 2, 3), Error);
}

TEST(Svd, ReconstructsMatrix) {
  Rng rng(17);
  const std::size_t m = 9, n = 6;
  const auto a = random_matrix(m, n, rng);
  const SvdResult f = svd(a, m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        acc += f.u[i * n + k] * f.s[k] * f.v[j * n + k];
      EXPECT_NEAR(acc, a[i * n + j], 1e-10);
    }
  }
}

TEST(Svd, SingularValuesDescendingNonNegative) {
  Rng rng(18);
  const auto a = random_matrix(8, 8, rng);
  const SvdResult f = svd(a, 8, 8);
  for (std::size_t i = 0; i + 1 < f.s.size(); ++i) {
    EXPECT_GE(f.s[i], f.s[i + 1]);
    EXPECT_GE(f.s[i + 1], 0.0);
  }
}

TEST(Svd, DiagonalMatrixHasKnownSpectrum) {
  std::vector<double> a(9, 0.0);
  a[0] = 3.0;
  a[4] = -2.0;  // sign goes into the vectors, not sigma
  a[8] = 1.0;
  const SvdResult f = svd(a, 3, 3);
  EXPECT_NEAR(f.s[0], 3.0, 1e-12);
  EXPECT_NEAR(f.s[1], 2.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(Svd, RankDetectsLowRank) {
  // Outer product of two vectors: rank 1.
  const std::size_t m = 7, n = 5;
  std::vector<double> a(m * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a[i * n + j] = (1.0 + static_cast<double>(i)) *
                     (2.0 - 0.3 * static_cast<double>(j));
  const SvdResult f = svd(a, m, n);
  EXPECT_EQ(f.rank(1e-10), 1u);
}

TEST(Svd, OrthonormalFactors) {
  Rng rng(23);
  const std::size_t m = 10, n = 4;
  const auto a = random_matrix(m, n, rng);
  const SvdResult f = svd(a, m, n);
  for (std::size_t c1 = 0; c1 < n; ++c1) {
    for (std::size_t c2 = 0; c2 < n; ++c2) {
      double uu = 0.0, vv = 0.0;
      for (std::size_t i = 0; i < m; ++i)
        uu += f.u[i * n + c1] * f.u[i * n + c2];
      for (std::size_t i = 0; i < n; ++i)
        vv += f.v[i * n + c1] * f.v[i * n + c2];
      EXPECT_NEAR(uu, c1 == c2 ? 1.0 : 0.0, 1e-10);
      EXPECT_NEAR(vv, c1 == c2 ? 1.0 : 0.0, 1e-10);
    }
  }
}

}  // namespace
}  // namespace mh::linalg
