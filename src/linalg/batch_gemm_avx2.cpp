// AVX2 microkernels for the batched small-GEMM engine. This TU is compiled
// with -mavx2 -ffp-contract=off (see src/linalg/CMakeLists.txt) and only on
// x86-64; batch_gemm.cpp selects it at runtime when the CPU reports AVX2.
//
// Structure: 4-wide i-panels of a are packed k-major into `apack` (tail
// panels zero-padded so the microkernel shape never changes), then 4x8 and
// 4x4 register tiles walk contiguous rows of each b block. The 1..3
// columns a block leaves over run as column vectors on the same panel, the
// leftovers of all blocks in one run: one 4-lane accumulator per column
// (lane r = row r), up to eight columns per pass so their add chains
// overlap. Each tile hands its finished accumulators to an epilogue: mtxm
// (one block) adds them into c; the fan-out kernel (batch_fused_apply's
// last mode) walks its n last blocks in place under one packed panel and
// adds coeff * (0.0 + acc) into every result that reads the block. Only
// _mm256_mul_pd + _mm256_add_pd are used — never FMA — and each output
// element sees exactly the reference operation order (zeroed accumulator,
// ascending k, one final add into c), so results are bitwise-identical to
// mTxm_ref.
//
// Every contraction loop is unrolled by exactly two: fully unrolled, GCC
// hoists the loads of all iterations and spills the accumulators, while by
// two the whole 4x8 tile (8 accumulators + 2 b-loads + 1 broadcast = 11
// ymm) stays in registers. A full 4-row panel runs its tiles with rows = 4
// as a constant, so its epilogues store without row checks.
#include "linalg/batch_gemm_kernels.hpp"

#if defined(MH_LINALG_HAVE_AVX2_TU)

#include <immintrin.h>

#include <algorithm>

namespace mh::linalg::detail {
namespace {

// Tile epilogues: where the finished accumulators of block s go.
// tile(s, j, rows, acc) takes acc[r][w] = columns j+4w..j+4w+3 of panel
// row r; column(s, j, rows, acc) takes column j, lane r = row r. Rows
// past `rows` are zero-padding and are never stored.

// mtxm: one block, c += acc, c already offset to the panel's first row.
struct AddInto {
  double* c;
  std::size_t ldc;

  template <int W>
  void tile(std::size_t, std::size_t j, std::size_t rows,
            const __m256d (&acc)[4][W]) const {
    // r < 4 lets the loop unroll over acc's constant indices.
    for (std::size_t r = 0; r < 4 && r < rows; ++r) {
      double* p = c + r * ldc + j;
      for (int w = 0; w < W; ++w) {
        _mm256_storeu_pd(p + 4 * w,
                         _mm256_add_pd(_mm256_loadu_pd(p + 4 * w), acc[r][w]));
      }
    }
  }
  void column(std::size_t, std::size_t j, std::size_t rows,
              __m256d acc) const {
    alignas(32) double lane[4];
    _mm256_store_pd(lane, acc);
    for (std::size_t r = 0; r < rows; ++r) c[r * ldc + j] += lane[r];
  }
};

// Fan-out: result += coeff * (0.0 + acc) for every target of block s;
// `row0` offsets each (dimi, k) result to the panel's first row.
struct ScaledAddInto {
  const std::size_t* start;
  const FanOutTarget* targets;
  std::size_t row0;
  std::size_t k;

  template <int W>
  void tile(std::size_t s, std::size_t j, std::size_t rows,
            const __m256d (&acc)[4][W]) const {
    __m256d z[4][W];
    for (int r = 0; r < 4; ++r) {
      for (int w = 0; w < W; ++w)
        z[r][w] = _mm256_add_pd(_mm256_setzero_pd(), acc[r][w]);
    }
    for (const FanOutTarget* t = targets + start[s];
         t != targets + start[s + 1]; ++t) {
      const __m256d cf = _mm256_set1_pd(t->coeff);
      double* p = t->result + row0 + j;
      for (std::size_t r = 0; r < 4 && r < rows; ++r) {
        for (int w = 0; w < W; ++w) {
          double* q = p + r * k + 4 * w;
          _mm256_storeu_pd(q, _mm256_add_pd(_mm256_loadu_pd(q),
                                            _mm256_mul_pd(cf, z[r][w])));
        }
      }
    }
  }
  void column(std::size_t s, std::size_t j, std::size_t rows,
              __m256d acc) const {
    const __m256d z = _mm256_add_pd(_mm256_setzero_pd(), acc);
    for (const FanOutTarget* t = targets + start[s];
         t != targets + start[s + 1]; ++t) {
      alignas(32) double w[4];
      _mm256_store_pd(w, _mm256_mul_pd(_mm256_set1_pd(t->coeff), z));
      double* p = t->result + row0 + j;
      for (std::size_t r = 0; r < rows; ++r) p[r * k] += w[r];
    }
  }
};

// One 4x8 tile: columns j..j+8 of block s over the panel's rows. `ap` is
// the packed panel (4 doubles per k), `b` already offset to column j.
template <class Epi>
inline void micro_4x8(std::size_t kc, const double* ap, const double* b,
                      std::size_t ldb, std::size_t s, std::size_t j,
                      std::size_t rows, const Epi& epi) {
  __m256d acc0l = _mm256_setzero_pd(), acc0h = _mm256_setzero_pd();
  __m256d acc1l = _mm256_setzero_pd(), acc1h = _mm256_setzero_pd();
  __m256d acc2l = _mm256_setzero_pd(), acc2h = _mm256_setzero_pd();
  __m256d acc3l = _mm256_setzero_pd(), acc3h = _mm256_setzero_pd();
#pragma GCC unroll 2
  for (std::size_t k = 0; k < kc; ++k) {
    const double* bk = b + k * ldb;
    const __m256d b0 = _mm256_loadu_pd(bk);
    const __m256d b1 = _mm256_loadu_pd(bk + 4);
    const double* apk = ap + 4 * k;
    __m256d av = _mm256_broadcast_sd(apk);
    acc0l = _mm256_add_pd(acc0l, _mm256_mul_pd(av, b0));
    acc0h = _mm256_add_pd(acc0h, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(apk + 1);
    acc1l = _mm256_add_pd(acc1l, _mm256_mul_pd(av, b0));
    acc1h = _mm256_add_pd(acc1h, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(apk + 2);
    acc2l = _mm256_add_pd(acc2l, _mm256_mul_pd(av, b0));
    acc2h = _mm256_add_pd(acc2h, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(apk + 3);
    acc3l = _mm256_add_pd(acc3l, _mm256_mul_pd(av, b0));
    acc3h = _mm256_add_pd(acc3h, _mm256_mul_pd(av, b1));
  }
  const __m256d acc[4][2] = {
      {acc0l, acc0h}, {acc1l, acc1h}, {acc2l, acc2h}, {acc3l, acc3h}};
  epi.tile(s, j, rows, acc);
}

template <class Epi>
inline void micro_4x4(std::size_t kc, const double* ap, const double* b,
                      std::size_t ldb, std::size_t s, std::size_t j,
                      std::size_t rows, const Epi& epi) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
#pragma GCC unroll 2
  for (std::size_t k = 0; k < kc; ++k) {
    const __m256d b0 = _mm256_loadu_pd(b + k * ldb);
    const double* apk = ap + 4 * k;
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_broadcast_sd(apk), b0));
    acc1 =
        _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_broadcast_sd(apk + 1), b0));
    acc2 =
        _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_broadcast_sd(apk + 2), b0));
    acc3 =
        _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_broadcast_sd(apk + 3), b0));
  }
  const __m256d acc[4][1] = {{acc0}, {acc1}, {acc2}, {acc3}};
  epi.tile(s, j, rows, acc);
}

// The columns past the blocks' 4-wide tiles, columns first..width-1 of
// every block in one sequence. Runs the NC of them from the cursor
// (block s, column j) and steps the cursor past them, as column vectors
// over the packed panel: acc_c += panel(k) * b(k, column c), one 4-lane
// accumulator per column (lane r = row r).
template <int NC, class Epi>
inline void micro_cols(std::size_t kc, const double* ap,
                       const double* const* blocks, std::size_t first,
                       std::size_t width, std::size_t& s, std::size_t& j,
                       std::size_t rows, const Epi& epi) {
  std::size_t cs[NC], cj[NC];
  const double* col[NC];
  for (int c = 0; c < NC; ++c) {
    cs[c] = s;
    cj[c] = j;
    col[c] = blocks[s] + j;
    if (++j == width) {
      j = first;
      ++s;
    }
  }
  __m256d acc[NC];
  for (int c = 0; c < NC; ++c) acc[c] = _mm256_setzero_pd();
#pragma GCC unroll 2
  for (std::size_t k = 0; k < kc; ++k) {
    const __m256d av = _mm256_loadu_pd(ap + 4 * k);
    for (int c = 0; c < NC; ++c) {
      const __m256d bv = _mm256_broadcast_sd(col[c] + k * width);
      acc[c] = _mm256_add_pd(acc[c], _mm256_mul_pd(av, bv));
    }
  }
  for (int c = 0; c < NC; ++c) epi.column(cs[c], cj[c], rows, acc[c]);
}

// Packs rows i0..i0+rows of a (row stride dimi) k-major into apack, the
// tail panel zero-padded so the microkernel shape never changes.
inline void pack_panel(std::size_t kc, const double* a, std::size_t dimi,
                       std::size_t i0, std::size_t rows, double* apack) {
  if (rows == 4) {
    for (std::size_t k = 0; k < kc; ++k) {
      const double* ak = a + k * dimi + i0;
      double* p = apack + 4 * k;
      p[0] = ak[0];
      p[1] = ak[1];
      p[2] = ak[2];
      p[3] = ak[3];
    }
  } else {
    for (std::size_t k = 0; k < kc; ++k) {
      const double* ak = a + k * dimi + i0;
      double* p = apack + 4 * k;
      p[0] = ak[0];
      p[1] = rows > 1 ? ak[1] : 0.0;
      p[2] = rows > 2 ? ak[2] : 0.0;
      p[3] = 0.0;
    }
  }
}

// Every tile of one packed panel across n (kc, width) blocks: each
// block's 4x8 and 4x4 tiles, then the 1..3 columns left in every block as
// one run of column vectors, up to 8 per pass so their add chains overlap.
template <class Epi>
[[gnu::always_inline]] inline void panel_tiles(
    std::size_t kc, const double* apack, const double* const* blocks,
    std::size_t n, std::size_t width, std::size_t rows, const Epi& epi) {
  const std::size_t tiled = width - width % 4;
  for (std::size_t s = 0; s < n; ++s) {
    const double* b = blocks[s];
    std::size_t j0 = 0;
    for (; j0 + 8 <= tiled; j0 += 8)
      micro_4x8(kc, apack, b + j0, width, s, j0, rows, epi);
    if (j0 < tiled) micro_4x4(kc, apack, b + j0, width, s, j0, rows, epi);
  }
  std::size_t left = n * (width - tiled);
  std::size_t s = 0, j = tiled;
  for (; left >= 8; left -= 8)
    micro_cols<8>(kc, apack, blocks, tiled, width, s, j, rows, epi);
  if (left >= 4) {
    micro_cols<4>(kc, apack, blocks, tiled, width, s, j, rows, epi);
    left -= 4;
  }
  if (left >= 2) {
    micro_cols<2>(kc, apack, blocks, tiled, width, s, j, rows, epi);
    left -= 2;
  }
  if (left == 1)
    micro_cols<1>(kc, apack, blocks, tiled, width, s, j, rows, epi);
}

// Packs each 4-row panel of a once and runs it over all n blocks;
// epi_at(i0) is the epilogue of the panel whose first row is i0.
template <class EpiAt>
void panels(std::size_t dimi, std::size_t kc, const double* a,
            const double* const* blocks, std::size_t n, std::size_t width,
            double* apack, const EpiAt& epi_at) {
  for (std::size_t i0 = 0; i0 < dimi; i0 += 4) {
    const std::size_t rows = std::min<std::size_t>(4, dimi - i0);
    pack_panel(kc, a, dimi, i0, rows, apack);
    const auto epi = epi_at(i0);
    if (rows == 4) {
      panel_tiles(kc, apack, blocks, n, width, 4, epi);
    } else {
      panel_tiles(kc, apack, blocks, n, width, rows, epi);
    }
  }
}

}  // namespace

void mtxm_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
               const double* a, const double* b, double* apack) {
  panels(dimi, kc, a, &b, 1, dimj, apack,
         [&](std::size_t i0) { return AddInto{c + i0 * dimj, dimj}; });
}

void fan_out_avx2(std::size_t dimi, std::size_t k, std::size_t kc,
                  const double* a, const double* const* blocks, std::size_t n,
                  const std::size_t* start, const FanOutTarget* targets,
                  double* apack) {
  panels(dimi, kc, a, blocks, n, k, apack, [&](std::size_t i0) {
    return ScaledAddInto{start, targets, i0 * k, k};
  });
}

}  // namespace mh::linalg::detail

#endif  // MH_LINALG_HAVE_AVX2_TU
