// AVX2 microkernels for the batched small-GEMM engine. This TU is compiled
// with -mavx2 -ffp-contract=off (see src/linalg/CMakeLists.txt) and only on
// x86-64; batch_gemm.cpp selects it at runtime when the CPU reports AVX2.
//
// Structure: 4-wide i-panels of a are packed k-major into `apack` (tail
// panels zero-padded so the microkernel shape never changes), then 4x8 and
// 4x4 register tiles walk contiguous rows of each b block. The 1..3
// columns a block leaves over run as column vectors on the same panel: one
// 4-lane accumulator per column (lane r = row r). Behind a 4x4 tile
// (widths 5..7, 13..15) they are folded into that tile's loop, a 4x5 tile
// at k = 5, so their add chains run beside the tile's. Otherwise (widths
// 1..3, and 9..11 behind a 4x8 tile, which already holds 8 accumulators)
// the leftovers of all blocks run after the tiles in one run, up to eight
// columns per pass so their add chains overlap. Either way each element
// keeps its own accumulator and order. The contraction is a list of
// segments: mtxm has one, the
// fan-out kernel (batch_fused_apply's last mode) one per separated term.
// Its packed panel stacks every term's rows, each scaled by the term's
// weight as it is packed, and each slot's B is the terms' last blocks,
// read in place one segment after the other; every tile runs the whole
// stacked contraction in registers. Each tile hands its finished
// accumulators to an epilogue: mtxm adds them into c, the store kernel
// writes 0.0 + acc to c; the fan-out kernel adds 0.0 + acc into every
// result that reads the slot. Only
// _mm256_mul_pd + _mm256_add_pd are used — never FMA — and each output
// element sees exactly the reference operation order (zeroed accumulator,
// ascending stacked k, one final add into c), so results are
// bitwise-identical to mTxm_ref on the stacked operands.
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

// The contraction of one panel pass: `terms` segments of kc[mu] packed
// rows each, in order; slot s's segment mu is blocks[s * terms + mu].
// mtxm is the one-segment case: its loop over segments measured no
// slower than a plain kc loop (EXPERIMENTS.md, "Term-stacked last mode").
struct Segs {
  std::size_t terms;
  const std::size_t* kc;
};

// Tile epilogues: where the finished accumulators of slot s go.
// tile(s, j, rows, acc) takes acc[r][w] = columns j+4w..j+4w+3 of panel
// row r; column(s, j, rows, acc) takes column j, lane r = row r. Rows
// past `rows` are zero-padding and are never stored. at(i0) is the
// epilogue of the panel whose first row is i0.

// mtxm: one block, c += acc.
struct AddInto {
  double* c;
  std::size_t ldc;

  AddInto at(std::size_t i0) const { return {c + i0 * ldc, ldc}; }

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

// Store: one block, c = 0.0 + acc (bitwise a zeroed c plus acc).
struct StoreInto {
  double* c;
  std::size_t ldc;

  StoreInto at(std::size_t i0) const { return {c + i0 * ldc, ldc}; }

  template <int W>
  void tile(std::size_t, std::size_t j, std::size_t rows,
            const __m256d (&acc)[4][W]) const {
    for (std::size_t r = 0; r < 4 && r < rows; ++r) {
      double* p = c + r * ldc + j;
      for (int w = 0; w < W; ++w) {
        _mm256_storeu_pd(p + 4 * w,
                         _mm256_add_pd(_mm256_setzero_pd(), acc[r][w]));
      }
    }
  }
  void column(std::size_t, std::size_t j, std::size_t rows,
              __m256d acc) const {
    alignas(32) double lane[4];
    _mm256_store_pd(lane, _mm256_add_pd(_mm256_setzero_pd(), acc));
    for (std::size_t r = 0; r < rows; ++r) c[r * ldc + j] = lane[r];
  }
};

// Fan-out: result += 0.0 + acc for every target of slot s; `row0`
// offsets each (dimi, k) result to the panel's first row.
struct AddIntoTargets {
  const std::size_t* start;
  double* const* targets;
  std::size_t k;
  std::size_t row0 = 0;

  AddIntoTargets at(std::size_t i0) const {
    return {start, targets, k, i0 * k};
  }

  template <int W>
  void tile(std::size_t s, std::size_t j, std::size_t rows,
            const __m256d (&acc)[4][W]) const {
    __m256d z[4][W];
    for (int r = 0; r < 4; ++r) {
      for (int w = 0; w < W; ++w)
        z[r][w] = _mm256_add_pd(_mm256_setzero_pd(), acc[r][w]);
    }
    for (std::size_t t = start[s]; t < start[s + 1]; ++t) {
      double* p = targets[t] + row0 + j;
      for (std::size_t r = 0; r < 4 && r < rows; ++r) {
        for (int w = 0; w < W; ++w) {
          double* q = p + r * k + 4 * w;
          _mm256_storeu_pd(q, _mm256_add_pd(_mm256_loadu_pd(q), z[r][w]));
        }
      }
    }
  }
  void column(std::size_t s, std::size_t j, std::size_t rows,
              __m256d acc) const {
    alignas(32) double lane[4];
    _mm256_store_pd(lane, _mm256_add_pd(_mm256_setzero_pd(), acc));
    for (std::size_t t = start[s]; t < start[s + 1]; ++t) {
      double* p = targets[t] + row0 + j;
      for (std::size_t r = 0; r < rows; ++r) p[r * k] += lane[r];
    }
  }
};

// One 4x8 tile: columns j..j+8 of slot s over the panel's rows. `ap` is
// the packed panel (4 doubles per stacked k), `b` the slot's segments.
template <class Epi>
inline void micro_4x8(Segs sg, const double* ap, const double* const* b,
                      std::size_t ldb, std::size_t s, std::size_t j,
                      std::size_t rows, const Epi& epi) {
  __m256d acc0l = _mm256_setzero_pd(), acc0h = _mm256_setzero_pd();
  __m256d acc1l = _mm256_setzero_pd(), acc1h = _mm256_setzero_pd();
  __m256d acc2l = _mm256_setzero_pd(), acc2h = _mm256_setzero_pd();
  __m256d acc3l = _mm256_setzero_pd(), acc3h = _mm256_setzero_pd();
  for (std::size_t mu = 0; mu < sg.terms; ++mu) {
    const double* bm = b[mu] + j;
    const std::size_t kc = sg.kc[mu];
#pragma GCC unroll 2
    for (std::size_t k = 0; k < kc; ++k) {
      const double* bk = bm + k * ldb;
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
    ap += 4 * kc;
  }
  const __m256d acc[4][2] = {
      {acc0l, acc0h}, {acc1l, acc1h}, {acc2l, acc2h}, {acc3l, acc3h}};
  epi.tile(s, j, rows, acc);
}

// One 4x4 tile with the slot's T = 0..3 columns past it folded in as
// column vectors (lane r = row r): a 4x(4+T) tile, columns j..j+4+T, so
// at k = 5 the fifth column's add chain runs beside the tile's four
// instead of as a one-chain pass after it. 4 + T accumulators + 1 b-load
// + 1 panel load + 1 broadcast stay within 11 ymm.
template <int T, class Epi>
inline void micro_4x4(Segs sg, const double* ap, const double* const* b,
                      std::size_t ldb, std::size_t s, std::size_t j,
                      std::size_t rows, const Epi& epi) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  // Named, not an array: GCC keeps an array of accumulators in memory.
  __m256d tail0 = _mm256_setzero_pd();
  __m256d tail1 = _mm256_setzero_pd();
  __m256d tail2 = _mm256_setzero_pd();
  for (std::size_t mu = 0; mu < sg.terms; ++mu) {
    const double* bm = b[mu] + j;
    const std::size_t kc = sg.kc[mu];
#pragma GCC unroll 2
    for (std::size_t k = 0; k < kc; ++k) {
      const double* bk = bm + k * ldb;
      const __m256d b0 = _mm256_loadu_pd(bk);
      const double* apk = ap + 4 * k;
      acc0 =
          _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_broadcast_sd(apk), b0));
      acc1 = _mm256_add_pd(acc1,
                           _mm256_mul_pd(_mm256_broadcast_sd(apk + 1), b0));
      acc2 = _mm256_add_pd(acc2,
                           _mm256_mul_pd(_mm256_broadcast_sd(apk + 2), b0));
      acc3 = _mm256_add_pd(acc3,
                           _mm256_mul_pd(_mm256_broadcast_sd(apk + 3), b0));
      if constexpr (T > 0) {
        const __m256d av = _mm256_loadu_pd(apk);
        tail0 = _mm256_add_pd(
            tail0, _mm256_mul_pd(av, _mm256_broadcast_sd(bk + 4)));
        if constexpr (T > 1) {
          tail1 = _mm256_add_pd(
              tail1, _mm256_mul_pd(av, _mm256_broadcast_sd(bk + 5)));
        }
        if constexpr (T > 2) {
          tail2 = _mm256_add_pd(
              tail2, _mm256_mul_pd(av, _mm256_broadcast_sd(bk + 6)));
        }
      }
    }
    ap += 4 * kc;
  }
  const __m256d acc[4][1] = {{acc0}, {acc1}, {acc2}, {acc3}};
  epi.tile(s, j, rows, acc);
  if constexpr (T > 0) epi.column(s, j + 4, rows, tail0);
  if constexpr (T > 1) epi.column(s, j + 5, rows, tail1);
  if constexpr (T > 2) epi.column(s, j + 6, rows, tail2);
}

// The columns past the blocks' 4-wide tiles, columns first..width-1 of
// every slot in one sequence. Runs the NC of them from the cursor
// (slot s, column j) and steps the cursor past them, as column vectors
// over the packed panel: acc_c += panel(k) * b(k, column c), one 4-lane
// accumulator per column (lane r = row r).
template <int NC, class Epi>
inline void micro_cols(Segs sg, const double* ap,
                       const double* const* blocks, std::size_t first,
                       std::size_t width, std::size_t& s, std::size_t& j,
                       std::size_t rows, const Epi& epi) {
  std::size_t cs[NC], cj[NC];
  for (int c = 0; c < NC; ++c) {
    cs[c] = s;
    cj[c] = j;
    if (++j == width) {
      j = first;
      ++s;
    }
  }
  __m256d acc[NC];
  for (int c = 0; c < NC; ++c) acc[c] = _mm256_setzero_pd();
  for (std::size_t mu = 0; mu < sg.terms; ++mu) {
    const double* col[NC];
    for (int c = 0; c < NC; ++c)
      col[c] = blocks[cs[c] * sg.terms + mu] + cj[c];
    const std::size_t kc = sg.kc[mu];
#pragma GCC unroll 2
    for (std::size_t k = 0; k < kc; ++k) {
      const __m256d av = _mm256_loadu_pd(ap + 4 * k);
      for (int c = 0; c < NC; ++c) {
        const __m256d bv = _mm256_broadcast_sd(col[c] + k * width);
        acc[c] = _mm256_add_pd(acc[c], _mm256_mul_pd(av, bv));
      }
    }
    ap += 4 * kc;
  }
  for (int c = 0; c < NC; ++c) epi.column(cs[c], cj[c], rows, acc[c]);
}

// Packers: fill one 4-row panel k-major, rows past `rows` zero so the
// microkernel shape never changes.

// mtxm: rows i0..i0+rows of a (row stride dimi).
struct PackPanel {
  std::size_t kc;
  const double* a;
  std::size_t dimi;

  void operator()(std::size_t i0, std::size_t rows, double* apack) const {
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
};

// Fan-out: every term's kc rows in turn, each element rounded once as
// coeffs[mu] * a_mu.
struct PackStacked {
  const FanOut& f;

  void operator()(std::size_t i0, std::size_t rows, double* apack) const {
    for (std::size_t mu = 0; mu < f.terms; ++mu) {
      const double* a = f.a[mu] + i0;
      const double c = f.coeffs[mu];
      const std::size_t kc = f.kc[mu];
      if (rows == 4) {
        const __m256d cv = _mm256_set1_pd(c);
        for (std::size_t k = 0; k < kc; ++k) {
          const __m256d ak = _mm256_loadu_pd(a + k * f.dimi);
          _mm256_storeu_pd(apack + 4 * k, _mm256_mul_pd(cv, ak));
        }
      } else {
        for (std::size_t k = 0; k < kc; ++k) {
          const double* ak = a + k * f.dimi;
          double* p = apack + 4 * k;
          p[0] = c * ak[0];
          p[1] = rows > 1 ? c * ak[1] : 0.0;
          p[2] = rows > 2 ? c * ak[2] : 0.0;
          p[3] = 0.0;
        }
      }
      apack += 4 * kc;
    }
  }
};

// Every tile of one packed panel across n slots of (K, width) segmented
// blocks. A slot whose last tile is a 4x4 folds its 1..3 remaining
// columns into that tile (micro_4x4<T>). Otherwise (width < 4, or a
// 4x8 last tile at width 9..11) the columns left in every slot run after
// the tiles as one cross-slot run of column vectors, up to 8 per pass so
// their add chains overlap (a 4x8 tile already holds 8 accumulators).
template <class Epi>
[[gnu::always_inline]] inline void panel_tiles(
    Segs sg, const double* apack, const double* const* blocks,
    std::size_t n, std::size_t width, std::size_t rows, const Epi& epi) {
  const std::size_t tiled = width - width % 4;
  const bool fold = tiled % 8 == 4;  // the last tile is a 4x4
  for (std::size_t s = 0; s < n; ++s) {
    const double* const* b = blocks + s * sg.terms;
    std::size_t j0 = 0;
    for (; j0 + 8 <= tiled; j0 += 8)
      micro_4x8(sg, apack, b, width, s, j0, rows, epi);
    if (!fold) continue;
    switch (width - tiled) {
      case 0: micro_4x4<0>(sg, apack, b, width, s, j0, rows, epi); break;
      case 1: micro_4x4<1>(sg, apack, b, width, s, j0, rows, epi); break;
      case 2: micro_4x4<2>(sg, apack, b, width, s, j0, rows, epi); break;
      default: micro_4x4<3>(sg, apack, b, width, s, j0, rows, epi); break;
    }
  }
  if (fold) return;
  std::size_t left = n * (width - tiled);
  std::size_t s = 0, j = tiled;
  for (; left >= 8; left -= 8)
    micro_cols<8>(sg, apack, blocks, tiled, width, s, j, rows, epi);
  if (left >= 4) {
    micro_cols<4>(sg, apack, blocks, tiled, width, s, j, rows, epi);
    left -= 4;
  }
  if (left >= 2) {
    micro_cols<2>(sg, apack, blocks, tiled, width, s, j, rows, epi);
    left -= 2;
  }
  if (left == 1)
    micro_cols<1>(sg, apack, blocks, tiled, width, s, j, rows, epi);
}

// Packs each 4-row panel once and runs it over all n slots.
template <class Pack, class Epi>
void panels(std::size_t dimi, Segs sg, const Pack& pack,
            const double* const* blocks, std::size_t n, std::size_t width,
            double* apack, const Epi& epi_rows) {
  for (std::size_t i0 = 0; i0 < dimi; i0 += 4) {
    const std::size_t rows = std::min<std::size_t>(4, dimi - i0);
    pack(i0, rows, apack);
    const Epi epi = epi_rows.at(i0);
    if (rows == 4) {
      panel_tiles(sg, apack, blocks, n, width, 4, epi);
    } else {
      panel_tiles(sg, apack, blocks, n, width, rows, epi);
    }
  }
}

}  // namespace

void mtxm_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
               const double* a, const double* b, double* apack) {
  panels(dimi, Segs{1, &kc}, PackPanel{kc, a, dimi}, &b, 1, dimj, apack,
         AddInto{c, dimj});
}

void mtxm_store_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc,
                     double* c, const double* a, const double* b,
                     double* apack) {
  panels(dimi, Segs{1, &kc}, PackPanel{kc, a, dimi}, &b, 1, dimj, apack,
         StoreInto{c, dimj});
}

void fan_out_avx2(const FanOut& f, double* apack) {
  panels(f.dimi, Segs{f.terms, f.kc}, PackStacked{f}, f.blocks, f.n, f.k,
         apack, AddIntoTargets{f.start, f.targets, f.k});
}

}  // namespace mh::linalg::detail

#endif  // MH_LINALG_HAVE_AVX2_TU
