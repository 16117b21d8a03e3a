// AVX2 microkernels for the batched small-GEMM engine. This TU is compiled
// with -mavx2 -ffp-contract=off (see src/linalg/CMakeLists.txt) and only on
// x86-64; batch_gemm.cpp selects it at runtime when the CPU reports AVX2.
//
// Structure: 4-wide i-panels of a are packed k-major into `apack` (tail
// panels zero-padded so the microkernel shape never changes), then 4x8 and
// 4x4 register tiles walk contiguous rows of b. The 1..3 columns left over
// run as column vectors on the same panel: one 4-lane accumulator per
// column (lane r = row r), two columns per pass so their add chains
// overlap, added into c lane by lane. Only _mm256_mul_pd +
// _mm256_add_pd are used — never FMA — and each output element sees exactly
// the reference operation order (zeroed accumulator, ascending k, one final
// add into c), so results are bitwise-identical to mTxm_ref.
//
// The k-specialized dispatch below fully unrolls the contraction loop for
// the paper's common polynomial orders (k = 10..30): with k known at
// compile time GCC keeps the whole 4x8 tile (8 accumulators + 2 b-loads +
// 1 broadcast = 11 ymm) live in registers with no loop overhead.
#include "linalg/batch_gemm_kernels.hpp"

#if defined(MH_LINALG_HAVE_AVX2_TU)

#include <immintrin.h>

#include <algorithm>

namespace mh::linalg::detail {
namespace {

// One 4x8 tile: rows `i0..i0+rows` of c, columns `j0..j0+8`. `ap` is the
// packed panel (4 doubles per k), `b`/`c` already offset to column j0.
template <int KC>
inline void micro_4x8(std::size_t kc_rt, const double* ap, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      std::size_t rows) {
  const std::size_t kc = KC > 0 ? static_cast<std::size_t>(KC) : kc_rt;
  __m256d acc0l = _mm256_setzero_pd(), acc0h = _mm256_setzero_pd();
  __m256d acc1l = _mm256_setzero_pd(), acc1h = _mm256_setzero_pd();
  __m256d acc2l = _mm256_setzero_pd(), acc2h = _mm256_setzero_pd();
  __m256d acc3l = _mm256_setzero_pd(), acc3h = _mm256_setzero_pd();
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
  // Zero-padded tail rows of the panel produce garbage accumulators that
  // are simply never stored.
  if (rows >= 1) {
    _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), acc0l));
    _mm256_storeu_pd(c + 4, _mm256_add_pd(_mm256_loadu_pd(c + 4), acc0h));
  }
  if (rows >= 2) {
    double* c1 = c + ldc;
    _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), acc1l));
    _mm256_storeu_pd(c1 + 4, _mm256_add_pd(_mm256_loadu_pd(c1 + 4), acc1h));
  }
  if (rows >= 3) {
    double* c2 = c + 2 * ldc;
    _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), acc2l));
    _mm256_storeu_pd(c2 + 4, _mm256_add_pd(_mm256_loadu_pd(c2 + 4), acc2h));
  }
  if (rows >= 4) {
    double* c3 = c + 3 * ldc;
    _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), acc3l));
    _mm256_storeu_pd(c3 + 4, _mm256_add_pd(_mm256_loadu_pd(c3 + 4), acc3h));
  }
}

template <int KC>
inline void micro_4x4(std::size_t kc_rt, const double* ap, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      std::size_t rows) {
  const std::size_t kc = KC > 0 ? static_cast<std::size_t>(KC) : kc_rt;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
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
  if (rows >= 1) _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), acc0));
  if (rows >= 2) {
    double* c1 = c + ldc;
    _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), acc1));
  }
  if (rows >= 3) {
    double* c2 = c + 2 * ldc;
    _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), acc2));
  }
  if (rows >= 4) {
    double* c3 = c + 3 * ldc;
    _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), acc3));
  }
}

// NC (1 or 2) of the columns past the last 4-wide tile, as column vectors
// over the packed panel: acc_j += panel(k) * b(k, j), one 4-lane
// accumulator per column (lane r = row r), added into c lane by lane.
template <int KC, int NC>
inline void micro_cols(std::size_t kc_rt, const double* ap, const double* b,
                       std::size_t ldb, double* c, std::size_t ldc,
                       std::size_t rows) {
  const std::size_t kc = KC > 0 ? static_cast<std::size_t>(KC) : kc_rt;
  __m256d acc[NC];
  for (int j = 0; j < NC; ++j) acc[j] = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const __m256d av = _mm256_loadu_pd(ap + 4 * k);
    for (int j = 0; j < NC; ++j) {
      const __m256d bv = _mm256_broadcast_sd(b + k * ldb + j);
      acc[j] = _mm256_add_pd(acc[j], _mm256_mul_pd(av, bv));
    }
  }
  alignas(32) double lane[4];
  for (int j = 0; j < NC; ++j) {
    _mm256_store_pd(lane, acc[j]);
    for (std::size_t r = 0; r < rows; ++r) c[r * ldc + j] += lane[r];
  }
}

template <int KC>
void mtxm_impl(std::size_t dimi, std::size_t dimj, std::size_t kc_rt,
               double* c, const double* a, const double* b, double* apack) {
  const std::size_t kc = KC > 0 ? static_cast<std::size_t>(KC) : kc_rt;
  for (std::size_t i0 = 0; i0 < dimi; i0 += 4) {
    const std::size_t rows = std::min<std::size_t>(4, dimi - i0);
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
    double* ci = c + i0 * dimj;
    std::size_t j0 = 0;
    for (; j0 + 8 <= dimj; j0 += 8)
      micro_4x8<KC>(kc, apack, b + j0, dimj, ci + j0, dimj, rows);
    if (j0 + 4 <= dimj) {
      micro_4x4<KC>(kc, apack, b + j0, dimj, ci + j0, dimj, rows);
      j0 += 4;
    }
    for (; j0 + 2 <= dimj; j0 += 2)
      micro_cols<KC, 2>(kc, apack, b + j0, dimj, ci + j0, dimj, rows);
    if (j0 < dimj)
      micro_cols<KC, 1>(kc, apack, b + j0, dimj, ci + j0, dimj, rows);
  }
}

}  // namespace

void mtxm_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
               const double* a, const double* b, double* apack) {
  switch (kc) {
    case 10: mtxm_impl<10>(dimi, dimj, kc, c, a, b, apack); break;
    case 12: mtxm_impl<12>(dimi, dimj, kc, c, a, b, apack); break;
    case 14: mtxm_impl<14>(dimi, dimj, kc, c, a, b, apack); break;
    case 16: mtxm_impl<16>(dimi, dimj, kc, c, a, b, apack); break;
    case 20: mtxm_impl<20>(dimi, dimj, kc, c, a, b, apack); break;
    case 24: mtxm_impl<24>(dimi, dimj, kc, c, a, b, apack); break;
    case 28: mtxm_impl<28>(dimi, dimj, kc, c, a, b, apack); break;
    case 30: mtxm_impl<30>(dimi, dimj, kc, c, a, b, apack); break;
    default: mtxm_impl<0>(dimi, dimj, kc, c, a, b, apack); break;
  }
}

}  // namespace mh::linalg::detail

#endif  // MH_LINALG_HAVE_AVX2_TU
