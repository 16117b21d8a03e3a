#include "linalg/gemm.hpp"

#include "linalg/batch_gemm.hpp"

namespace mh::linalg {
namespace {

// Register-tile width for the j-loop of mTxm. Four accumulators per i keeps
// the kernel within x86-64 SSE2 register budget without explicit intrinsics.
constexpr std::size_t kJTile = 8;

}  // namespace

void mxm(std::size_t dimi, std::size_t dimj, std::size_t dimk,
         double* c, const double* a, const double* b) noexcept {
  for (std::size_t i = 0; i < dimi; ++i) {
    const double* ai = a + i * dimk;
    double* ci = c + i * dimj;
    for (std::size_t k = 0; k < dimk; ++k) {
      const double aik = ai[k];
      const double* bk = b + k * dimj;
      for (std::size_t j = 0; j < dimj; ++j) ci[j] += aik * bk[j];
    }
  }
}

void mTxm(std::size_t dimi, std::size_t dimj, std::size_t dimk,
          double* c, const double* a, const double* b) noexcept {
  // Packed-panel SIMD engine; bitwise-identical to mTxm_ref below.
  mTxm_packed(dimi, dimj, dimk, dimk, c, a, b, thread_workspace());
}

void mTxm_ref(std::size_t dimi, std::size_t dimj, std::size_t dimk,
              double* c, const double* a, const double* b) noexcept {
  // a is (dimk, dimi): column i of the logical a^T is a strided walk, but the
  // k-loop reads a and b row-wise, so all streams are unit-stride.
  std::size_t j0 = 0;
  for (; j0 + kJTile <= dimj; j0 += kJTile) {
    for (std::size_t i = 0; i < dimi; ++i) {
      double acc[kJTile] = {};
      for (std::size_t k = 0; k < dimk; ++k) {
        const double aki = a[k * dimi + i];
        const double* bk = b + k * dimj + j0;
        for (std::size_t t = 0; t < kJTile; ++t) acc[t] += aki * bk[t];
      }
      double* ci = c + i * dimj + j0;
      for (std::size_t t = 0; t < kJTile; ++t) ci[t] += acc[t];
    }
  }
  if (j0 < dimj) {
    const std::size_t rem = dimj - j0;
    for (std::size_t i = 0; i < dimi; ++i) {
      double acc[kJTile] = {};
      for (std::size_t k = 0; k < dimk; ++k) {
        const double aki = a[k * dimi + i];
        const double* bk = b + k * dimj + j0;
        for (std::size_t t = 0; t < rem; ++t) acc[t] += aki * bk[t];
      }
      double* ci = c + i * dimj + j0;
      for (std::size_t t = 0; t < rem; ++t) ci[t] += acc[t];
    }
  }
}

void mxmT(std::size_t dimi, std::size_t dimj, std::size_t dimk,
          double* c, const double* a, const double* b) noexcept {
  for (std::size_t i = 0; i < dimi; ++i) {
    const double* ai = a + i * dimk;
    double* ci = c + i * dimj;
    for (std::size_t j = 0; j < dimj; ++j) {
      const double* bj = b + j * dimk;
      double acc = 0.0;
      for (std::size_t k = 0; k < dimk; ++k) acc += ai[k] * bj[k];
      ci[j] += acc;
    }
  }
}

void mTxm_reduced_ref(std::size_t dimi, std::size_t dimj, std::size_t dimk,
                      std::size_t kred, double* c, const double* a,
                      const double* b) noexcept {
  if (kred > dimk) kred = dimk;
  // Same layout as mTxm, but the contraction stops at kred: rows kred..dimk
  // of a and b are the screened-away low-norm tail (paper Figure 4).
  for (std::size_t i = 0; i < dimi; ++i) {
    for (std::size_t j = 0; j < dimj; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kred; ++k)
        acc += a[k * dimi + i] * b[k * dimj + j];
      c[i * dimj + j] += acc;
    }
  }
}

}  // namespace mh::linalg
