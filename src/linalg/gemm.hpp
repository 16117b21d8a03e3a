// Dense matrix-multiply kernels on raw row-major storage.
//
// These mirror the MADNESS mxm/mTxm family: the inner loop of every tensor
// transform is c += a^T * b with a tall-skinny a. Dimensions follow the
// MADNESS convention:
//
//   mxm  : c(i,j) += sum_k a(i,k) * b(k,j)       a is (dimi, dimk)
//   mTxm : c(i,j) += sum_k a(k,i) * b(k,j)       a is (dimk, dimi)
//   mxmT : c(i,j) += sum_k a(i,k) * b(j,k)       b is (dimj, dimk)
//
// mTxm is the workhorse ("mTxmq" in MADNESS, hand-written in assembly in the
// production code the paper benchmarks against); here it is a register-tiled
// C++ kernel that the compiler vectorizes. All kernels *accumulate* into c;
// callers zero c when they need assignment semantics.
#pragma once

#include <cstddef>

namespace mh::linalg {

/// c(dimi,dimj) += a(dimi,dimk) * b(dimk,dimj), all row-major.
void mxm(std::size_t dimi, std::size_t dimj, std::size_t dimk,
         double* c, const double* a, const double* b) noexcept;

/// c(dimi,dimj) += a(dimk,dimi)^T * b(dimk,dimj), all row-major.
/// This is the MADNESS "mTxmq" pattern used by every tensor transform.
/// Routed through the packed batch-GEMM engine (linalg/batch_gemm.hpp);
/// results are bitwise-identical to mTxm_ref.
void mTxm(std::size_t dimi, std::size_t dimj, std::size_t dimk,
          double* c, const double* a, const double* b) noexcept;

/// Scalar register-tiled reference implementation of mTxm (the pre-engine
/// kernel, kept as the bitwise ground truth the packed microkernels are
/// tested against, and as the portable fallback of last resort).
void mTxm_ref(std::size_t dimi, std::size_t dimj, std::size_t dimk,
              double* c, const double* a, const double* b) noexcept;

/// c(dimi,dimj) += a(dimi,dimk) * b(dimj,dimk)^T, all row-major.
void mxmT(std::size_t dimi, std::size_t dimj, std::size_t dimk,
          double* c, const double* a, const double* b) noexcept;

/// Scalar reference of rank-reduced mTxm: contracts only the first `kred`
/// rows of a and b (i.e. truncates the summation index; kred > dimk is
/// clamped). The paper's §II-D rank reduction, where trailing rows/columns
/// of s and h are screened away. The ground truth that mTxm_packed's kred
/// argument (linalg/batch_gemm.hpp) is tested against bitwise.
void mTxm_reduced_ref(std::size_t dimi, std::size_t dimj, std::size_t dimk,
                      std::size_t kred, double* c, const double* a,
                      const double* b) noexcept;

/// Flop count of one GEMM (multiply-adds counted as 2 flops).
constexpr double gemm_flops(std::size_t dimi, std::size_t dimj,
                            std::size_t dimk) noexcept {
  return 2.0 * static_cast<double>(dimi) * static_cast<double>(dimj) *
         static_cast<double>(dimk);
}

}  // namespace mh::linalg
