// Internal kernel entry points shared between batch_gemm.cpp (portable
// tile + dispatch) and batch_gemm_avx2.cpp (the AVX2 TU, compiled with
// -mavx2 on x86-64 and selected at runtime via __builtin_cpu_supports).
//
// Contract for every mtxm kernel:
//   c(dimi, dimj) += a(*, dimi)^T * b(*, dimj), contracting rows 0..kc-1;
//   a row stride is dimi, b and c row stride is dimj; `apack` holds at
//   least 4 * max(kc, 1) doubles of caller scratch for the packed panel.
// Per output element the IEEE operation sequence must be: accumulator
// zeroed, ascending-k multiply-then-add (no FMA), one final add into c —
// bitwise-identical to mTxm_ref / mTxm_reduced_ref.
//
// Contract for every fan-out kernel (batch_fused_apply's last mode): with
// a, dimi, kc and apack as above, for every block s < n and every target t
// in targets[start[s] .. start[s + 1]),
//   t.result(dimi, k) += t.coeff * (0.0 + a(*, dimi)^T * blocks[s](*, k)),
// each (kc, k) block read in place (row stride k, columns 0..k-1 only).
// The product is the mtxm sequence above; `0.0 + acc` is its one final add
// into a zeroed c, so each element equals mTxm_ref into zeros followed by
// the gaxpy `result + coeff * chain`, bit for bit, signed zeros included.
#pragma once

#include <cstddef>

#include "linalg/batch_gemm.hpp"

namespace mh::linalg::detail {

using MTxmKernelFn = void (*)(std::size_t dimi, std::size_t dimj,
                              std::size_t kc, double* c, const double* a,
                              const double* b, double* apack);

using FanOutKernelFn = void (*)(std::size_t dimi, std::size_t k,
                                std::size_t kc, const double* a,
                                const double* const* blocks, std::size_t n,
                                const std::size_t* start,
                                const FanOutTarget* targets, double* apack);

void mtxm_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                   double* c, const double* a, const double* b,
                   double* apack);
void fan_out_portable(std::size_t dimi, std::size_t k, std::size_t kc,
                      const double* a, const double* const* blocks,
                      std::size_t n, const std::size_t* start,
                      const FanOutTarget* targets, double* apack);

/// The fan-out kernel batch_fused_apply dispatches to on this CPU.
FanOutKernelFn fan_out_kernel() noexcept;

#if defined(MH_LINALG_HAVE_AVX2_TU)
void mtxm_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
               const double* a, const double* b, double* apack);
void fan_out_avx2(std::size_t dimi, std::size_t k, std::size_t kc,
                  const double* a, const double* const* blocks, std::size_t n,
                  const std::size_t* start, const FanOutTarget* targets,
                  double* apack);
#endif

}  // namespace mh::linalg::detail
