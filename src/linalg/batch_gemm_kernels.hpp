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
// bitwise-identical to mTxm_ref / mTxm_reduced_ref. A store kernel
// (mtxm_store_*) ends instead with the assignment c = 0.0 + acc, which is
// bitwise what adding acc into a zeroed c gives, signed zeros included, so
// it replaces a memset and an add pass over c and never reads c.
//
// Contract for every fan-out kernel (batch_fused_apply's last mode): the
// group's terms are stacked along the contraction, K = sum_mu kc[mu] rows,
//   A = [c_0 * a_0[0..kc_0); ...; c_{M-1} * a_{M-1}[0..kc_{M-1})]  (K, dimi)
//   B_s = [blocks[s*M + 0][0..kc_0); ...; blocks[s*M + M-1][...)]  (K, k)
// where a_mu is read with row stride dimi and every block in place with
// row stride k (columns 0..k-1 only), and c_mu * a_mu(r, i) is rounded as
// A's element is packed. For every slot s < n and every target t in
// targets[start[s] .. start[s + 1]),
//   t(dimi, k) += 0.0 + A^T * B_s,
// the product accumulated in ascending stacked row, as mtxm does. So each
// element equals mTxm_ref(dimi, k, K) of the stacked operands into a zeroed
// c followed by the add `t + c`, bit for bit, signed zeros included.
// `apack` holds at least 4 * max(K, 1) doubles.
#pragma once

#include <cstddef>

#include "linalg/batch_gemm.hpp"

namespace mh::linalg::detail {

/// One fan-out kernel call: a group's stacked A (per-term segments and
/// weights), its n slots' stacked B (per-term blocks, slot-major) and the
/// results each slot adds into.
struct FanOut {
  std::size_t dimi = 0;                   ///< rows of every result
  std::size_t k = 0;                      ///< columns of every block, result
  std::size_t terms = 0;                  ///< M: segments of the contraction
  const std::size_t* kc = nullptr;        ///< [M] rows each term contracts
  const double* const* a = nullptr;       ///< [M] (kc, dimi) A segments
  const double* coeffs = nullptr;         ///< [M] weights folded into A
  const double* const* blocks = nullptr;  ///< [n * M] (kc, k) B segments
  std::size_t n = 0;                      ///< slots
  const std::size_t* start = nullptr;     ///< [n + 1] target offsets
  double* const* targets = nullptr;       ///< (dimi, k) results
};

using MTxmKernelFn = void (*)(std::size_t dimi, std::size_t dimj,
                              std::size_t kc, double* c, const double* a,
                              const double* b, double* apack);

using FanOutKernelFn = void (*)(const FanOut& f, double* apack);

void mtxm_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                   double* c, const double* a, const double* b,
                   double* apack);
void mtxm_store_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                         double* c, const double* a, const double* b,
                         double* apack);
void fan_out_portable(const FanOut& f, double* apack);

/// The fan-out kernel batch_fused_apply dispatches to on this CPU.
FanOutKernelFn fan_out_kernel() noexcept;
/// The store kernel the prefix nodes and transform chains dispatch to.
MTxmKernelFn mtxm_store_kernel() noexcept;

#if defined(MH_LINALG_HAVE_AVX2_TU)
void mtxm_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
               const double* a, const double* b, double* apack);
void mtxm_store_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc,
                     double* c, const double* a, const double* b,
                     double* apack);
void fan_out_avx2(const FanOut& f, double* apack);
#endif

}  // namespace mh::linalg::detail
