// Mode-wise tensor transforms — the computational core of Formula 1.
//
//   r(i1..id) = sum_{j1..jd} s(j1..jd) * c1(j1,i1) * c2(j2,i2) * ... * cd(jd,id)
//
// evaluated as d successive contractions of the *first* index, each of which
// is exactly the (k^{d-1}, k) x (k, k) matrix product the paper's GPU kernels
// batch (Figures 5 and 6). Contracting the first index cycles the remaining
// indices, so after d rounds the index order is restored.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/tensor.hpp"

namespace mh {

/// A non-owning row-major matrix view over operator coefficients.
struct MatrixView {
  const double* ptr = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  MatrixView() = default;
  MatrixView(const double* p, std::size_t r, std::size_t c)
      : ptr(p), rows(r), cols(c) {}
  /// View a 2-D tensor as a matrix.
  explicit MatrixView(const Tensor& t)
      : ptr(t.data()), rows(t.dim(0)), cols(t.dim(1)) {
    MH_CHECK(t.ndim() == 2, "MatrixView requires a 2-D tensor");
  }
  double at(std::size_t i, std::size_t j) const {
    MH_DBG_ASSERT(i < rows && j < cols);
    return ptr[i * cols + j];
  }
};

/// Contract the first index of t with the first index of c:
///   r(j2..jd, i) = sum_{j1} t(j1, j2..jd) * c(j1, i).
/// The result has the trailing indices of t shifted forward and extent
/// c.cols appended as the last dimension.
Tensor inner_first(const Tensor& t, MatrixView c);

/// Same-operator transform: applies c on every mode of t.
Tensor transform(const Tensor& t, MatrixView c);

/// General transform with a distinct operator per mode (Formula 1 uses the
/// per-dimension h^(mu,dim) matrices). mats.size() must equal t.ndim().
Tensor general_transform(const Tensor& t, std::span<const MatrixView> mats);

/// Whole-task fusion of Formula 1 (the paper's custom-kernel organization,
/// run on the CPU through linalg's batch-GEMM engine):
///   result += sum_mu coeffs[mu] * general_transform(t, mats[mu*d .. +d])
/// in ONE packed pass — all intermediates live in the calling thread's
/// GemmWorkspace, no per-mode allocations. t must be a cube and every
/// operator block square (k, k). `kreds`, when non-empty, gives the per-term
/// reduced rank: each of the term's contractions sums only over the first
/// kred values of the contracted index (the paper's §II-D row/column
/// screening, Figure 4). Bitwise-identical to the composed mode-by-mode
/// path.
void fused_apply_accumulate(const Tensor& t, std::span<const MatrixView> mats,
                            std::span<const double> coeffs,
                            std::span<const std::size_t> kreds,
                            Tensor& result);

/// Flop count of general_transform on a d-dim tensor of extent k per dim
/// with square (k x k) operators: d GEMMs of (k^{d-1}, k) x (k, k).
double transform_flops(std::size_t d, std::size_t k) noexcept;

}  // namespace mh
