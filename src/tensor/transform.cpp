#include "tensor/transform.hpp"

#include <array>
#include <limits>
#include <vector>

#include "linalg/batch_gemm.hpp"
#include "linalg/gemm.hpp"

namespace mh {
namespace {

// Shape of inner_first's result: trailing dims of t shifted forward, then
// the operator's column count appended.
Tensor make_cycled_result(const Tensor& t, std::size_t cols) {
  std::array<std::size_t, kMaxTensorDim> shape{};
  const std::size_t d = t.ndim();
  for (std::size_t i = 1; i < d; ++i) shape[i - 1] = t.dim(i);
  shape[d - 1] = cols;
  return Tensor(std::span<const std::size_t>{shape.data(), d});
}

// Run the whole mode chain through the batch-GEMM engine in one fused pass:
// one result allocation, intermediates in the thread's workspace. The chain
// cycles indices exactly like repeated inner_first, so the final shape is
// the operators' column extents in order. Bitwise-identical to the
// mode-by-mode path (the engine's contract).
Tensor fused_chain(const Tensor& t, std::span<const MatrixView> mats) {
  MH_CHECK(mats.size() == t.ndim(), "one operator matrix per mode required");
  MH_CHECK(t.ndim() >= 1 && !t.empty(), "transform on empty tensor");
  const std::size_t d = t.ndim();
  std::array<std::size_t, kMaxTensorDim> shape{};
  std::array<linalg::GemmMat, kMaxTensorDim> gm{};
  std::array<std::size_t, kMaxTensorDim> out_shape{};
  for (std::size_t m = 0; m < d; ++m) {
    shape[m] = t.dim(m);
    gm[m] = linalg::GemmMat{mats[m].ptr, mats[m].rows, mats[m].cols};
    out_shape[m] = mats[m].cols;
  }
  Tensor r(std::span<const std::size_t>{out_shape.data(), d});
  // kred >= every extent: no screening.
  linalg::fused_transform_chain({shape.data(), d}, t.data(), {gm.data(), d},
                                std::numeric_limits<std::size_t>::max(),
                                r.data(), linalg::thread_workspace());
  return r;
}

}  // namespace

Tensor inner_first(const Tensor& t, MatrixView c) {
  MH_CHECK(t.ndim() >= 1 && !t.empty(), "inner_first on empty tensor");
  MH_CHECK(t.dim(0) == c.rows, "contraction extent mismatch");
  const std::size_t k = t.dim(0);
  // t viewed as (k, rest): r(rest, i) = sum_j t(j, rest) c(j, i) = t^T c.
  // The vector case (rest = 1) yields r(i) = sum_j t(j) c(j, i).
  Tensor r = make_cycled_result(t, c.cols);
  linalg::mTxm(t.size() / k, c.cols, k, r.data(), t.data(), c.ptr);
  return r;
}

Tensor transform(const Tensor& t, MatrixView c) {
  std::array<MatrixView, kMaxTensorDim> mats;
  mats.fill(c);
  return fused_chain(t, {mats.data(), t.ndim()});
}

Tensor general_transform(const Tensor& t, std::span<const MatrixView> mats) {
  return fused_chain(t, mats);
}

void fused_apply_accumulate(const Tensor& t, std::span<const MatrixView> mats,
                            std::span<const double> coeffs,
                            std::span<const std::size_t> kreds,
                            Tensor& result) {
  const std::size_t d = t.ndim();
  const std::size_t k = t.ndim() >= 1 ? t.dim(0) : 0;
  MH_CHECK(result.ndim() == d && result.size() == t.size(),
           "result/source shape mismatch");
  thread_local std::vector<linalg::GemmMat> gm;
  gm.clear();
  gm.reserve(mats.size());
  for (const MatrixView& m : mats)
    gm.push_back(linalg::GemmMat{m.ptr, m.rows, m.cols});
  const linalg::FusedApplyItem item{t.data(), gm, coeffs, kreds,
                                    result.data()};
  linalg::batch_fused_apply(d, k, {&item, 1}, linalg::thread_workspace());
}

double transform_flops(std::size_t d, std::size_t k) noexcept {
  double rest = 1.0;
  for (std::size_t i = 1; i < d; ++i) rest *= static_cast<double>(k);
  return static_cast<double>(d) * linalg::gemm_flops(
      static_cast<std::size_t>(rest), k, k);
}

}  // namespace mh
