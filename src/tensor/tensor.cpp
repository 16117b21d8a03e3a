#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace mh {

Tensor::Tensor(std::span<const std::size_t> shape) {
  MH_CHECK(shape.size() >= 1 && shape.size() <= kMaxTensorDim,
           "tensor order out of range");
  ndim_ = shape.size();
  std::size_t total = 1;
  for (std::size_t i = 0; i < ndim_; ++i) {
    MH_CHECK(shape[i] > 0, "tensor extents must be positive");
    MH_CHECK(total <= std::numeric_limits<std::size_t>::max() / shape[i],
             "tensor size overflows");
    shape_[i] = shape[i];
    total *= shape[i];
  }
  data_.assign(total, 0.0);
}

Tensor Tensor::cube(std::size_t d, std::size_t k) {
  std::array<std::size_t, kMaxTensorDim> shape{};
  MH_CHECK(d >= 1 && d <= kMaxTensorDim, "tensor order out of range");
  for (std::size_t i = 0; i < d; ++i) shape[i] = k;
  return Tensor(std::span<const std::size_t>{shape.data(), d});
}

std::size_t Tensor::offset(std::span<const std::size_t> idx) const {
  MH_CHECK(idx.size() == ndim_, "index arity mismatch");
  std::size_t off = 0;
  for (std::size_t i = 0; i < ndim_; ++i) {
    MH_DBG_ASSERT(idx[i] < shape_[i]);
    off = off * shape_[i] + idx[i];
  }
  return off;
}

void Tensor::fill(double v) noexcept {
  std::fill(data_.begin(), data_.end(), v);
}

Tensor& Tensor::scale(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Tensor& Tensor::gaxpy(double alpha, const Tensor& other, double beta) {
  MH_CHECK(ndim_ == other.ndim_ && data_.size() == other.data_.size(),
           "gaxpy shape mismatch");
  for (std::size_t i = 0; i < ndim_; ++i)
    MH_CHECK(shape_[i] == other.shape_[i], "gaxpy shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] = alpha * data_[i] + beta * other.data_[i];
  return *this;
}

double Tensor::normf() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Tensor::abs_max() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

double Tensor::sum() const noexcept {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

Tensor Tensor::reshaped(std::span<const std::size_t> shape) const {
  Tensor out(shape);
  MH_CHECK(out.size() == size(), "reshape must preserve total size");
  out.data_ = data_;
  return out;
}

bool operator==(const Tensor& a, const Tensor& b) noexcept {
  if (a.ndim_ != b.ndim_) return false;
  for (std::size_t i = 0; i < a.ndim_; ++i)
    if (a.shape_[i] != b.shape_[i]) return false;
  return a.data_ == b.data_;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  MH_CHECK(a.size() == b.size() && a.ndim() == b.ndim(),
           "max_abs_diff shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace mh
