// Frozen reference kernel (see refkernel.hpp). Built with its own fixed
// flags (CMakeLists.txt): -O2, no auto-vectorization, no FMA contraction.
#include "refkernel.hpp"

#include <chrono>

namespace mh::perf {

namespace {

constexpr std::size_t kWorkingSetDoubles = std::size_t{1} << 17;  // 1 MiB

std::size_t power(std::size_t k, std::size_t e) {
  std::size_t p = 1;
  for (std::size_t i = 0; i < e; ++i) p *= k;
  return p;
}

}  // namespace

RefKernel::RefKernel(std::size_t d, std::size_t k, std::size_t sweeps)
    : d_(d), k_(k), sweeps_(sweeps) {
  const std::size_t n = power(k, d);
  tensors_ = kWorkingSetDoubles / n > 0 ? kWorkingSetDoubles / n : 1;
  src_.resize(tensors_ * n);
  for (std::size_t i = 0; i < src_.size(); ++i) {
    src_[i] = 1.0 / static_cast<double>(1 + (i * 7919) % 1009);
  }
  // A contraction matrix with unit-order entries so values stay bounded.
  mat_.resize(k * k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      mat_[j * k + i] = (i == j ? 0.6 : 0.0) +
                        0.4 / static_cast<double>(k + i + j);
    }
  }
  ping_.resize(n);
  pong_.resize(n);
}

double RefKernel::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = ping_.size();
  const std::size_t rest = n / k_;
  double sum = 0.0;
  for (std::size_t s = 0; s < sweeps_; ++s) {
    for (std::size_t t = 0; t < tensors_; ++t) {
      const double* in = src_.data() + t * n;
      double* out = ping_.data();
      for (std::size_t m = 0; m < d_; ++m) {
        // out(r, i) = sum_j in(j, r) * mat(j, i): contract the first index,
        // append the new index last (the chain of Formula 1).
        for (std::size_t r = 0; r < rest; ++r) {
          for (std::size_t i = 0; i < k_; ++i) {
            double acc = 0.0;
            for (std::size_t j = 0; j < k_; ++j) {
              acc += in[j * rest + r] * mat_[j * k_ + i];
            }
            out[r * k_ + i] = acc;
          }
        }
        in = out;
        out = (out == ping_.data()) ? pong_.data() : ping_.data();
      }
      sum += in[t % n];
    }
  }
  sink_ += sum;
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

}  // namespace mh::perf
