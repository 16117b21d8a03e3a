#include "mra/legendre.hpp"

#include <cmath>

namespace mh::mra {

void legendre_scaling(double x, std::span<double> out) noexcept {
  const std::size_t k = out.size();
  if (k == 0) return;
  const double z = 2.0 * x - 1.0;
  // Legendre recurrence, normalized on the fly.
  double p0 = 1.0;  // P_0(z)
  out[0] = 1.0;     // sqrt(1) * P_0
  if (k == 1) return;
  double p1 = z;  // P_1(z)
  out[1] = std::sqrt(3.0) * p1;
  for (std::size_t i = 2; i < k; ++i) {
    const double n = static_cast<double>(i - 1);
    const double p2 = ((2.0 * n + 1.0) * z * p1 - n * p0) / (n + 1.0);
    p0 = p1;
    p1 = p2;
    out[i] = std::sqrt(2.0 * static_cast<double>(i) + 1.0) * p2;
  }
}

}  // namespace mh::mra
