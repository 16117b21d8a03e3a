// The multiwavelet scaling basis: normalized shifted Legendre polynomials.
//
//   phi_i(x) = sqrt(2i+1) * P_i(2x - 1)   on [0, 1],   i = 0 .. k-1
//
// orthonormal w.r.t. the L2 inner product on [0, 1]. On level n, box l the
// basis is phi^n_{i,l}(x) = 2^{n/2} phi_i(2^n x - l), supported on
// [l 2^-n, (l+1) 2^-n]. A tree node's coefficient tensor holds the expansion
// of the function in the d-fold tensor product of this basis.
#pragma once

#include <span>

namespace mh::mra {

/// Evaluate phi_0..phi_{k-1} at x in [0, 1]; out.size() must be k.
void legendre_scaling(double x, std::span<double> out) noexcept;

}  // namespace mh::mra
