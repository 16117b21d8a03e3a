#include "mra/derivative.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <vector>

#include "common/diagnostics.hpp"
#include "mra/legendre.hpp"
#include "mra/quadrature.hpp"
#include "tensor/transform.hpp"

namespace mh::mra {
namespace {

// phi'_i at x via the Legendre derivative recurrence
// P'_{n+1} = P'_{n-1} + (2n+1) P_n.
void legendre_scaling_deriv(double x, std::span<double> out) {
  const std::size_t k = out.size();
  if (k == 0) return;
  const double z = 2.0 * x - 1.0;
  std::vector<double> p(k), dp(k);
  p[0] = 1.0;
  dp[0] = 0.0;
  if (k > 1) {
    p[1] = z;
    dp[1] = 1.0;
  }
  for (std::size_t n = 1; n + 1 < k; ++n) {
    p[n + 1] =
        ((2.0 * static_cast<double>(n) + 1.0) * z * p[n] -
         static_cast<double>(n) * p[n - 1]) /
        (static_cast<double>(n) + 1.0);
    dp[n + 1] = dp[n - 1] + (2.0 * static_cast<double>(n) + 1.0) * p[n];
  }
  // Chain rule: d/dx = 2 d/dz.
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = 2.0 * std::sqrt(2.0 * static_cast<double>(i) + 1.0) * dp[i];
  }
}

DerivativeBlocks compute_blocks(std::size_t k) {
  MH_CHECK(k >= 2, "derivative needs k >= 2");
  DerivativeBlocks b;
  b.k = k;
  b.minus = Tensor({k, k});
  b.center = Tensor({k, k});
  b.plus = Tensor({k, k});
  b.left_edge_fix = Tensor({k, k});
  b.right_edge_fix = Tensor({k, k});

  // Stiffness S[i][j] = <phi'_i, phi_j> (degree <= 2k-3: order-k Gauss is
  // exact).
  const QuadratureRule& rule = gauss_legendre(k);
  std::vector<double> s(k * k, 0.0), phi(k), dphi(k);
  for (std::size_t q = 0; q < rule.x.size(); ++q) {
    legendre_scaling(rule.x[q], phi);
    legendre_scaling_deriv(rule.x[q], dphi);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        s[i * k + j] += rule.w[q] * dphi[i] * phi[j];
      }
    }
  }
  // Endpoint traces: phi_i(1) = sqrt(2i+1), phi_i(0) = (-1)^i sqrt(2i+1).
  std::vector<double> at0(k), at1(k);
  for (std::size_t i = 0; i < k; ++i) {
    at1[i] = std::sqrt(2.0 * static_cast<double>(i) + 1.0);
    at0[i] = (i % 2 == 0 ? 1.0 : -1.0) * at1[i];
  }
  // Math layout D[i][j]; stored transposed (source j first) for transform().
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const double d0 =
          -s[i * k + j] + 0.5 * at1[i] * at1[j] - 0.5 * at0[i] * at0[j];
      b.center.at({j, i}) = d0;
      b.plus.at({j, i}) = 0.5 * at1[i] * at0[j];
      b.minus.at({j, i}) = -0.5 * at0[i] * at1[j];
      // One-sided traces at the domain faces replace the halved averages.
      b.left_edge_fix.at({j, i}) = -0.5 * at0[i] * at0[j];
      b.right_edge_fix.at({j, i}) = 0.5 * at1[i] * at1[j];
    }
  }
  return b;
}

// Is `key` subdivided in f (a neighbor refined deeper than the current
// evaluation level)?
bool refined_below(const Function& f, const Key& key) {
  const auto it = f.nodes().find(key);
  return it != f.nodes().end() && it->second.has_children;
}

struct DiffContext {
  const Function* f = nullptr;
  Function* out = nullptr;
  std::size_t axis = 0;
  const DerivativeBlocks* blocks = nullptr;
  std::vector<double> identity;  // k x k

  void apply_block(const Tensor& source, const Tensor& block, double scale,
                   Tensor& acc) const {
    const std::size_t d = f->ndim();
    const std::size_t k = f->k();
    std::array<MatrixView, kMaxTensorDim> mats;
    for (std::size_t m = 0; m < d; ++m) {
      mats[m] = m == axis ? MatrixView(block)
                          : MatrixView(identity.data(), k, k);
    }
    Tensor r = general_transform(source, {mats.data(), d});
    acc.gaxpy(1.0, r, scale);
  }

  void diff_box(const Key& key) {
    const std::size_t d = f->ndim();
    // Face neighbors along the axis.
    std::vector<std::int64_t> disp(d, 0);
    Key left, right;
    disp[axis] = -1;
    const bool has_left = key.neighbor(disp, left);
    disp[axis] = +1;
    const bool has_right = key.neighbor(disp, right);

    // If either existing neighbor is refined past this level, descend: the
    // flux needs both sides at a common level.
    if ((has_left && refined_below(*f, left)) ||
        (has_right && refined_below(*f, right))) {
      for (std::size_t c = 0; c < key.num_children(); ++c) {
        diff_box(key.child(c));
      }
      return;
    }

    const double scale = std::pow(2.0, key.level());
    Tensor acc = Tensor::cube(d, f->k());
    const Tensor s0 = coeffs_on_box(*f, key);
    apply_block(s0, blocks->center, scale, acc);
    if (has_left) {
      apply_block(coeffs_on_box(*f, left), blocks->minus, scale, acc);
    } else {
      apply_block(s0, blocks->left_edge_fix, scale, acc);
    }
    if (has_right) {
      apply_block(coeffs_on_box(*f, right), blocks->plus, scale, acc);
    } else {
      apply_block(s0, blocks->right_edge_fix, scale, acc);
    }
    out->accumulate(key, acc);
  }
};

}  // namespace

const DerivativeBlocks& derivative_blocks(std::size_t k) {
  static std::mutex mu;
  static std::map<std::size_t, DerivativeBlocks> cache;
  std::scoped_lock lock(mu);
  auto it = cache.find(k);
  if (it == cache.end()) it = cache.emplace(k, compute_blocks(k)).first;
  return it->second;
}

Function derivative(const Function& f, std::size_t axis) {
  MH_CHECK(!f.compressed(), "derivative requires reconstructed form");
  MH_CHECK(axis < f.ndim(), "axis out of range");
  const std::size_t k = f.k();

  DiffContext ctx;
  ctx.f = &f;
  ctx.axis = axis;
  ctx.blocks = &derivative_blocks(k);
  ctx.identity.assign(k * k, 0.0);
  for (std::size_t i = 0; i < k; ++i) ctx.identity[i * k + i] = 1.0;

  Function out(f.params());
  ctx.out = &out;
  for (const Key& key : f.leaf_keys()) {
    ctx.diff_box(key);
  }
  out.sum_down();
  return out;
}

}  // namespace mh::mra
