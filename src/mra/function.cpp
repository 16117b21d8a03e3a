#include "mra/function.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mra/legendre.hpp"
#include "mra/quadrature.hpp"
#include "tensor/transform.hpp"

namespace mh::mra {
namespace {

// Mixed-radix walk over the k^d index box starting at byte offsets computed
// from per-mode offsets within a supertensor of extent `super_extent`.
// Calls fn(flat_block_offset, flat_super_offset) for every element.
template <typename Fn>
void for_each_block_element(std::size_t ndim, std::size_t k,
                            std::size_t super_extent,
                            std::span<const std::size_t> mode_offset, Fn&& fn) {
  std::array<std::size_t, kMaxTensorDim> idx{};
  // Strides (row-major).
  std::array<std::size_t, kMaxTensorDim> bstride{}, sstride{};
  bstride[ndim - 1] = 1;
  sstride[ndim - 1] = 1;
  for (std::size_t m = ndim - 1; m-- > 0;) {
    bstride[m] = bstride[m + 1] * k;
    sstride[m] = sstride[m + 1] * super_extent;
  }
  std::size_t boff = 0, soff = 0;
  for (std::size_t m = 0; m < ndim; ++m) soff += mode_offset[m] * sstride[m];
  const std::size_t total = [&] {
    std::size_t t = 1;
    for (std::size_t m = 0; m < ndim; ++m) t *= k;
    return t;
  }();
  for (std::size_t count = 0; count < total; ++count) {
    fn(boff, soff);
    // Increment the mixed-radix counter from the last mode.
    for (std::size_t m = ndim; m-- > 0;) {
      ++idx[m];
      boff += bstride[m];
      soff += sstride[m];
      if (idx[m] < k) break;
      idx[m] = 0;
      boff -= k * bstride[m];
      soff -= k * sstride[m];
    }
  }
}

std::array<std::size_t, kMaxTensorDim> child_offsets(std::size_t ndim,
                                                     std::size_t which,
                                                     std::size_t k) {
  std::array<std::size_t, kMaxTensorDim> off{};
  for (std::size_t m = 0; m < ndim; ++m) off[m] = ((which >> m) & 1) * k;
  return off;
}

}  // namespace

Tensor unfilter_scaling(const Tensor& s, std::size_t k) {
  MH_CHECK(s.ndim() >= 1 && s.dim(0) == k, "scaling tensor extent mismatch");
  const TwoScaleCoeffs& ts = two_scale(k);
  return transform(s, MatrixView(ts.w.data(), k, 2 * k));
}

Tensor gather_children(std::span<const Tensor> children, std::size_t ndim,
                       std::size_t k) {
  MH_CHECK(children.size() == (std::size_t{1} << ndim),
           "need exactly 2^d child tensors");
  Tensor super = Tensor::cube(ndim, 2 * k);
  for (std::size_t c = 0; c < children.size(); ++c) {
    const Tensor& ch = children[c];
    MH_CHECK(ch.size() == 0 || ch.ndim() == ndim,
             "child tensor order mismatch");
    if (ch.empty()) continue;
    const auto off = child_offsets(ndim, c, k);
    for_each_block_element(ndim, k, 2 * k, {off.data(), ndim},
                           [&](std::size_t b, std::size_t s) {
                             super[s] = ch[b];
                           });
  }
  return super;
}

Tensor extract_child_block(const Tensor& super, std::size_t which,
                           std::size_t k) {
  const std::size_t ndim = super.ndim();
  MH_CHECK(super.dim(0) == 2 * k, "supertensor extent mismatch");
  Tensor block = Tensor::cube(ndim, k);
  const auto off = child_offsets(ndim, which, k);
  for_each_block_element(ndim, k, 2 * k, {off.data(), ndim},
                         [&](std::size_t b, std::size_t s) {
                           block[b] = super[s];
                         });
  return block;
}

Tensor extract_low_corner(const Tensor& super, std::size_t k) {
  return extract_child_block(super, 0, k);
}

void set_low_corner(Tensor& super, const Tensor& corner) {
  const std::size_t ndim = super.ndim();
  const std::size_t k = corner.dim(0);
  MH_CHECK(super.dim(0) == 2 * k, "supertensor extent mismatch");
  const auto off = child_offsets(ndim, 0, k);
  for_each_block_element(ndim, k, 2 * k, {off.data(), ndim},
                         [&](std::size_t b, std::size_t s) {
                           super[s] = corner[b];
                         });
}

Function::Function(FunctionParams params) : params_(params) {
  MH_CHECK(params_.ndim >= 1 && params_.ndim <= kMaxTensorDim,
           "function order out of range");
  MH_CHECK(params_.k >= 1, "basis size must be positive");
  MH_CHECK(params_.thresh > 0.0, "threshold must be positive");
}

Tensor Function::project_box(const ScalarFn& f, const Key& key) const {
  const std::size_t d = params_.ndim;
  const std::size_t k = params_.k;
  const std::size_t q = k;  // MADNESS default: npt = k quadrature points
  const QuadratureRule& rule = gauss_legendre(q);

  // Sample f on the tensor-product quadrature grid of this box.
  Tensor fvals = Tensor::cube(d, q);
  const double scale = std::pow(2.0, -key.level());
  std::array<std::size_t, kMaxTensorDim> idx{};
  std::array<double, kMaxTensorDim> x{};
  for (std::size_t flat = 0; flat < fvals.size(); ++flat) {
    for (std::size_t m = 0; m < d; ++m) {
      x[m] = (static_cast<double>(key.translation(m)) + rule.x[idx[m]]) * scale;
    }
    fvals[flat] = f(std::span<const double>{x.data(), d});
    for (std::size_t m = d; m-- > 0;) {
      if (++idx[m] < q) break;
      idx[m] = 0;
    }
  }

  // s[i...] = 2^{-nd/2} sum_q f(x_q) prod w_{q_m} phi_{i_m}(x_{q_m})
  // evaluated as a mode-wise contraction with B(q, i) = w_q phi_i(x_q).
  std::vector<double> bmat(q * k);
  std::vector<double> phi(k);
  for (std::size_t qq = 0; qq < q; ++qq) {
    legendre_scaling(rule.x[qq], phi);
    for (std::size_t i = 0; i < k; ++i) bmat[qq * k + i] = rule.w[qq] * phi[i];
  }
  std::array<MatrixView, kMaxTensorDim> mats;
  for (std::size_t m = 0; m < d; ++m) mats[m] = MatrixView(bmat.data(), q, k);
  Tensor s = general_transform(fvals, {mats.data(), d});
  s.scale(std::pow(2.0, -0.5 * static_cast<double>(key.level()) *
                             static_cast<double>(d)));
  return s;
}

void Function::project_refine(const ScalarFn& f, const Key& key,
                              int level_guard) {
  MH_CHECK(level_guard >= 0, "refinement runaway");
  const std::size_t d = params_.ndim;
  const std::size_t k = params_.k;
  const std::size_t nc = key.num_children();

  nodes_[key].has_children = true;

  std::vector<Tensor> child_coeffs(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    child_coeffs[c] = project_box(f, key.child(c));
  }

  bool refine = key.level() + 1 < params_.initial_level;
  if (!refine && key.level() + 1 < params_.max_level) {
    // Wavelet norm of this box: filter the gathered children and measure
    // everything outside the low (scaling) corner.
    Tensor super = gather_children(child_coeffs, d, k);
    const TwoScaleCoeffs& ts = two_scale(k);
    Tensor v = transform(super, MatrixView(ts.wT));
    Tensor corner = extract_low_corner(v, k);
    const double total2 = v.normf() * v.normf();
    const double s2 = corner.normf() * corner.normf();
    const double dnorm = std::sqrt(std::max(0.0, total2 - s2));
    refine = dnorm > params_.thresh;
  }

  if (refine && key.level() + 1 < params_.max_level) {
    for (std::size_t c = 0; c < nc; ++c) {
      project_refine(f, key.child(c), level_guard - 1);
    }
  } else {
    for (std::size_t c = 0; c < nc; ++c) {
      FunctionNode& node = nodes_[key.child(c)];
      node.has_children = false;
      node.coeffs = std::move(child_coeffs[c]);
    }
  }
}

Function Function::project(const ScalarFn& f, const FunctionParams& params) {
  Function fn(params);
  fn.project_refine(f, Key::root(params.ndim), params.max_level + 1);
  fn.compressed_ = false;
  return fn;
}

Tensor Function::compress_rec(const Key& key) {
  FunctionNode& node = nodes_.at(key);
  if (!node.has_children) {
    Tensor s = std::move(node.coeffs);
    node.coeffs = Tensor{};
    MH_CHECK(!s.empty(), "leaf without coefficients in reconstructed tree");
    return s;
  }
  const std::size_t d = params_.ndim;
  const std::size_t k = params_.k;
  std::vector<Tensor> child_s(key.num_children());
  for (std::size_t c = 0; c < key.num_children(); ++c) {
    child_s[c] = compress_rec(key.child(c));
  }
  Tensor super = gather_children(child_s, d, k);
  const TwoScaleCoeffs& ts = two_scale(k);
  Tensor v = transform(super, MatrixView(ts.wT));
  Tensor s = extract_low_corner(v, k);
  set_low_corner(v, Tensor::cube(d, k));  // keep only the wavelet part
  // Re-fetch: recursion may have rehashed the node map.
  nodes_.at(key).coeffs = std::move(v);
  return s;
}

void Function::compress() {
  if (compressed_) return;
  const Key root = Key::root(params_.ndim);
  FunctionNode& rn = nodes_.at(root);
  if (!rn.has_children) {
    compressed_ = true;  // single-leaf tree: k^d scaling coeffs at root
    return;
  }
  Tensor s = compress_rec(root);
  set_low_corner(nodes_.at(root).coeffs, s);
  compressed_ = true;
}

void Function::reconstruct_rec(const Key& key, Tensor s) {
  FunctionNode& node = nodes_.at(key);
  if (!node.has_children) {
    node.coeffs = std::move(s);
    return;
  }
  const std::size_t k = params_.k;
  Tensor v = std::move(node.coeffs);
  node.coeffs = Tensor{};
  MH_CHECK(!v.empty(), "interior node without wavelet coefficients");
  set_low_corner(v, s);
  const TwoScaleCoeffs& ts = two_scale(k);
  Tensor u = transform(v, MatrixView(ts.w));
  for (std::size_t c = 0; c < key.num_children(); ++c) {
    reconstruct_rec(key.child(c), extract_child_block(u, c, k));
  }
}

void Function::reconstruct() {
  if (!compressed_) return;
  const Key root = Key::root(params_.ndim);
  FunctionNode& rn = nodes_.at(root);
  if (!rn.has_children) {
    compressed_ = false;
    return;
  }
  Tensor v = rn.coeffs;  // copy: reconstruct_rec will overwrite
  Tensor s = extract_low_corner(v, params_.k);
  reconstruct_rec(root, std::move(s));
  compressed_ = false;
}

bool Function::truncate_rec(const Key& key, double tol) {
  FunctionNode& node = nodes_.at(key);
  if (!node.has_children) return true;
  bool removable = true;
  for (std::size_t c = 0; c < key.num_children(); ++c) {
    if (!truncate_rec(key.child(c), tol)) removable = false;
  }
  if (!removable) return false;
  // Wavelet norm of this node; the root's low corner carries s, so measure
  // only the complement for it (for other nodes the corner is zero anyway).
  Tensor wavelet = node.coeffs;
  if (key.level() == 0 && !wavelet.empty()) {
    set_low_corner(wavelet, Tensor::cube(params_.ndim, params_.k));
  }
  const double dnorm = wavelet.empty() ? 0.0 : wavelet.normf();
  if (key.level() == 0) return false;  // never truncate the root itself
  if (dnorm >= tol) return false;
  for (std::size_t c = 0; c < key.num_children(); ++c) {
    nodes_.erase(key.child(c));
  }
  FunctionNode& self = nodes_.at(key);
  self.has_children = false;
  self.coeffs = Tensor{};
  return true;
}

void Function::truncate(double tol) {
  MH_CHECK(compressed_, "truncate requires compressed form");
  if (tol < 0.0) tol = params_.thresh;
  truncate_rec(Key::root(params_.ndim), tol);
}

double inner(const Function& f, const Function& g) {
  MH_CHECK(f.compressed_ && g.compressed_,
           "inner requires both functions compressed");
  MH_CHECK(f.params_.ndim == g.params_.ndim && f.params_.k == g.params_.k,
           "inner requires matching function parameters");
  // Iterate the smaller tree; absent or empty nodes contribute zero.
  const Function& a = f.num_nodes() <= g.num_nodes() ? f : g;
  const Function& b = f.num_nodes() <= g.num_nodes() ? g : f;
  double acc = 0.0;
  for (const auto& [key, anode] : a.nodes_) {
    if (anode.coeffs.empty()) continue;
    const auto it = b.nodes_.find(key);
    if (it == b.nodes_.end() || it->second.coeffs.empty()) continue;
    const Tensor& x = anode.coeffs;
    const Tensor& y = it->second.coeffs;
    if (x.size() == y.size()) {
      for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
    } else {
      // Shape mismatch happens only at a single-leaf root (k^d scaling
      // block) against a full (2k)^d supertensor: dot the low corners.
      const Tensor& small = x.size() < y.size() ? x : y;
      const Tensor& big = x.size() < y.size() ? y : x;
      Tensor corner = extract_low_corner(big, a.params_.k);
      for (std::size_t i = 0; i < small.size(); ++i)
        acc += small[i] * corner[i];
    }
  }
  return acc;
}

double Function::eval(std::span<const double> x) const {
  MH_CHECK(!compressed_, "eval requires reconstructed form");
  MH_CHECK(x.size() == params_.ndim, "evaluation point arity mismatch");
  const std::size_t d = params_.ndim;
  const std::size_t k = params_.k;
  for (std::size_t m = 0; m < d; ++m) {
    MH_CHECK(x[m] >= 0.0 && x[m] <= 1.0, "point outside [0,1]^d");
  }

  Key key = Key::root(d);
  const FunctionNode* node = &nodes_.at(key);
  while (node->has_children) {
    std::size_t which = 0;
    const int n1 = key.level() + 1;
    const double scale = std::pow(2.0, n1);
    for (std::size_t m = 0; m < d; ++m) {
      auto t = static_cast<std::int64_t>(x[m] * scale);
      const auto hi = (std::int64_t{1} << n1) - 1;
      t = std::min(t, hi);
      which |= static_cast<std::size_t>(t & 1) << m;
    }
    key = key.child(which);
    node = &nodes_.at(key);
  }
  MH_CHECK(!node->coeffs.empty(), "leaf without coefficients");

  // value = 2^{nd/2} sum_i s[i...] prod phi_{i_m}(2^n x_m - l_m)
  const double scale = std::pow(2.0, key.level());
  Tensor r = node->coeffs;
  std::vector<double> phi(k);
  for (std::size_t m = 0; m < d; ++m) {
    const double u = x[m] * scale - static_cast<double>(key.translation(m));
    legendre_scaling(std::clamp(u, 0.0, 1.0), phi);
    r = inner_first(r, MatrixView(phi.data(), k, 1));
  }
  MH_CHECK(r.size() == 1, "contraction must reduce to a scalar");
  return r[0] * std::pow(2.0, 0.5 * static_cast<double>(key.level()) *
                                  static_cast<double>(d));
}

double Function::norm2() const {
  double acc = 0.0;
  for (const auto& [key, node] : nodes_) {
    if (!node.coeffs.empty()) {
      const double n = node.coeffs.normf();
      acc += n * n;
    }
  }
  return std::sqrt(acc);
}

double Function::integral() const {
  MH_CHECK(!compressed_, "integral requires reconstructed form");
  double acc = 0.0;
  for (const auto& [key, node] : nodes_) {
    if (node.has_children || node.coeffs.empty()) continue;
    acc += node.coeffs[0] *
           std::pow(2.0, -0.5 * static_cast<double>(key.level()) *
                              static_cast<double>(params_.ndim));
  }
  return acc;
}

Function& Function::scale(double s) {
  for (auto& [key, node] : nodes_) {
    if (!node.coeffs.empty()) node.coeffs.scale(s);
  }
  return *this;
}

std::size_t Function::num_leaves() const {
  std::size_t n = 0;
  for (const auto& [key, node] : nodes_) {
    if (!node.has_children) ++n;
  }
  return n;
}

int Function::max_depth() const {
  int depth = 0;
  for (const auto& [key, node] : nodes_) depth = std::max(depth, key.level());
  return depth;
}

std::vector<Key> Function::leaf_keys() const {
  std::vector<Key> keys;
  for (const auto& [key, node] : nodes_) {
    if (!node.has_children) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), KeyLess{});
  return keys;
}

const Tensor& Function::leaf_coeffs(const Key& key) const {
  const auto it = nodes_.find(key);
  MH_CHECK(it != nodes_.end(), "no node at key");
  MH_CHECK(!it->second.has_children, "node is interior");
  MH_CHECK(!it->second.coeffs.empty(), "leaf without coefficients");
  return it->second.coeffs;
}

void Function::sum_down_rec(const Key& key, Tensor inherited) {
  FunctionNode& node = nodes_.at(key);
  Tensor s = std::move(node.coeffs);
  node.coeffs = Tensor{};
  if (!inherited.empty()) {
    if (s.empty()) {
      s = std::move(inherited);
    } else {
      s += inherited;
    }
  }
  if (!node.has_children) {
    if (s.empty()) s = Tensor::cube(params_.ndim, params_.k);
    node.coeffs = std::move(s);
    return;
  }
  // Express the interior scaling coefficients in the children's basis. An
  // all-zero s (e.g. a seeded root) would only add +-0 to them: skip it.
  const bool nonzero = std::ranges::any_of(std::as_const(s).flat(),
                                           [](double x) { return x != 0.0; });
  const Tensor u = nonzero ? unfilter_scaling(s, params_.k) : Tensor{};
  for (std::size_t c = 0; c < key.num_children(); ++c) {
    // Accumulation may have created only some children; materialize the
    // missing siblings as empty leaves so the tree tiles the domain.
    nodes_.try_emplace(key.child(c));
    sum_down_rec(key.child(c),
                 nonzero ? extract_child_block(u, c, params_.k) : Tensor{});
  }
}

void Function::sum_down() {
  MH_CHECK(!compressed_, "sum_down requires reconstructed form");
  // A function nothing was accumulated into ends as one zero leaf.
  nodes_.try_emplace(Key::root(params_.ndim));
  sum_down_rec(Key::root(params_.ndim), Tensor{});
}

void Function::ensure_ancestors(const Key& key) {
  Key k = key;
  while (k.level() > 0) {
    k = k.parent();
    FunctionNode& node = nodes_[k];
    if (node.has_children) break;
    node.has_children = true;
  }
}

template <typename T>
void Function::accumulate_impl(const Key& key, T&& delta) {
  MH_CHECK(!compressed_, "accumulate requires reconstructed form");
  MH_CHECK(delta.ndim() == params_.ndim && delta.dim(0) == params_.k,
           "delta shape mismatch");
  FunctionNode& node = nodes_[key];
  if (node.coeffs.empty()) {
    node.coeffs = std::forward<T>(delta);
  } else {
    node.coeffs += delta;
  }
  ensure_ancestors(key);
}

void Function::accumulate(const Key& key, const Tensor& delta) {
  accumulate_impl(key, delta);
}

void Function::accumulate(const Key& key, Tensor&& delta) {
  accumulate_impl(key, std::move(delta));
}

Tensor& Function::accumulate_target(const Key& key) {
  MH_CHECK(!compressed_, "accumulate requires reconstructed form");
  FunctionNode& node = nodes_[key];
  if (node.coeffs.empty()) node.coeffs = Tensor::cube(params_.ndim, params_.k);
  ensure_ancestors(key);
  return node.coeffs;
}

Function Function::from_leaves(
    const FunctionParams& params,
    const std::vector<std::pair<Key, Tensor>>& leaves) {
  Function fn(params);
  fn.nodes_[Key::root(params.ndim)];  // materialize the root
  for (const auto& [key, coeffs] : leaves) {
    MH_CHECK(key.ndim() == params.ndim, "leaf key order mismatch");
    FunctionNode& node = fn.nodes_[key];
    MH_CHECK(node.coeffs.empty(), "duplicate leaf");
    node.coeffs = coeffs;
    fn.ensure_ancestors(key);
  }
  return fn;
}

}  // namespace mh::mra
