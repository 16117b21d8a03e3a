#include "ops/nonstandard.hpp"

#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "linalg/batch_gemm.hpp"
#include "tensor/transform.hpp"

namespace mh::ops {

Tensor NsForm::build_rec(const mra::Function& f, const mra::Key& key) {
  const auto& node = f.nodes().at(key);
  const std::size_t d = params_.ndim;
  const std::size_t k = params_.k;
  if (!node.has_children) {
    Tensor u = Tensor::cube(d, 2 * k);
    mra::set_low_corner(u, node.coeffs);
    const Tensor s = node.coeffs;
    nodes_.emplace(key, std::move(u));
    return s;
  }
  std::vector<Tensor> child_s(key.num_children());
  for (std::size_t c = 0; c < key.num_children(); ++c) {
    child_s[c] = build_rec(f, key.child(c));
  }
  Tensor super = mra::gather_children(child_s, d, k);
  const mra::TwoScaleCoeffs& ts = mra::two_scale(k);
  // Filter: low corner becomes this node's s, the rest its d — exactly the
  // (s, d) supertensor the NS form keeps at every node.
  Tensor v = transform(super, MatrixView(ts.wT));
  Tensor s = mra::extract_low_corner(v, k);
  nodes_.emplace(key, std::move(v));
  return s;
}

NsForm NsForm::from(const mra::Function& f) {
  MH_CHECK(!f.compressed(), "NS form is built from the reconstructed form");
  NsForm ns(f.params());
  ns.build_rec(f, mra::Key::root(f.ndim()));
  return ns;
}

namespace {

// Interior keys of the result tree: every contribution key and all of its
// ancestors (each interior node unfilters one level further down).
std::unordered_set<mra::Key, mra::KeyHash> interior_keys(
    const NsForm::NodeMap& result) {
  std::unordered_set<mra::Key, mra::KeyHash> interior;
  for (const auto& [key, u] : result) {
    mra::Key walk = key;
    interior.insert(walk);
    while (walk.level() > 0) {
      walk = walk.parent();
      interior.insert(walk);
    }
  }
  return interior;
}

void convert_rec(const NsForm::NodeMap& result,
                 const std::unordered_set<mra::Key, mra::KeyHash>& interior,
                 const mra::Key& key, const Tensor& carry,
                 const mra::FunctionParams& params, mra::Function& out) {
  const std::size_t d = params.ndim;
  const std::size_t k = params.k;
  if (!interior.contains(key)) {
    out.accumulate(key, carry);
    return;
  }
  Tensor v;
  const auto it = result.find(key);
  if (it != result.end()) {
    v = it->second;
  } else {
    v = Tensor::cube(d, 2 * k);
  }
  if (!carry.empty()) {
    Tensor corner = mra::extract_low_corner(v, k);
    corner += carry;
    mra::set_low_corner(v, corner);
  }
  const mra::TwoScaleCoeffs& ts = mra::two_scale(k);
  Tensor u = transform(v, MatrixView(ts.w));  // unfilter to children
  for (std::size_t c = 0; c < key.num_children(); ++c) {
    convert_rec(result, interior, key.child(c),
                mra::extract_child_block(u, c, k), params, out);
  }
}

}  // namespace

mra::Function from_nonstandard(const NsForm::NodeMap& result,
                               const mra::FunctionParams& params) {
  mra::Function out(params);
  if (!result.empty()) {
    const auto interior = interior_keys(result);
    convert_rec(result, interior, mra::Key::root(params.ndim), Tensor{},
                params, out);
  }
  out.sum_down();
  return out;
}

mra::Function apply_nonstandard(const SeparatedConvolution& op,
                                const mra::Function& f, ApplyStats* stats) {
  MH_CHECK(op.params().ndim == f.ndim() && op.params().k == f.k(),
           "operator/function parameter mismatch");
  const std::size_t d = f.ndim();
  const std::size_t k2 = 2 * f.k();
  const std::size_t rank = op.rank();

  const NsForm ns = NsForm::from(f);
  NsForm::NodeMap result;

  // A task's telescoped increment sum_mu c_mu (prod_dim U - prod_dim ss) u
  // is one batch item over ns_table's rows: the kFull terms weighted +c_mu
  // and, for n > 0, the kSsOnly terms weighted -c_mu (at the coarsest
  // level the ss part is kept: it IS P_1 T P_1). An ss block is zero
  // outside its k x k corner, so its terms contract only k rows.
  std::vector<double> coeffs(2 * rank);
  std::vector<std::size_t> kcap(2 * rank, k2);
  for (std::size_t mu = 0; mu < rank; ++mu) {
    coeffs[mu] = op.term_coeff(mu);
    coeffs[rank + mu] = -op.term_coeff(mu);
    kcap[rank + mu] = f.k();
  }
  // Tasks write through into zero-created result nodes, bitwise what
  // adding a per-task result into each node gives.
  const ContributionTarget into = [&](const mra::Key& to) {
    auto [it, inserted] = result.try_emplace(to);
    if (inserted) it->second = Tensor::cube(d, k2);
    return &it->second;
  };
  for (const auto& [key, u] : ns.nodes()) {
    const int n = key.level();
    const std::size_t terms = n > 0 ? 2 * rank : rank;
    detail::run_leaf_batch(op, key, u, into, [&](auto items) {
      linalg::batch_fused_apply(d, k2, op.ns_table(n, items),
                                std::span{coeffs}.first(terms),
                                std::span{kcap}.first(terms), items,
                                linalg::thread_workspace());
      if (stats == nullptr) return;
      stats->tasks += items.size();
      stats->gemms += items.size() * terms * d;
      stats->flops += static_cast<double>(items.size() * terms) *
                      transform_flops(d, k2);
    });
  }

  return from_nonstandard(result, f.params());
}

}  // namespace mh::ops
