#include "ops/nonstandard.hpp"

#include <unordered_set>

#include "common/diagnostics.hpp"
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

mra::Function apply_nonstandard(const SeparatedConvolution& op,
                                const mra::Function& f, ApplyStats* stats) {
  MH_CHECK(op.params().ndim == f.ndim() && op.params().k == f.k(),
           "operator/function parameter mismatch");
  const std::size_t d = f.ndim();
  const std::size_t k = f.k();

  const NsForm ns = NsForm::from(f);
  NsForm::NodeMap result;

  std::array<MatrixView, kMaxTensorDim> mats;
  std::array<std::shared_ptr<const Tensor>, kMaxTensorDim> blocks;

  for (const auto& [key, u] : ns.nodes()) {
    const int n = key.level();
    for_each_task(op, key, [&](const mra::Key& to, const Displacement& disp) {
      Tensor r = Tensor::cube(d, 2 * k);
      for (std::size_t mu = 0; mu < op.rank(); ++mu) {
        // Telescoped increment: (prod_dim U) - (prod_dim ss) for n > 0;
        // at the coarsest level the ss part is kept (it IS P_1 T P_1).
        for (std::size_t dim = 0; dim < d; ++dim) {
          blocks[dim] = op.ns_block(mu, n, disp[dim],
                                    SeparatedConvolution::NsPart::kFull);
          mats[dim] = MatrixView(*blocks[dim]);
        }
        Tensor contrib = general_transform(u, {mats.data(), d});
        r.gaxpy(1.0, contrib, op.term_coeff(mu));
        if (stats != nullptr) {
          stats->gemms += d;
          stats->flops += transform_flops(d, 2 * k);
        }
        if (n > 0) {
          for (std::size_t dim = 0; dim < d; ++dim) {
            blocks[dim] = op.ns_block(mu, n, disp[dim],
                                      SeparatedConvolution::NsPart::kSsOnly);
            mats[dim] = MatrixView(*blocks[dim]);
          }
          Tensor ss = general_transform(u, {mats.data(), d});
          r.gaxpy(1.0, ss, -op.term_coeff(mu));
          if (stats != nullptr) {
            stats->gemms += d;
            stats->flops += transform_flops(d, 2 * k);
          }
        }
      }
      auto [it, inserted] = result.try_emplace(to, std::move(r));
      if (!inserted) it->second += r;
      if (stats != nullptr) ++stats->tasks;
    });
  }

  mra::Function out(f.params());
  if (!result.empty()) {
    const auto interior = interior_keys(result);
    convert_rec(result, interior, mra::Key::root(d), Tensor{}, f.params(),
                out);
  }
  out.sum_down();
  return out;
}

}  // namespace mh::ops
