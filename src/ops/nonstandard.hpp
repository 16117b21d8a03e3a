// Nonstandard (NS) form of the Apply operator — the algorithm MADNESS
// actually runs, and the reason the paper's matrices have "fixed dimension
// ranging from 10 to 28": they are the 2k x 2k multiwavelet blocks
// (k = 5..14) of the telescoped operator.
//
// Background (Beylkin-Coifman-Rokhlin in the multiwavelet basis): with
// P_n the projector onto the level-n scaling space,
//
//   P_L T P_L = U^0 + sum_{n=1..L-1} (U^n - ss(U^n)),
//
// where U^n is the operator in the level-n *combined* basis {phi} u {psi}
// (a 2k x 2k block per displacement and dimension) and ss(U^n) its pure
// scaling->scaling quadrant, which telescopes away against level n-1. A
// function in NS form keeps BOTH s and d at every node, each node applies
// its level's blocks independently — across levels of an adaptive tree —
// and a final sweep converts the accumulated (s, d) contributions back to
// the standard leaf representation.
//
// Compared to the leaf-level apply in apply.hpp, the NS form captures the
// cross-level interactions an adaptive tree generates, and produces output
// detail one level finer than the input leaves.
#pragma once

#include <cstddef>
#include <unordered_map>

#include "mra/function.hpp"
#include "ops/apply.hpp"
#include "ops/convolution.hpp"

namespace mh::ops {

/// A function in nonstandard form: every tree node (leaves included) holds
/// the (2k)^d supertensor with its scaling block s in the low corner and
/// wavelet coefficients d elsewhere (zero d at leaves).
class NsForm {
 public:
  using NodeMap = std::unordered_map<mra::Key, Tensor, mra::KeyHash>;

  /// Build from a reconstructed function.
  static NsForm from(const mra::Function& f);

  const mra::FunctionParams& params() const noexcept { return params_; }
  const NodeMap& nodes() const noexcept { return nodes_; }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }

 private:
  explicit NsForm(mra::FunctionParams params) : params_(params) {}
  Tensor build_rec(const mra::Function& f, const mra::Key& key);

  mra::FunctionParams params_;
  NodeMap nodes_;
};

/// The standard leaf-only function of per-node NS-form contributions (each
/// a (2k)^d supertensor): every contribution unfiltered down the tree,
/// accumulated at the leaves, then sum_down.
mra::Function from_nonstandard(const NsForm::NodeMap& result,
                               const mra::FunctionParams& params);

/// Apply op to f in nonstandard form: each NS node's tasks run as one
/// linalg::batch_fused_apply call over the level's nonstandard block table
/// (SeparatedConvolution::ns_table), 2M terms (M at level 0) of extent 2k. Accuracy: exact cross-level coupling (up to displacement
/// screening) and one extra level of output detail.
mra::Function apply_nonstandard(const SeparatedConvolution& op,
                                const mra::Function& f,
                                ApplyStats* stats = nullptr);

}  // namespace mh::ops
