// Adaptive multiresolution representation of a function on [0,1]^d.
//
// A Function is a 2^d-ary tree of boxes (paper Figure 1). In *reconstructed*
// form each leaf holds the k^d tensor of scaling coefficients of the
// function on that box; in *compressed* form each interior node holds the
// (2k)^d supertensor of wavelet (difference) coefficients with a zero
// low-corner — except the root, whose low corner carries the top-level
// scaling coefficients. Compress/reconstruct move between the forms via the
// two-scale filter; truncate discards interior nodes whose wavelet norm is
// below threshold, which is what makes the tree adaptive.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mra/key.hpp"
#include "mra/twoscale.hpp"
#include "tensor/tensor.hpp"

namespace mh::mra {

/// Scalar field on [0,1]^d; the span has ndim coordinates.
using ScalarFn = std::function<double(std::span<const double>)>;

struct FunctionParams {
  std::size_t ndim = 3;   ///< d: tensor order (paper uses 3 and 4)
  std::size_t k = 10;     ///< polynomials per dimension (paper: 10..30)
  double thresh = 1e-6;   ///< refinement / truncation threshold
  int initial_level = 1;  ///< refine everywhere at least this deep
  int max_level = 20;     ///< hard refinement stop
};

/// One tree node. In reconstructed form leaves carry k^d scaling
/// coefficients; in compressed form interior nodes carry the (2k)^d wavelet
/// supertensor. Nodes with no data hold an empty tensor.
struct FunctionNode {
  Tensor coeffs;
  bool has_children = false;
};

class Function {
 public:
  using NodeMap = std::unordered_map<Key, FunctionNode, KeyHash>;

  Function() = default;
  explicit Function(FunctionParams params);

  /// Adaptive projection of f (paper §I-A: refine until the wavelet norm of
  /// a box drops below thresh). Result is in reconstructed form.
  static Function project(const ScalarFn& f, const FunctionParams& params);

  const FunctionParams& params() const noexcept { return params_; }
  std::size_t ndim() const noexcept { return params_.ndim; }
  std::size_t k() const noexcept { return params_.k; }
  bool compressed() const noexcept { return compressed_; }

  /// Reconstructed -> compressed (no-op if already compressed).
  void compress();
  /// Compressed -> reconstructed (no-op if already reconstructed).
  void reconstruct();
  /// Discard interior wavelet blocks with norm below tol (default: the
  /// function's thresh). Requires compressed form; keeps the form.
  void truncate(double tol = -1.0);

  /// Point evaluation; requires reconstructed form.
  double eval(std::span<const double> x) const;

  /// L2 norm; valid in either form (the representations are orthogonal).
  double norm2() const;

  /// Integral over [0,1]^d (the phi_0...0 moment); requires reconstructed.
  double integral() const;

  /// L2 inner product <f, g>; both functions must be compressed and share
  /// parameters. Exact because the multiwavelet representation is
  /// orthonormal: nodes absent from one tree contribute zero.
  friend double inner(const Function& f, const Function& g);

  /// Scale all coefficients in place.
  Function& scale(double s);

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_leaves() const;
  int max_depth() const;

  const NodeMap& nodes() const noexcept { return nodes_; }

  /// Keys of all leaves (nodes without children), sorted by KeyLess.
  std::vector<Key> leaf_keys() const;

  /// Leaf coefficient access; throws if the key is not a data-bearing leaf.
  const Tensor& leaf_coeffs(const Key& key) const;

  /// Add `delta` (shape k^d) into the leaf at `key`, creating the leaf and
  /// any missing ancestors. Used by Apply's postprocess accumulation.
  /// Requires reconstructed form. The rvalue overload moves `delta` into an
  /// empty node instead of copying it.
  void accumulate(const Key& key, const Tensor& delta);
  void accumulate(const Key& key, Tensor&& delta);

  /// The k^d coefficients at `key` for a caller to add into in place (the
  /// serial Apply's write-through target): creates the node and any
  /// missing ancestors, and zero-fills the coefficients when they are
  /// empty. Inserting other nodes keeps the reference valid; sum_down,
  /// compress and truncate may move or erase the tensor. Requires
  /// reconstructed form.
  Tensor& accumulate_target(const Key& key);

  /// Push scaling coefficients held at interior nodes down to the leaves
  /// (via unfilter_scaling), restoring the leaf-only invariant after a
  /// sequence of accumulate() calls at mixed levels; all-zero interior
  /// tensors are skipped. Creates the root if absent, so a function with no
  /// contributions ends as one zero leaf. Reconstructed form.
  void sum_down();

  /// Build a function directly from explicit leaf coefficients (workload
  /// generators use this to reproduce the paper's tree shapes).
  static Function from_leaves(const FunctionParams& params,
                              const std::vector<std::pair<Key, Tensor>>& leaves);

 private:
  Tensor project_box(const ScalarFn& f, const Key& key) const;
  void project_refine(const ScalarFn& f, const Key& key, int level_guard);
  Tensor compress_rec(const Key& key);
  void reconstruct_rec(const Key& key, Tensor s);
  bool truncate_rec(const Key& key, double tol);
  void sum_down_rec(const Key& key, Tensor inherited);
  void ensure_ancestors(const Key& key);
  template <typename T>
  void accumulate_impl(const Key& key, T&& delta);

  FunctionParams params_;
  NodeMap nodes_;
  bool compressed_ = false;
};

/// L2 inner product <f, g> of two compressed functions (see the friend
/// declaration in Function for the contract).
double inner(const Function& f, const Function& g);

/// Unfilter scaling coefficients s (extent k per mode) into the children's
/// basis: the (2k)^d supertensor whose child block c is child c's share.
/// Applies the k x 2k low-pass slab w[0:k, :] = [h0 h1] on every mode, which
/// equals transform(v, w) of the supertensor v with s in its low corner and
/// a zero wavelet part up to the sign of exact zeros.
Tensor unfilter_scaling(const Tensor& s, std::size_t k);

/// Gather 2^d child tensors (each extent k per mode) into one supertensor of
/// extent 2k per mode; child c occupies the block selected by its bitmask.
Tensor gather_children(std::span<const Tensor> children, std::size_t ndim,
                       std::size_t k);

/// Extract the child block `which` (bitmask) from a supertensor of extent 2k.
Tensor extract_child_block(const Tensor& super, std::size_t which,
                           std::size_t k);

/// Zero or read the all-low corner (extent k per mode) of a supertensor.
Tensor extract_low_corner(const Tensor& super, std::size_t k);
void set_low_corner(Tensor& super, const Tensor& corner);

}  // namespace mh::mra
