// Keys of the multiresolution tree.
//
// A key identifies one box of the dyadic grid: (level n, translation l) with
// l[dim] in [0, 2^n). The tree is 2^d-ary; child c of a box (bitmask over
// dimensions) doubles each translation and adds the corresponding bit. Keys
// hash well, which is what MADNESS's distributed hash table (and ours, in
// clustersim) relies on.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <span>

#include "common/diagnostics.hpp"
#include "common/hash.hpp"
#include "tensor/tensor.hpp"  // for kMaxTensorDim

namespace mh::mra {

class Key {
 public:
  Key() = default;

  Key(std::size_t ndim, int level, std::span<const std::int64_t> l)
      : ndim_(ndim), level_(level) {
    MH_CHECK(ndim >= 1 && ndim <= kMaxTensorDim, "key order out of range");
    MH_CHECK(l.size() == ndim, "translation arity mismatch");
    MH_CHECK(level >= 0 && level < 62, "level out of range");
    for (std::size_t i = 0; i < ndim; ++i) {
      MH_CHECK(l[i] >= 0 && l[i] < (std::int64_t{1} << level),
               "translation outside the level's grid");
      l_[i] = l[i];
    }
  }

  /// The root box (level 0, translation 0^d).
  static Key root(std::size_t ndim) {
    std::array<std::int64_t, kMaxTensorDim> zeros{};
    return Key(ndim, 0, std::span<const std::int64_t>{zeros.data(), ndim});
  }

  std::size_t ndim() const noexcept { return ndim_; }
  int level() const noexcept { return level_; }
  std::int64_t translation(std::size_t dim) const {
    MH_CHECK(dim < ndim_, "dimension out of range");
    return l_[dim];
  }
  std::span<const std::int64_t> translations() const noexcept {
    return {l_.data(), ndim_};
  }

  /// Number of children (2^d).
  std::size_t num_children() const noexcept { return std::size_t{1} << ndim_; }

  /// Child box; bit i of `which` selects the upper half along dimension i.
  Key child(std::size_t which) const {
    MH_CHECK(which < num_children(), "child index out of range");
    Key k = *this;
    k.level_ = level_ + 1;
    for (std::size_t i = 0; i < ndim_; ++i) {
      k.l_[i] = 2 * l_[i] + ((which >> i) & 1);
    }
    return k;
  }

  /// Parent box. Requires level > 0.
  Key parent() const {
    MH_CHECK(level_ > 0, "root has no parent");
    Key k = *this;
    k.level_ = level_ - 1;
    for (std::size_t i = 0; i < ndim_; ++i) k.l_[i] = l_[i] >> 1;
    return k;
  }

  /// Index of this box within its parent (inverse of child()).
  std::size_t child_index() const {
    MH_CHECK(level_ > 0, "root has no child index");
    std::size_t which = 0;
    for (std::size_t i = 0; i < ndim_; ++i)
      which |= static_cast<std::size_t>(l_[i] & 1) << i;
    return which;
  }

  /// Translated box at the same level, or nullopt-like invalid result if the
  /// displacement leaves the grid. Returns false on out-of-grid.
  bool neighbor(std::span<const std::int64_t> displacement, Key& out) const {
    MH_CHECK(displacement.size() == ndim_, "displacement arity mismatch");
    const std::int64_t hi = std::int64_t{1} << level_;
    out = *this;
    for (std::size_t i = 0; i < ndim_; ++i) {
      const std::int64_t t = l_[i] + displacement[i];
      if (t < 0 || t >= hi) return false;
      out.l_[i] = t;
    }
    return true;
  }

  /// Translated box on the periodic (torus) grid: coordinates wrap modulo
  /// 2^level. Always succeeds; each displacement names one periodic image.
  Key neighbor_periodic(std::span<const std::int64_t> displacement) const {
    MH_CHECK(displacement.size() == ndim_, "displacement arity mismatch");
    const std::int64_t hi = std::int64_t{1} << level_;
    Key out = *this;
    for (std::size_t i = 0; i < ndim_; ++i) {
      out.l_[i] = ((l_[i] + displacement[i]) % hi + hi) % hi;
    }
    return out;
  }

  std::uint64_t hash() const noexcept {
    std::uint64_t h = mix64(static_cast<std::uint64_t>(level_) * 0x9e3779b9u +
                            ndim_);
    for (std::size_t i = 0; i < ndim_; ++i)
      h = hash_combine(h, static_cast<std::uint64_t>(l_[i]));
    return h;
  }

  friend bool operator==(const Key& a, const Key& b) noexcept {
    if (a.ndim_ != b.ndim_ || a.level_ != b.level_) return false;
    for (std::size_t i = 0; i < a.ndim_; ++i)
      if (a.l_[i] != b.l_[i]) return false;
    return true;
  }

  friend std::ostream& operator<<(std::ostream& os, const Key& k);

 private:
  std::size_t ndim_ = 0;
  int level_ = -1;
  std::array<std::int64_t, kMaxTensorDim> l_{};
};

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    return static_cast<std::size_t>(k.hash());
  }
};

/// Leaf order: by level, then translation lexicographically. It is the
/// order Function::leaf_keys() lists leaves in, so every Apply that walks
/// leaves this way adds into each target in the serial Apply's order.
struct KeyLess {
  bool operator()(const Key& a, const Key& b) const noexcept {
    if (a.level() != b.level()) return a.level() < b.level();
    return std::ranges::lexicographical_compare(a.translations(),
                                                b.translations());
  }
};

}  // namespace mh::mra
