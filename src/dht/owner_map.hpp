// Tree-node -> rank ownership, the MADNESS "process map" at the data level.
//
// MADNESS stores the multiresolution tree in a distributed hash table
// (paper §I-A): every tree node lives on exactly one compute node, chosen
// by a process map. Two maps are provided, mirroring the paper's setups:
//
//   HashOwnerMap    — uniform hashing of keys (the even distribution of
//                     Tables III/IV at the data level);
//   SubtreeOwnerMap — a whole subtree rooted at a level-L ancestor maps to
//                     one rank (the default locality-preserving MADNESS
//                     map: neighbours co-located, less balance).
//
// Those two decide where a function's leaves live. Where an Apply's
// targets are computed is not a process map: ops::SlabCut decides it per
// Apply from the operator and the source leaves (see world_apply).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mra/key.hpp"

namespace mh::dht {

class OwnerMap {
 public:
  explicit OwnerMap(std::size_t ranks);
  virtual ~OwnerMap() = default;

  std::size_t ranks() const noexcept { return ranks_; }
  /// The rank owning this key.
  virtual std::size_t owner(const mra::Key& key) const = 0;

 protected:
  std::size_t ranks_;
};

/// Highest-random-weight (rendezvous) rank order for one placement hash:
/// every rank is scored by hash(seed, rank, key) and the first `r` ranks in
/// descending score order are returned. The order is a property of the key
/// alone — removing a rank from consideration only promotes the ranks
/// behind it, never reshuffles the survivors — which is what makes
/// ReplicatedStore's placement stable under membership change.
std::vector<std::size_t> rendezvous_order(std::uint64_t placement_hash,
                                          std::size_t ranks, std::size_t r,
                                          std::uint64_t seed = 0);

/// The level-`level` ancestor every key of a subtree shares (keys at or
/// above that level are their own anchor). SubtreeOwnerMap places keys by
/// it, and ElasticFunction places replica sets by it.
mra::Key subtree_anchor(const mra::Key& key, int level);

/// Uniform hashing of (level, translation).
class HashOwnerMap final : public OwnerMap {
 public:
  explicit HashOwnerMap(std::size_t ranks, std::uint64_t seed = 0);
  std::size_t owner(const mra::Key& key) const override;

 private:
  std::uint64_t seed_;
};

/// Keys map by their level-`subtree_level` ancestor: entire subtrees are
/// co-located, so same-subtree accumulations never leave the rank.
class SubtreeOwnerMap final : public OwnerMap {
 public:
  SubtreeOwnerMap(std::size_t ranks, int subtree_level,
                  std::uint64_t seed = 0);
  std::size_t owner(const mra::Key& key) const override;
  int subtree_level() const noexcept { return subtree_level_; }

 private:
  int subtree_level_;
  std::uint64_t seed_;
};

/// Deterministic anchor keys for `ngroups` subtree groups: group g is the
/// subtree rooted at a distinct level-`level` box whose translation is
/// mixed from (seed, g). Requires 2^(level*ndim) >= ngroups so anchors are
/// distinct. These are the keys the clustersim steal policy biases on: a
/// thief that already owns a group's anchor holds its coefficient blocks.
std::vector<mra::Key> subtree_anchors(std::size_t ngroups, std::size_t ndim,
                                      int level, std::uint64_t seed = 0);

/// Smallest level L with 2^(L*ndim) >= ngroups (anchor level for
/// subtree_anchors).
int anchor_level(std::size_t ngroups, std::size_t ndim);

/// Owner of each anchor under `map` — the per-group coefficient home the
/// steal-enabled cluster scheduler prefers to migrate work toward.
std::vector<std::size_t> owners_of(const OwnerMap& map,
                                   const std::vector<mra::Key>& anchors);

}  // namespace mh::dht
