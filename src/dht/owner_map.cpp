#include "dht/owner_map.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/diagnostics.hpp"
#include "common/hash.hpp"

namespace mh::dht {

OwnerMap::OwnerMap(std::size_t ranks) : ranks_(ranks) {
  MH_CHECK(ranks >= 1, "owner map needs at least one rank");
}

std::vector<std::size_t> rendezvous_order(std::uint64_t placement_hash,
                                          std::size_t ranks, std::size_t r,
                                          std::uint64_t seed) {
  MH_CHECK(ranks >= 1, "rendezvous order needs at least one rank");
  std::vector<std::pair<std::uint64_t, std::size_t>> scored;
  scored.reserve(ranks);
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    scored.emplace_back(
        hash_combine(hash_combine(mix64(seed), mix64(rank)), placement_hash),
        rank);
  }
  // Descending score; the rank index breaks (vanishingly rare) score ties
  // so the order is total and deterministic.
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  const std::size_t n = std::min(r, ranks);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) order.push_back(scored[i].second);
  return order;
}

mra::Key subtree_anchor(const mra::Key& key, int level) {
  mra::Key anchor = key;
  while (anchor.level() > level) anchor = anchor.parent();
  return anchor;
}

HashOwnerMap::HashOwnerMap(std::size_t ranks, std::uint64_t seed)
    : OwnerMap(ranks), seed_(seed) {}

std::size_t HashOwnerMap::owner(const mra::Key& key) const {
  return static_cast<std::size_t>(hash_combine(mix64(seed_), key.hash()) %
                                  ranks_);
}

SubtreeOwnerMap::SubtreeOwnerMap(std::size_t ranks, int subtree_level,
                                 std::uint64_t seed)
    : OwnerMap(ranks), subtree_level_(subtree_level), seed_(seed) {
  MH_CHECK(subtree_level >= 0, "subtree level must be non-negative");
}

std::size_t SubtreeOwnerMap::owner(const mra::Key& key) const {
  return static_cast<std::size_t>(
      hash_combine(mix64(seed_), subtree_anchor(key, subtree_level_).hash()) %
      ranks_);
}

int anchor_level(std::size_t ngroups, std::size_t ndim) {
  MH_CHECK(ngroups >= 1, "need at least one group");
  MH_CHECK(ndim >= 1, "need at least one dimension");
  int level = 0;
  while ((std::size_t{1} << (static_cast<std::size_t>(level) * ndim)) <
         ngroups) {
    ++level;
    MH_CHECK(level < 62, "too many groups for distinct anchors");
  }
  return level;
}

std::vector<mra::Key> subtree_anchors(std::size_t ngroups, std::size_t ndim,
                                      int level, std::uint64_t seed) {
  MH_CHECK(level >= anchor_level(ngroups, ndim),
           "anchor level too shallow for distinct anchors");
  MH_CHECK(static_cast<std::size_t>(level) * ndim < 62,
           "anchor level out of range");
  const std::uint64_t boxes_per_dim = std::uint64_t{1} << level;
  const std::uint64_t boxes =
      std::uint64_t{1} << (static_cast<std::size_t>(level) * ndim);
  std::vector<mra::Key> anchors;
  anchors.reserve(ngroups);
  std::unordered_set<std::uint64_t> used;
  used.reserve(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    // Seeded hash scatters anchors across the level's grid like an
    // adaptively refined tree; linear probing resolves collisions so the
    // anchors stay distinct.
    std::uint64_t box = hash_combine(mix64(seed), mix64(g)) % boxes;
    while (!used.insert(box).second) box = (box + 1) % boxes;
    std::vector<std::int64_t> l(ndim);
    for (std::size_t d = 0; d < ndim; ++d) {
      l[d] = static_cast<std::int64_t>(box % boxes_per_dim);
      box /= boxes_per_dim;
    }
    anchors.emplace_back(ndim, level, std::span<const std::int64_t>(l));
  }
  return anchors;
}

std::vector<std::size_t> owners_of(const OwnerMap& map,
                                   const std::vector<mra::Key>& anchors) {
  std::vector<std::size_t> owners;
  owners.reserve(anchors.size());
  for (const mra::Key& key : anchors) owners.push_back(map.owner(key));
  return owners;
}

}  // namespace mh::dht
