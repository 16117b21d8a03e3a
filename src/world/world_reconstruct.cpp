#include "world/world_reconstruct.hpp"

#include <cmath>

#include "common/diagnostics.hpp"
#include "mra/twoscale.hpp"
#include "tensor/transform.hpp"

namespace mh::world {

namespace {

struct ReconstructState {
  const dht::OwnerMap* owners = nullptr;
  const DistributedCompressed* compressed = nullptr;
  dht::DistributedFunction* out = nullptr;
  World* world = nullptr;

  // Runs on `key`'s owner: either continue downward (interior) or store the
  // leaf coefficients.
  void descend(const mra::Key& key, Tensor s) {
    const std::size_t rank = owners->owner(key);
    const auto& shard = compressed->shards[rank];
    const auto it = shard.find(key);
    if (it == shard.end()) {
      out->shard(rank).emplace(key, std::move(s));
      return;
    }
    const std::size_t k = out->params().k;
    Tensor v = it->second;
    if (!s.empty()) {
      // Non-root: the corner is zero in compressed form; install s.
      mra::set_low_corner(v, s);
    }
    const mra::TwoScaleCoeffs& ts = mra::two_scale(k);
    Tensor u = transform(v, MatrixView(ts.w));
    for (std::size_t c = 0; c < key.num_children(); ++c) {
      const mra::Key child = key.child(c);
      Tensor block = mra::extract_child_block(u, c, k);
      const std::size_t to = owners->owner(child);
      world->send(rank, to, static_cast<double>(block.size()) * 8.0,
                  [this, child, b = std::move(block)]() mutable {
                    descend(child, std::move(b));
                  });
    }
  }
};

}  // namespace

dht::DistributedFunction world_reconstruct(
    World& world, const dht::OwnerMap& owners,
    const DistributedCompressed& compressed) {
  MH_CHECK(world.ranks() == owners.ranks() &&
               compressed.shards.size() == owners.ranks(),
           "rank count mismatch");
  dht::DistributedFunction out(compressed.params, owners);

  ReconstructState state;
  state.owners = &owners;
  state.compressed = &compressed;
  state.out = &out;
  state.world = &world;

  const mra::Key root = mra::Key::root(compressed.params.ndim);
  world.submit(owners.owner(root),
               [&state, root] { state.descend(root, Tensor{}); });
  world.fence();
  return out;
}

namespace {

struct TruncateState {
  const dht::OwnerMap* owners = nullptr;
  DistributedCompressed* compressed = nullptr;
  World* world = nullptr;
  double tol = 0.0;
  mra::TruncateMode mode = mra::TruncateMode::kAbsolute;
  std::vector<std::size_t> removed_per_rank;

  struct NodeState {
    std::size_t interior_children = 0;
    std::size_t reports = 0;
    bool all_true = true;
  };
  std::vector<std::unordered_map<mra::Key, NodeState, mra::KeyHash>> states;

  double scaled_tol(const mra::Key& key) const {
    switch (mode) {
      case mra::TruncateMode::kAbsolute:
        return tol;
      case mra::TruncateMode::kLevelScaled:
        return tol * std::pow(2.0, -key.level());
      case mra::TruncateMode::kVolumeScaled:
        return tol *
               std::pow(2.0, -0.5 * static_cast<double>(key.level()) *
                                  static_cast<double>(
                                      compressed->params.ndim));
    }
    return tol;
  }

  // Runs on `key`'s owner once all interior children reported.
  void decide(const mra::Key& key) {
    const std::size_t rank = owners->owner(key);
    const NodeState& st = states[rank].at(key);
    auto& shard = compressed->shards[rank];
    bool truncated = false;
    if (st.all_true && key.level() > 0) {
      const auto it = shard.find(key);
      MH_CHECK(it != shard.end(), "decision on a non-interior node");
      if (it->second.normf() < scaled_tol(key)) {
        shard.erase(it);
        ++removed_per_rank[rank];
        truncated = true;
      }
    }
    if (key.level() == 0) return;  // root reports to nobody
    // Ship the verdict to the parent's owner thread (never touch another
    // rank's state directly — the World discipline).
    const mra::Key parent = key.parent();
    const std::size_t up = owners->owner(parent);
    world->send(rank, up, 16.0, [this, parent, truncated] {
      report(parent, truncated);
    });
  }

  // Runs on the parent's owner thread.
  void report(const mra::Key& parent, bool child_truncated) {
    const std::size_t rank = owners->owner(parent);
    NodeState& st = states[rank].at(parent);
    st.all_true = st.all_true && child_truncated;
    if (++st.reports == st.interior_children) decide(parent);
  }
};

}  // namespace

std::size_t world_truncate(World& world, const dht::OwnerMap& owners,
                           DistributedCompressed& compressed, double tol,
                           mra::TruncateMode mode) {
  MH_CHECK(world.ranks() == owners.ranks() &&
               compressed.shards.size() == owners.ranks(),
           "rank count mismatch");
  MH_CHECK(tol > 0.0, "tolerance must be positive");

  TruncateState state;
  state.owners = &owners;
  state.compressed = &compressed;
  state.world = &world;
  state.tol = tol;
  state.mode = mode;
  state.states.resize(world.ranks());
  state.removed_per_rank.assign(world.ranks(), 0);

  // Wave 1: every interior node registers itself with its parent's owner.
  for (std::size_t rank = 0; rank < world.ranks(); ++rank) {
    world.submit(rank, [&state, &world, rank] {
      for (const auto& [key, v] : state.compressed->shards[rank]) {
        state.states[rank].try_emplace(key);
        if (key.level() == 0) continue;
        const mra::Key parent = key.parent();
        const std::size_t up = state.owners->owner(parent);
        world.send(rank, up, 16.0, [&state, parent, up] {
          ++state.states[up].try_emplace(parent).first->second
                .interior_children;
        });
      }
    });
  }
  world.fence();

  // Wave 2: frontier nodes (no interior children) decide and the verdicts
  // ripple upward.
  for (std::size_t rank = 0; rank < world.ranks(); ++rank) {
    world.submit(rank, [&state, rank] {
      // Collect first: decide() may erase from the shard being walked.
      std::vector<mra::Key> frontier;
      for (const auto& [key, v] : state.compressed->shards[rank]) {
        if (state.states[rank].at(key).interior_children == 0) {
          frontier.push_back(key);
        }
      }
      for (const mra::Key& key : frontier) state.decide(key);
    });
  }
  world.fence();

  std::size_t removed = 0;
  for (std::size_t r : state.removed_per_rank) removed += r;
  return removed;
}

}  // namespace mh::world
