#include "world/world_compress.hpp"

#include "common/diagnostics.hpp"
#include "mra/twoscale.hpp"
#include "tensor/transform.hpp"

namespace mh::world {
namespace {

// Per-parent assembly state, confined to the parent owner's rank thread.
struct Pending {
  std::vector<Tensor> child_s;
  std::size_t received = 0;
};

struct CompressState {
  const dht::OwnerMap* owners = nullptr;
  mra::FunctionParams params;
  World* world = nullptr;
  DistributedCompressed* out = nullptr;
  std::vector<std::unordered_map<mra::Key, Pending, mra::KeyHash>> pending;

  // Runs on the owner of `parent`. Accumulates one child scaling block;
  // when complete, filters and recurses upward.
  void deliver(const mra::Key& parent, std::size_t child_index, Tensor s);
};

void CompressState::deliver(const mra::Key& parent, std::size_t child_index,
                            Tensor s) {
  const std::size_t rank = owners->owner(parent);
  const std::size_t nc = parent.num_children();
  Pending& p = pending[rank][parent];
  if (p.child_s.empty()) p.child_s.resize(nc);
  MH_CHECK(p.child_s[child_index].empty(), "duplicate child block");
  p.child_s[child_index] = std::move(s);
  if (++p.received < nc) return;

  // All children arrived: filter into (s | d).
  Tensor super =
      mra::gather_children(p.child_s, params.ndim, params.k);
  pending[rank].erase(parent);
  const mra::TwoScaleCoeffs& ts = mra::two_scale(params.k);
  Tensor v = transform(super, MatrixView(ts.wT));
  Tensor parent_s = mra::extract_low_corner(v, params.k);

  if (parent.level() == 0) {
    // Root keeps its scaling block in the corner (compressed convention).
    out->shards[rank].emplace(parent, std::move(v));
    return;
  }
  mra::set_low_corner(v, Tensor::cube(params.ndim, params.k));
  out->shards[rank].emplace(parent, std::move(v));

  // Forward the scaling block to the grandparent's owner.
  const mra::Key grand = parent.parent();
  const std::size_t up = owners->owner(grand);
  const double bytes = static_cast<double>(parent_s.size()) * 8.0;
  const std::size_t my_index = parent.child_index();
  world->send(rank, up, bytes,
              [this, grand, my_index, s2 = std::move(parent_s)]() mutable {
                deliver(grand, my_index, std::move(s2));
              });
}

}  // namespace

std::unordered_map<mra::Key, Tensor, mra::KeyHash>
DistributedCompressed::gather() const {
  std::unordered_map<mra::Key, Tensor, mra::KeyHash> all;
  for (const auto& shard : shards) {
    for (const auto& [key, v] : shard) all.emplace(key, v);
  }
  return all;
}

DistributedCompressed world_compress(World& world,
                                     const dht::DistributedFunction& f) {
  MH_CHECK(world.ranks() == f.ranks(),
           "world and function must have matching rank counts");
  DistributedCompressed out;
  out.params = f.params();
  out.shards.resize(world.ranks());

  CompressState state;
  state.owners = &f.owners();
  state.params = f.params();
  state.world = &world;
  state.out = &out;
  state.pending.resize(world.ranks());

  // Kick off: every rank ships its leaves' scaling blocks to the parents'
  // owners (leaves at level 0 would mean a single-leaf tree; projected
  // trees always have depth >= 1).
  for (std::size_t rank = 0; rank < world.ranks(); ++rank) {
    world.submit(rank, [&, rank] {
      for (const auto& [key, coeffs] : f.shard(rank)) {
        MH_CHECK(key.level() > 0, "single-leaf tree cannot be compressed");
        const mra::Key parent = key.parent();
        const std::size_t up = state.owners->owner(parent);
        const double bytes = static_cast<double>(coeffs.size()) * 8.0;
        world.send(rank, up,
                   bytes, [&state, parent, idx = key.child_index(),
                           s = coeffs]() mutable {
                     state.deliver(parent, idx, std::move(s));
                   });
      }
    });
  }
  world.fence();

  // Nothing may be left half-assembled.
  for (const auto& p : state.pending) {
    MH_CHECK(p.empty(), "compress finished with incomplete parents");
  }
  return out;
}

}  // namespace mh::world
