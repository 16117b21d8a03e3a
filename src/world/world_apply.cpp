#include "world/world_apply.hpp"

#include <mutex>
#include <unordered_map>

#include "common/diagnostics.hpp"

namespace mh::world {

mra::Function world_apply(World& world, const ops::SeparatedConvolution& op,
                          const dht::DistributedFunction& f,
                          ops::ApplyStats* stats,
                          const ops::ApplyOptions& opts) {
  MH_CHECK(world.ranks() == f.ranks(),
           "world and function must have matching rank counts");
  MH_CHECK(op.params().ndim == f.params().ndim &&
               op.params().k == f.params().k,
           "operator/function parameter mismatch");
  const std::size_t d = f.params().ndim;
  const std::size_t k = op.params().k;
  double payload_bytes = 8.0;
  for (std::size_t m = 0; m < d; ++m)
    payload_bytes *= static_cast<double>(k);

  // Per-rank result shards: each is touched only by its own rank's thread
  // (task or AM handler), so no locks are needed — the World discipline.
  using Shard = std::unordered_map<mra::Key, Tensor, mra::KeyHash>;
  std::vector<Shard> results(world.ranks());

  // Stats are shared across ranks; guard them.
  std::mutex stats_mu;
  ops::ApplyStats total_stats;

  const auto& owners = f.owners();
  for (std::size_t rank = 0; rank < world.ranks(); ++rank) {
    world.submit(rank, [&, rank] {
      const ops::ContributionSink ship = [&](const mra::Key& target,
                                             Tensor&& r) {
        const std::size_t owner = owners.owner(target);
        // Ship the contribution to the owner; the handler runs on the
        // owner's thread and mutates only the owner's shard.
        world.send(rank, owner, payload_bytes,
                   [&results, owner, target, r = std::move(r)]() mutable {
                     auto [it, inserted] =
                         results[owner].try_emplace(target, std::move(r));
                     if (!inserted) it->second += r;
                   });
      };
      ops::ApplyStats local;
      for (const auto& [key, coeffs] : f.shard(rank))
        ops::apply_leaf_tasks(op, key, coeffs, opts, &local, ship);
      std::scoped_lock lock(stats_mu);
      total_stats.tasks += local.tasks;
      total_stats.gemms += local.gemms;
      total_stats.flops += local.flops;
      total_stats.rank_reduced_gemms += local.rank_reduced_gemms;
    });
  }
  world.fence();

  mra::Function out(f.params());
  for (Shard& shard : results) {
    for (auto& [key, r] : shard) out.accumulate(key, std::move(r));
  }
  out.sum_down();
  if (stats != nullptr) *stats = total_stats;
  return out;
}

}  // namespace mh::world
