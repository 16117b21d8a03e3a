#include "world/world_apply.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

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
  const std::size_t ranks = world.ranks();
  const std::size_t d = f.params().ndim;
  const std::size_t k = op.params().k;
  double leaf_bytes = 8.0;
  for (std::size_t m = 0; m < d; ++m) leaf_bytes *= static_cast<double>(k);

  // Partition: the rank that computes each target, and each leaf's halo.
  const ops::SlabCut cut(op, f.leaf_keys(), ranks);

  // Per rank: the source leaves it computes from (its own, and the halo it
  // receives) and its result shard. Each is touched only by its own rank's
  // thread (task or AM handler), so no locks are needed — the World
  // discipline.
  using Source = std::pair<mra::Key, const Tensor*>;
  std::vector<std::vector<Source>> own(ranks);
  std::vector<std::vector<std::pair<mra::Key, Tensor>>> halo(ranks);

  // Halo: every leaf goes once to each other rank that computes one of its
  // targets.
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    world.submit(rank, [&, rank] {
      for (const auto& [key, coeffs] : f.shard(rank)) {
        for (const std::size_t to : cut.computing_sides(key)) {
          if (to == rank)
            own[rank].emplace_back(key, &coeffs);
          else
            world.send(rank, to, leaf_bytes,
                       [&halo, to, key = key, leaf = coeffs]() mutable {
                         halo[to].emplace_back(key, std::move(leaf));
                       });
        }
      }
    });
  }
  world.fence();

  // Compute: each rank writes its own targets through, leaf by leaf in the
  // serial Apply's leaf order.
  using Shard = std::unordered_map<mra::Key, Tensor, mra::KeyHash>;
  std::vector<Shard> results(ranks);
  std::vector<ops::ApplyStats> rank_stats(ranks);
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    world.submit(rank, [&, rank] {
      std::vector<Source> sources = std::move(own[rank]);
      for (const auto& [key, coeffs] : halo[rank])
        sources.emplace_back(key, &coeffs);
      std::sort(sources.begin(), sources.end(),
                [](const Source& a, const Source& b) {
                  return mra::KeyLess{}(a.first, b.first);
                });
      Shard& shard = results[rank];
      const ops::ContributionTarget into = [&](const mra::Key& key) -> Tensor* {
        if (cut.side(key) != rank) return nullptr;
        Tensor& t = shard[key];
        if (t.empty()) t = Tensor::cube(d, k);
        return &t;
      };
      for (const auto& [key, coeffs] : sources)
        ops::apply_leaf_tasks(op, key, *coeffs, opts, &rank_stats[rank], into);
    });
  }
  world.fence();
  for (const ops::ApplyStats& s : rank_stats) {
    if (stats == nullptr) break;
    stats->tasks += s.tasks;
    stats->gemms += s.gemms;
    stats->flops += s.flops;
    stats->rank_reduced_gemms += s.rank_reduced_gemms;
  }

  // Every target lives in exactly one shard, so the gather moves each
  // tensor into its node without an add.
  mra::Function out(f.params());
  for (Shard& shard : results) {
    for (auto& [key, r] : shard) out.accumulate(key, std::move(r));
  }
  out.sum_down();
  return out;
}

}  // namespace mh::world
