#include "dht/distributed_function.hpp"

#include <utility>

#include "common/diagnostics.hpp"
#include "fault/fault.hpp"

namespace mh::dht {

DistributedFunction::DistributedFunction(const mra::Function& fn,
                                         const OwnerMap& owners,
                                         std::size_t replication)
    : params_(fn.params()),
      replication_(replication < 1 ? 1 : replication),
      map_(owners),
      replicas_(owners.ranks()) {
  MH_CHECK(!fn.compressed(), "scatter requires reconstructed form");
  for (const mra::Key& key : fn.leaf_keys()) {
    const Tensor& coeffs = fn.leaf_coeffs(key);
    map_.put(/*from_rank=*/0, key, coeffs,
             static_cast<double>(coeffs.size()) * 8.0);
    if (replication_ < 2) continue;
    // Backups: the first replication-1 ranks of the key's rendezvous order
    // that are not the primary. The write-through rides the scatter, like
    // a replicated projector would issue it.
    const std::size_t primary = map_.owner(key);
    std::size_t backups = 0;
    for (const std::size_t rank : map_.owners().replicas_of(key, ranks())) {
      if (rank == primary) continue;
      replicas_[rank].insert_or_assign(key, coeffs);
      if (++backups == replication_ - 1) break;
    }
  }
}

std::size_t DistributedFunction::rebuild_shard(std::size_t dead_rank) {
  MH_CHECK(dead_rank < ranks(), "rank out of range");
  if (replication_ < 2) {
    throw fault::FaultError(
        fault::ErrorCode::kDataLost,
        "rebuild_shard: no replicas were kept (replication < 2)");
  }
  map_.drop_shard(dead_rank);
  // The dead rank's backup copies died with it.
  replicas_[dead_rank].clear();
  std::size_t restored = 0;
  for (std::size_t rank = 0; rank < ranks(); ++rank) {
    for (const auto& [key, coeffs] : replicas_[rank]) {
      if (map_.owner(key) != dead_rank || map_.contains(key)) continue;
      // Survivor `rank` promotes its backup copy back to the primary home.
      map_.put(rank, key, coeffs, static_cast<double>(coeffs.size()) * 8.0);
      ++restored;
    }
  }
  return restored;
}

std::vector<std::size_t> DistributedFunction::apply_loads(
    const ops::SeparatedConvolution& op) const {
  std::vector<std::size_t> loads(ranks(), 0);
  for (std::size_t rank = 0; rank < ranks(); ++rank) {
    const auto count = [&](const mra::Key&, const ops::Displacement&) {
      ++loads[rank];
    };
    for (const auto& [key, coeffs] : map_.shard(rank)) {
      ops::for_each_task(op, key, count);
    }
  }
  return loads;
}

mra::Function DistributedFunction::gather() const {
  std::vector<std::pair<mra::Key, Tensor>> leaves;
  leaves.reserve(map_.size());
  for (std::size_t rank = 0; rank < ranks(); ++rank) {
    for (const auto& [key, coeffs] : map_.shard(rank)) {
      leaves.emplace_back(key, coeffs);
    }
  }
  return mra::Function::from_leaves(params_, leaves);
}

mra::Function distributed_apply(const ops::SeparatedConvolution& op,
                                const DistributedFunction& f,
                                ops::ApplyStats* stats, CommStats* comm_out) {
  MH_CHECK(op.params().ndim == f.params().ndim &&
               op.params().k == f.params().k,
           "operator/function parameter mismatch");
  const std::size_t d = f.params().ndim;
  // One result tensor (k^d doubles) per accumulated message.
  double payload_bytes = 8.0;
  for (std::size_t m = 0; m < d; ++m)
    payload_bytes *= static_cast<double>(op.params().k);

  // The result tree is itself a distributed map under the same owner map;
  // contributions are accumulated *at the target's owner* (an active
  // message when the displacement leaves the source's rank).
  DistributedMap<Tensor> result(f.map().owners());
  ops::ApplyStats local;
  for (std::size_t rank = 0; rank < f.ranks(); ++rank) {
    const ops::ContributionSink add = [&](const mra::Key& target, Tensor&& r) {
      result.accumulate(rank, target, std::move(r), payload_bytes,
                        [](Tensor& acc, Tensor&& in) { acc += in; });
    };
    for (const auto& [key, coeffs] : f.map().shard(rank))
      ops::apply_leaf_tasks(op, key, coeffs, {}, &local, add);
  }

  // Gather the distributed result into one address space.
  mra::Function out(f.params());
  for (std::size_t rank = 0; rank < f.ranks(); ++rank) {
    for (const auto& [key, r] : result.shard(rank)) {
      out.accumulate(key, r);
    }
  }
  out.sum_down();

  if (stats != nullptr) *stats = local;
  if (comm_out != nullptr) *comm_out = result.comm();
  return out;
}

}  // namespace mh::dht
