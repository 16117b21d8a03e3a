// A multiresolution function scattered over simulated ranks.
//
// This is the data layout of the paper's runs: tree nodes live in a
// distributed hash table under a process map, one shard per rank. The
// World operators (world_apply, world_compress, world_reconstruct) run
// over it. The process map places the *source* leaves; an Apply task
// executes on the rank that computes its *target*, the target's
// ops::SlabCut side, which receives each source leaf it needs from the
// leaf's home rank as one active message. Replication and shard recovery
// live in ElasticFunction (elastic.hpp).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "dht/owner_map.hpp"
#include "mra/function.hpp"
#include "ops/apply.hpp"

namespace mh::dht {

class DistributedFunction {
 public:
  using Shard = std::unordered_map<mra::Key, Tensor, mra::KeyHash>;

  /// Scatter a reconstructed function's leaves over the owner map's ranks,
  /// in fn.leaf_keys() order. `owners` is not copied and must outlive the
  /// function.
  DistributedFunction(const mra::Function& fn, const OwnerMap& owners);

  /// An empty function under `owners`, filled shard by shard (see
  /// world_reconstruct).
  DistributedFunction(const mra::FunctionParams& params,
                      const OwnerMap& owners);

  std::size_t ranks() const noexcept { return shards_.size(); }
  const mra::FunctionParams& params() const noexcept { return params_; }
  const OwnerMap& owners() const noexcept { return owners_; }
  std::size_t num_leaves() const;
  std::size_t leaves_on(std::size_t rank) const { return shard(rank).size(); }

  /// One rank's leaves. Writers keep every key on owners().owner(key).
  const Shard& shard(std::size_t rank) const;
  Shard& shard(std::size_t rank);

  /// Every rank's leaf keys, shard by shard.
  std::vector<mra::Key> leaf_keys() const;

  /// Task-count load of every rank for one Apply of `op`: each task counts
  /// on the rank that computes it in world_apply, its target's side under
  /// ops::SlabCut(op, leaf_keys(), ranks()).
  std::vector<std::size_t> apply_loads(
      const ops::SeparatedConvolution& op) const {
    return ops::SlabCut(op, leaf_keys(), ranks()).loads();
  }

  /// Reassemble a single-address-space Function (gather to rank 0).
  mra::Function gather() const;

 private:
  mra::FunctionParams params_;
  const OwnerMap& owners_;
  std::vector<Shard> shards_;
};

}  // namespace mh::dht
