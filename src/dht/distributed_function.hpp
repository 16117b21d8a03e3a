// A multiresolution function scattered over simulated ranks.
//
// This is the data layout of the paper's runs: tree nodes live in a
// distributed hash table under a process map, one shard per rank. The
// World operators (world_apply, world_compress, world_reconstruct) run
// over it: every Apply task executes on the rank that owns its *source*
// leaf, and its result is accumulated into the owner of the *target* key —
// a remote active message when the displacement crosses a subtree
// boundary. Replication and shard recovery live in ElasticFunction
// (elastic.hpp).
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

  /// Task-count load of every rank for one Apply of `op` (what the process
  /// map hands each compute node).
  std::vector<std::size_t> apply_loads(
      const ops::SeparatedConvolution& op) const;

  /// Reassemble a single-address-space Function (gather to rank 0).
  mra::Function gather() const;

 private:
  mra::FunctionParams params_;
  const OwnerMap& owners_;
  std::vector<Shard> shards_;
};

}  // namespace mh::dht
