#include "dht/distributed_function.hpp"

#include <utility>

#include "common/diagnostics.hpp"

namespace mh::dht {

DistributedFunction::DistributedFunction(const mra::FunctionParams& params,
                                         const OwnerMap& owners)
    : params_(params), owners_(owners), shards_(owners.ranks()) {}

DistributedFunction::DistributedFunction(const mra::Function& fn,
                                         const OwnerMap& owners)
    : DistributedFunction(fn.params(), owners) {
  MH_CHECK(!fn.compressed(), "scatter requires reconstructed form");
  for (const mra::Key& key : fn.leaf_keys()) {
    shards_[owners_.owner(key)].emplace(key, fn.leaf_coeffs(key));
  }
}

std::size_t DistributedFunction::num_leaves() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.size();
  return n;
}

const DistributedFunction::Shard& DistributedFunction::shard(
    std::size_t rank) const {
  MH_CHECK(rank < shards_.size(), "rank out of range");
  return shards_[rank];
}

DistributedFunction::Shard& DistributedFunction::shard(std::size_t rank) {
  MH_CHECK(rank < shards_.size(), "rank out of range");
  return shards_[rank];
}

std::vector<mra::Key> DistributedFunction::leaf_keys() const {
  std::vector<mra::Key> keys;
  keys.reserve(num_leaves());
  for (const Shard& shard : shards_) {
    for (const auto& [key, coeffs] : shard) keys.push_back(key);
  }
  return keys;
}

mra::Function DistributedFunction::gather() const {
  std::vector<std::pair<mra::Key, Tensor>> leaves;
  leaves.reserve(num_leaves());
  for (const Shard& shard : shards_) {
    for (const auto& [key, coeffs] : shard) leaves.emplace_back(key, coeffs);
  }
  return mra::Function::from_leaves(params_, leaves);
}

}  // namespace mh::dht
