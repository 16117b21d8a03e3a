// The distributed Apply on real threads: every rank computes its own
// leaves' tasks on its own thread; results accumulate at the target's owner
// via active messages (paper Algorithms 3-6 in distributed-memory form).
//
// This combines the three substrates the paper builds on — the distributed
// tree (dht), the task runtime (world), and the operator math (ops) — and
// is verified bit-for-bit against the serial ops::apply.
#pragma once

#include "dht/distributed_function.hpp"
#include "ops/apply.hpp"
#include "world/world.hpp"

namespace mh::world {

/// Apply `op` to the scattered function `f` using one thread per rank, each
/// running its shard's leaves through ops::apply_leaf_tasks with `opts`.
/// Returns the gathered, leaf-consistent result. Fences internally.
mra::Function world_apply(World& world, const ops::SeparatedConvolution& op,
                          const dht::DistributedFunction& f,
                          ops::ApplyStats* stats = nullptr,
                          const ops::ApplyOptions& opts = {});

}  // namespace mh::world
