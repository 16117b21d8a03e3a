// The distributed Apply on real threads: every rank computes its own
// leaves' tasks on its own thread; results accumulate at the target's owner
// (paper Algorithms 3-6 in distributed-memory form). A contribution to a key
// the rank owns is added straight into its own result shard; the ones to
// each remote owner are collected per source leaf and shipped as one active
// message.
//
// This combines the three substrates the paper builds on — the distributed
// tree (dht), the task runtime (world), and the operator math (ops). The
// contributions are computed as in the serial ops::apply, but a target's
// sum is formed in another order (own contributions as they are computed,
// remote ones as their messages arrive), so the result agrees with the
// serial Apply to rounding, not bitwise: tests and the benchmark allow
// 1e-12.
#pragma once

#include "dht/distributed_function.hpp"
#include "ops/apply.hpp"
#include "world/world.hpp"

namespace mh::world {

/// Apply `op` to the scattered function `f` using one thread per rank, each
/// running its shard's leaves through ops::apply_leaf_tasks with `opts`.
/// Sends one message per (source leaf, remote owner of at least one of its
/// targets), carrying k^d doubles per distinct target. Returns the
/// gathered, leaf-consistent result. Fences internally.
mra::Function world_apply(World& world, const ops::SeparatedConvolution& op,
                          const dht::DistributedFunction& f,
                          ops::ApplyStats* stats = nullptr,
                          const ops::ApplyOptions& opts = {});

}  // namespace mh::world
