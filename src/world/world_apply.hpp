// The distributed Apply on real threads, owner-computes: every target is
// computed on one rank, its side under an ops::SlabCut built for the
// call, from the source leaves that rank holds or receives.
//
// This combines the three substrates the paper builds on — the distributed
// tree (dht), the task runtime (world), and the operator math (ops) — and
// moves the small inputs instead of partial results, the data flow of
// block-sparse distributed multiplies that broadcast input tiles. It runs
// in three phases:
//   1. Partition: SlabCut(op, leaves, ranks) assigns each target by its
//      mode-0 box centre, cut at task-count quantiles, and names the ranks
//      computing each leaf's targets. Process maps place only the leaves.
//   2. Halo: each rank sends each of its leaves once, as one k^d message,
//      to every other rank the cut names for it; fence.
//   3. Compute: each rank walks the leaves it holds or received in
//      Function::leaf_keys() order (mra::KeyLess) and runs
//      ops::apply_leaf_tasks on the tasks whose target it computes,
//      writing through into its own result shard; fence.
// Each target is written by one thread in the serial leaf order, and the
// engine makes a task's result independent of its batch, so the gathered
// result is bitwise the serial ops::apply at any rank count and placement.
#pragma once

#include "dht/distributed_function.hpp"
#include "ops/apply.hpp"
#include "world/world.hpp"

namespace mh::world {

/// Apply `op` to the scattered function `f` using one thread per rank, each
/// computing its slab's targets through ops::apply_leaf_tasks with `opts`.
/// Sends one message of k^d doubles per (source leaf, other rank that
/// computes one of its targets). Adds the logical work into `stats`, as
/// ops::apply does. Returns the gathered, leaf-consistent result,
/// memcmp-equal to ops::apply(op, f.gather(), opts). Fences internally.
mra::Function world_apply(World& world, const ops::SeparatedConvolution& op,
                          const dht::DistributedFunction& f,
                          ops::ApplyStats* stats = nullptr,
                          const ops::ApplyOptions& opts = {});

}  // namespace mh::world
