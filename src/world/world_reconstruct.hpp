// Distributed Reconstruct and Truncate — completing the paper's four
// MADNESS operators (§I: "Apply, Compress, Reconstruct and Truncate") in
// distributed, active-message-driven form.
//
// Reconstruct walks top-down: the root's owner unfilters its supertensor
// and ships each child's scaling block to the child's owner; interior
// children continue downward, leaf children store their coefficients.
//
// Truncate walks bottom-up in two message waves: first every interior node
// tells its parent's owner "I am an interior child"; then decisions
// propagate upward — a node whose interior children all truncated and
// whose wavelet norm is below the tolerance erases its supertensor and
// reports success.
#pragma once

#include "dht/distributed_function.hpp"
#include "world/world_compress.hpp"

namespace mh::world {

/// Invert world_compress: returns the leaves scattered over `owners` (the
/// owner map the compressed tree used; it must outlive the result). Fences
/// internally.
dht::DistributedFunction world_reconstruct(
    World& world, const dht::OwnerMap& owners,
    const DistributedCompressed& compressed);

/// Distributed truncate on a compressed tree, in place: interior nodes
/// whose subtree qualifies drop their wavelet supertensors. Returns the
/// number of interior nodes removed. Fences internally.
std::size_t world_truncate(World& world, const dht::OwnerMap& owners,
                           DistributedCompressed& compressed, double tol);

}  // namespace mh::world
