// Distributed-memory example: the MADNESS data layout and runtime at work.
//
// A density is projected, scattered over 8 simulated ranks through a
// process map (the distributed hash table of paper §I-A), and the Apply
// operator runs with one real thread per rank. Each rank computes the
// targets of one mode-0 slab; every source leaf a slab needs from another
// rank arrives as one active message. Two process maps place the leaves —
// the locality-preserving subtree map MADNESS defaults to, and plain
// hashing — and each run is checked bitwise against the serial Apply.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "apps/coulomb.hpp"
#include "dht/distributed_function.hpp"
#include "ops/apply.hpp"
#include "world/world_apply.hpp"
#include "world/world_compress.hpp"
#include "world/world_reconstruct.hpp"

namespace {

// memcmp over every node of two trees.
bool bitwise_equal(const mh::mra::Function& a, const mh::mra::Function& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (const auto& [key, node] : a.nodes()) {
    const auto it = b.nodes().find(key);
    if (it == b.nodes().end()) return false;
    const mh::Tensor& x = node.coeffs;
    const mh::Tensor& y = it->second.coeffs;
    if (node.has_children != it->second.has_children ||
        x.size() != y.size() ||
        (x.size() != 0 &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace mh;

  auto f_fn = [](std::span<const double> x) {
    const double a = (x[0] - 0.35) / 0.08;
    const double b = (x[0] - 0.6) / 0.05;
    return std::exp(-a * a) + 0.6 * std::exp(-b * b);
  };
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-7;
  fp.initial_level = 3;
  const mra::Function f = mra::Function::project(f_fn, fp);
  const auto op = apps::make_smoothing_operator(1, 8, 0.05, 12, 1e-8);
  std::printf("input: %zu leaves, depth %d\n", f.num_leaves(), f.max_depth());

  const mra::Function serial = ops::apply(op, f);

  const std::size_t ranks = 8;
  bool mismatch = false;
  for (const bool locality : {false, true}) {
    std::unique_ptr<dht::OwnerMap> owners;
    if (locality) {
      owners = std::make_unique<dht::SubtreeOwnerMap>(ranks, 2, 7);
    } else {
      owners = std::make_unique<dht::HashOwnerMap>(ranks, 7);
    }
    dht::DistributedFunction df(f, *owners);

    // Leaf balance across ranks.
    std::size_t lo = df.num_leaves(), hi = 0;
    for (std::size_t r = 0; r < ranks; ++r) {
      lo = std::min(lo, df.leaves_on(r));
      hi = std::max(hi, df.leaves_on(r));
    }

    const auto loads = df.apply_loads(op);
    const auto [lo_tasks, hi_tasks] =
        std::minmax_element(loads.begin(), loads.end());

    world::World world(ranks);
    ops::ApplyStats stats;
    const mra::Function result = world_apply(world, op, df, &stats);

    const bool equal = bitwise_equal(result, serial);

    std::printf(
        "\n%s process map over %zu ranks:\n",
        locality ? "locality (subtree)" : "hash (even)", ranks);
    std::printf("  leaves per rank: min %zu, max %zu\n", lo, hi);
    std::printf("  apply: %zu tasks on %zu rank threads (min %zu, max %zu)\n",
                stats.tasks, ranks, *lo_tasks, *hi_tasks);
    std::printf("  source leaves sent: %zu (%.0f KB)\n",
                world.stats().messages, world.stats().bytes / 1024.0);
    mismatch = mismatch || !equal;
    std::printf("  distributed vs serial: %s\n",
                equal ? "(bitwise equal)" : "(MISMATCH!)");
  }
  std::printf(
      "\nthe process map places only the source leaves: both maps compute\n"
      "the same slabs, and placement changes only how many leaves are sent.\n");

  // The other three MADNESS operators, distributed: compress (bottom-up
  // active messages), truncate (two message waves), reconstruct (top-down).
  {
    dht::SubtreeOwnerMap owners(ranks, 2, 7);
    dht::DistributedFunction df(f, owners);
    world::World world(ranks);

    world::DistributedCompressed dc = world::world_compress(world, df);
    const std::size_t msgs_compress = world.stats().messages;
    const std::size_t interior = dc.gather().size();

    const std::size_t removed =
        world::world_truncate(world, owners, dc, 1e-5);

    const auto leaves = world::world_reconstruct(world, owners, dc);
    const mra::Function back = leaves.gather();

    double max_err = 0.0;
    for (double x = 0.02; x < 1.0; x += 0.02) {
      const double p[1] = {x};
      max_err = std::max(max_err, std::abs(back.eval(p) - f_fn(p)));
    }
    std::printf(
        "\ndistributed compress/truncate/reconstruct over %zu ranks:\n"
        "  %zu interior nodes compressed (%zu messages),\n"
        "  %zu truncated at 1e-5, reconstructed max error %.1e\n",
        ranks, interior, msgs_compress, removed, max_err);
  }
  return mismatch ? 1 : 0;
}
