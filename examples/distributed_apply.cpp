// Distributed-memory example: the MADNESS data layout and runtime at work.
//
// A density is projected, scattered over 8 simulated ranks through a
// process map (the distributed hash table of paper §I-A), and the Apply
// operator runs with one real thread per rank; every cross-rank
// accumulation is an active message. Two process maps are compared — the
// locality-preserving subtree map MADNESS defaults to, and plain hashing —
// showing the communication/balance trade-off behind the paper's Tables
// III-VI.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "apps/coulomb.hpp"
#include "dht/distributed_function.hpp"
#include "ops/apply.hpp"
#include "world/world_apply.hpp"
#include "world/world_compress.hpp"
#include "world/world_reconstruct.hpp"

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

    world::World world(ranks);
    ops::ApplyStats stats;
    const mra::Function result = world_apply(world, op, df, &stats);

    double max_err = 0.0;
    for (double x = 0.02; x < 1.0; x += 0.02) {
      const double p[1] = {x};
      max_err = std::max(max_err, std::abs(result.eval(p) - serial.eval(p)));
    }

    std::printf(
        "\n%s process map over %zu ranks:\n",
        locality ? "locality (subtree)" : "hash (even)", ranks);
    std::printf("  leaves per rank: min %zu, max %zu\n", lo, hi);
    std::printf("  apply: %zu tasks on %zu rank threads\n", stats.tasks,
                ranks);
    std::printf("  active messages: %zu (%.0f KB shipped)\n",
                world.stats().messages, world.stats().bytes / 1024.0);
    mismatch = mismatch || !(max_err < 1e-10);
    std::printf("  max |distributed - serial| = %.2e %s\n", max_err,
                max_err < 1e-10 ? "(exact)" : "(MISMATCH!)");
  }
  std::printf(
      "\nthe subtree map trades balance for locality: fewer messages,\n"
      "more uneven rank loads — the paper's process-map story.\n");

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
