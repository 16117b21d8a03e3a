// Tests for src/world: the multi-rank active-message runtime and the
// distributed Apply, Compress, Reconstruct and Truncate built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "apps/coulomb.hpp"
#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "dht/distributed_function.hpp"
#include "world/world.hpp"
#include "world/world_apply.hpp"
#include "world/world_compress.hpp"
#include "world/world_reconstruct.hpp"

namespace mh::world {
namespace {

TEST(World, RunsTasksOnEveryRank) {
  World world(4);
  std::atomic<int> count{0};
  for (std::size_t r = 0; r < 4; ++r) {
    for (int i = 0; i < 25; ++i) {
      world.submit(r, [&count] { ++count; });
    }
  }
  world.fence();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(world.stats().tasks, 100u);
}

TEST(World, TasksRunOnTheirRanksThread) {
  World world(3);
  std::mutex mu;
  std::map<std::size_t, std::thread::id> rank_thread;
  for (std::size_t r = 0; r < 3; ++r) {
    world.submit(r, [&, r] {
      std::scoped_lock lock(mu);
      rank_thread[r] = std::this_thread::get_id();
    });
  }
  world.fence();
  // Re-run: each rank must land on the same thread again.
  for (std::size_t r = 0; r < 3; ++r) {
    world.submit(r, [&, r] {
      std::scoped_lock lock(mu);
      EXPECT_EQ(rank_thread[r], std::this_thread::get_id()) << "rank " << r;
    });
  }
  world.fence();
  // Distinct ranks, distinct threads.
  EXPECT_NE(rank_thread[0], rank_thread[1]);
  EXPECT_NE(rank_thread[1], rank_thread[2]);
}

TEST(World, ActiveMessagesRunOnTargetAndAreCounted) {
  World world(2);
  std::thread::id rank1_thread;
  world.submit(1, [&] { rank1_thread = std::this_thread::get_id(); });
  world.fence();

  std::atomic<bool> ran{false};
  world.submit(0, [&] {
    world.send(0, 1, 128.0, [&] {
      EXPECT_EQ(std::this_thread::get_id(), rank1_thread);
      ran = true;
    });
  });
  world.fence();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(world.stats().messages, 1u);
  EXPECT_DOUBLE_EQ(world.stats().bytes, 128.0);
}

TEST(World, LocalSendsAreFree) {
  World world(2);
  world.submit(0, [&] { world.send(0, 0, 4096.0, [] {}); });
  world.fence();
  EXPECT_EQ(world.stats().messages, 0u);
  EXPECT_DOUBLE_EQ(world.stats().bytes, 0.0);
}

TEST(World, FenceWaitsForTransitiveWork) {
  // A chain of cross-rank messages: fence must wait for the whole chain.
  World world(4);
  std::atomic<int> depth{0};
  std::function<void(int)> hop = [&](int remaining) {
    ++depth;
    if (remaining > 0) {
      const std::size_t next = static_cast<std::size_t>(remaining) % 4;
      world.send((remaining + 1) % 4, next, 8.0,
                 [&, remaining] { hop(remaining - 1); });
    }
  };
  world.submit(0, [&] { hop(50); });
  world.fence();
  EXPECT_EQ(depth.load(), 51);
}

TEST(World, FenceRethrowsTaskErrors) {
  World world(2);
  world.submit(1, [] { throw std::runtime_error("rank 1 died"); });
  EXPECT_THROW(world.fence(), std::runtime_error);
  // The world stays usable afterwards.
  std::atomic<int> ok{0};
  world.submit(0, [&ok] { ++ok; });
  world.fence();
  EXPECT_EQ(ok.load(), 1);
}

TEST(World, RejectsBadArguments) {
  EXPECT_THROW(World(0), Error);
  World world(2);
  EXPECT_THROW(world.submit(5, [] {}), Error);
  EXPECT_THROW(world.submit(0, nullptr), Error);
  EXPECT_THROW(world.send(9, 0, 1.0, [] {}), Error);
  world.fence();
}

TEST(World, StressManyCrossRankMessages) {
  World world(6);
  std::vector<std::atomic<int>> counters(6);
  for (auto& c : counters) c = 0;
  for (std::size_t r = 0; r < 6; ++r) {
    world.submit(r, [&world, &counters, r] {
      for (int i = 0; i < 500; ++i) {
        const std::size_t to = (r + 1 + static_cast<std::size_t>(i)) % 6;
        world.send(r, to, 8.0, [&counters, to] { ++counters[to]; });
      }
    });
  }
  world.fence();
  int total = 0;
  for (const auto& c : counters) total += c.load();
  EXPECT_EQ(total, 3000);
  // 1/6 of destinations are local on average; the rest are messages.
  EXPECT_GT(world.stats().messages, 2000u);
  EXPECT_LT(world.stats().messages, 3000u);
}

mra::Function make_test_function(double center = 0.5, double width = 0.12) {
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 7;
  p.thresh = 1e-6;
  p.initial_level = 3;
  auto f_fn = [center, width](std::span<const double> x) {
    const double u = (x[0] - center) / width;
    return std::exp(-u * u);
  };
  return mra::Function::project(f_fn, p);
}

TEST(WorldApply, MatchesSerialApply) {
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  const mra::Function serial = ops::apply(op, f);

  dht::HashOwnerMap owners(4, 99);
  dht::DistributedFunction df(f, owners);
  World world(4);
  ops::ApplyStats stats;
  const mra::Function threaded = world_apply(world, op, df, &stats);

  EXPECT_GT(stats.tasks, 0u);
  EXPECT_EQ(stats.tasks, ops::make_apply_tasks(op, f).size());
  Rng rng(81);
  for (int i = 0; i < 25; ++i) {
    const double x[1] = {rng.next_double()};
    EXPECT_NEAR(threaded.eval(x), serial.eval(x), 1e-12);
  }
}

TEST(WorldApply, RankReductionMatchesSerialApply) {
  // ApplyOptions reach the distributed path: rank-reduced world_apply on 2
  // ranks equals the serial rank-reduced Apply, stats included.
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  ops::ApplyOptions opts;
  opts.rank_reduce = true;
  opts.rank_tol = 1e-6;
  ops::ApplyStats serial_stats;
  const mra::Function serial = ops::apply(op, f, opts, &serial_stats);

  dht::HashOwnerMap owners(2, 7);
  dht::DistributedFunction df(f, owners);
  World world(2);
  ops::ApplyStats stats;
  const mra::Function threaded = world_apply(world, op, df, &stats, opts);

  EXPECT_GT(serial_stats.rank_reduced_gemms, 0u);
  EXPECT_EQ(stats.tasks, serial_stats.tasks);
  EXPECT_EQ(stats.gemms, serial_stats.gemms);
  EXPECT_EQ(stats.flops, serial_stats.flops);
  EXPECT_EQ(stats.rank_reduced_gemms, serial_stats.rank_reduced_gemms);
  // Relative to the result's peak on the probe grid.
  std::vector<double> xs, want;
  double scale = 0.0;
  for (int i = 0; i <= 40; ++i) {
    xs.push_back(i / 40.0);
    const double x[1] = {xs.back()};
    want.push_back(serial.eval(x));
    scale = std::max(scale, std::abs(want.back()));
  }
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x[1] = {xs[i]};
    EXPECT_NEAR(threaded.eval(x), want[i], 1e-12 * scale) << "x=" << xs[i];
  }
}

TEST(WorldApply, PeriodicMatchesSerialApply) {
  // The distributed drivers enumerate tasks like ops::apply, so on a torus
  // they keep the wrapped displacements too.
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 7;
  p.thresh = 1e-6;
  p.initial_level = 3;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.04) / 0.1;  // near the wrap at x = 0
    return std::exp(-u * u);
  };
  const mra::Function f = mra::Function::project(f_fn, p);
  ops::SeparatedConvolution::Params op_params;
  op_params.ndim = 1;
  op_params.k = 7;
  op_params.thresh = 1e-7;
  op_params.max_disp = 8;
  op_params.periodic = true;
  const ops::SeparatedConvolution op(op_params, ops::single_gaussian(0.08));
  ops::ApplyStats serial_stats;
  const mra::Function serial = ops::apply(op, f, {}, &serial_stats);

  dht::HashOwnerMap owners(2, 5);
  dht::DistributedFunction df(f, owners);
  World world(2);
  ops::ApplyStats world_stats;
  const mra::Function threaded = world_apply(world, op, df, &world_stats);
  EXPECT_EQ(world_stats.tasks, serial_stats.tasks);
  const auto loads = df.apply_loads(op);
  EXPECT_EQ(loads[0] + loads[1], serial_stats.tasks);
  for (int i = 0; i <= 40; ++i) {
    const double x[1] = {i / 40.0};
    const double want = serial.eval(x);
    EXPECT_NEAR(threaded.eval(x), want, 1e-12) << "x=" << x[0];
  }
}

TEST(WorldApply, MessagesAreOnePerLeafAndRemoteOwner) {
  // Oracle independent of world_apply: each source leaf ships one message
  // to every other rank that owns at least one of its targets, carrying
  // one k^d tensor of doubles per such target.
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  dht::SubtreeOwnerMap owners(6, 2, 5);
  std::size_t pairs = 0;
  std::size_t remote = 0;
  for (const mra::Key& leaf : f.leaf_keys()) {
    const std::size_t home = owners.owner(leaf);
    std::set<std::size_t> to;
    ops::for_each_task(op, leaf,
                       [&](const mra::Key& target, const ops::Displacement&) {
                         if (owners.owner(target) == home) return;
                         to.insert(owners.owner(target));
                         ++remote;
                       });
    pairs += to.size();
  }
  ASSERT_GT(pairs, 0u);
  ASSERT_GT(remote, pairs);

  dht::DistributedFunction df(f, owners);
  World world(6);
  world_apply(world, op, df);

  const double tensor_bytes = 7.0 * 8.0;  // k^d doubles with k = 7, d = 1
  EXPECT_EQ(world.stats().messages, pairs);
  EXPECT_DOUBLE_EQ(world.stats().bytes,
                   static_cast<double>(remote) * tensor_bytes);
}

// The distributed Apply over a scattered DistributedFunction.
TEST(DistributedFunction, ApplyMatchesSerialToRounding) {
  const mra::Function f = make_test_function(0.45, 0.1);
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  const mra::Function serial = ops::apply(op, f);

  dht::HashOwnerMap owners(4, 21);
  dht::DistributedFunction df(f, owners);
  World world(4);
  ops::ApplyStats stats;
  const mra::Function dist = world_apply(world, op, df, &stats);

  EXPECT_GT(stats.tasks, 0u);
  Rng rng(10);
  for (int i = 0; i < 25; ++i) {
    const double x[1] = {rng.next_double()};
    EXPECT_NEAR(dist.eval(x), serial.eval(x), 1e-12);
  }
}

TEST(DistributedFunction, SubtreeMapSendsFewerMessagesThanHashMap) {
  const mra::Function f = make_test_function(0.45, 0.1);
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);

  dht::HashOwnerMap hash_owners(8, 3);
  dht::DistributedFunction df_hash(f, hash_owners);
  World w_hash(8);
  world_apply(w_hash, op, df_hash);

  dht::SubtreeOwnerMap tree_owners(8, /*subtree_level=*/2, 3);
  dht::DistributedFunction df_tree(f, tree_owners);
  World w_tree(8);
  world_apply(w_tree, op, df_tree);

  // Locality co-location keeps most accumulations on-rank.
  EXPECT_LT(w_tree.stats().messages, w_hash.stats().messages);
  EXPECT_LT(w_tree.stats().bytes, w_hash.stats().bytes);
}

TEST(DistributedFunction, SingleRankHasNoRemoteTraffic) {
  const mra::Function f = make_test_function(0.45, 0.1);
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  dht::HashOwnerMap owners(1);
  dht::DistributedFunction df(f, owners);
  World world(1);
  world_apply(world, op, df);
  EXPECT_EQ(world.stats().messages, 0u);
  EXPECT_DOUBLE_EQ(world.stats().bytes, 0.0);
}

TEST(WorldCompress, MatchesSerialCompressNodeByNode) {
  mra::Function f = make_test_function();
  dht::HashOwnerMap owners(5, 42);
  dht::DistributedFunction df(f, owners);

  World world(5);
  const DistributedCompressed dc = world_compress(world, df);
  const auto all = dc.gather();

  mra::Function serial = f;  // copy, then compress serially
  serial.compress();
  // Every interior node of the serial compressed tree must appear with
  // identical supertensor coefficients.
  std::size_t interior = 0;
  for (const auto& [key, node] : serial.nodes()) {
    if (!node.has_children) continue;
    ++interior;
    const auto it = all.find(key);
    ASSERT_NE(it, all.end()) << "missing node at level " << key.level();
    EXPECT_LT(max_abs_diff(it->second, node.coeffs), 1e-12);
  }
  EXPECT_EQ(all.size(), interior);
}

TEST(WorldCompress, SubtreeMapSendsFewerMessages) {
  mra::Function f = make_test_function();

  dht::HashOwnerMap hash_owners(8, 11);
  dht::DistributedFunction df_hash(f, hash_owners);
  World w1(8);
  world_compress(w1, df_hash);

  dht::SubtreeOwnerMap tree_owners(8, 1, 11);
  dht::DistributedFunction df_tree(f, tree_owners);
  World w2(8);
  world_compress(w2, df_tree);

  // Subtree co-location keeps child->parent hops on-rank below the anchor
  // level, so compress sends strictly fewer messages.
  EXPECT_LT(w2.stats().messages, w1.stats().messages);
}

TEST(WorldCompress, TwoDimensionalTree) {
  mra::FunctionParams p;
  p.ndim = 2;
  p.k = 5;
  p.thresh = 1e-5;
  p.initial_level = 2;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.5) / 0.2, v = (x[1] - 0.5) / 0.2;
    return std::exp(-u * u - v * v);
  };
  mra::Function f = mra::Function::project(f_fn, p);
  dht::HashOwnerMap owners(3, 9);
  dht::DistributedFunction df(f, owners);
  World world(3);
  const auto all = world_compress(world, df).gather();

  mra::Function serial = f;
  serial.compress();
  for (const auto& [key, node] : serial.nodes()) {
    if (!node.has_children) continue;
    const auto it = all.find(key);
    ASSERT_NE(it, all.end());
    EXPECT_LT(max_abs_diff(it->second, node.coeffs), 1e-12);
  }
}

TEST(WorldReconstruct, RoundTripsCompressExactly) {
  mra::Function f = make_test_function();
  dht::HashOwnerMap owners(5, 23);
  dht::DistributedFunction df(f, owners);

  World world(5);
  const DistributedCompressed dc = world_compress(world, df);
  const dht::DistributedFunction leaves = world_reconstruct(world, owners, dc);

  // Every original leaf comes back bit-near-identically on some rank.
  std::unordered_map<mra::Key, Tensor, mra::KeyHash> got;
  for (std::size_t r = 0; r < leaves.ranks(); ++r) {
    for (const auto& [key, coeffs] : leaves.shard(r)) got.emplace(key, coeffs);
  }
  const auto keys = f.leaf_keys();
  ASSERT_EQ(got.size(), keys.size());
  for (const mra::Key& key : keys) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end());
    EXPECT_LT(max_abs_diff(it->second, f.leaf_coeffs(key)), 1e-11);
  }
  // Leaves land on their owners.
  for (std::size_t r = 0; r < 5; ++r) {
    for (const auto& [key, coeffs] : leaves.shard(r)) {
      EXPECT_EQ(owners.owner(key), r);
    }
  }
  // And the gathered function evaluates like the original.
  const mra::Function back = leaves.gather();
  Rng rng(90);
  for (int i = 0; i < 20; ++i) {
    const double x[1] = {rng.next_double()};
    EXPECT_NEAR(back.eval(x), f.eval(x), 1e-10);
  }
}

TEST(WorldReconstruct, ReconstructedFunctionFeedsWorldApply) {
  // compress -> reconstruct -> Apply, all on World ranks: the reconstructed
  // DistributedFunction is a valid Apply input. Cross-rank accumulation
  // order varies, so the check is pointwise, not bitwise.
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  dht::SubtreeOwnerMap owners(4, 2, 19);
  dht::DistributedFunction df(f, owners);

  World world(4);
  const DistributedCompressed dc = world_compress(world, df);
  const dht::DistributedFunction back = world_reconstruct(world, owners, dc);
  ASSERT_EQ(back.num_leaves(), f.num_leaves());
  const mra::Function threaded = world_apply(world, op, back);

  const mra::Function serial = ops::apply(op, back.gather());
  for (int i = 0; i <= 40; ++i) {
    const double x[1] = {i / 40.0};
    EXPECT_NEAR(threaded.eval(x), serial.eval(x), 1e-12) << "x=" << x[0];
  }
}

TEST(WorldTruncate, MatchesSerialTruncate) {
  // Over-resolve so truncation has something to remove.
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 7;
  p.thresh = 1e-10;
  p.initial_level = 2;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.5) / 0.12;
    return std::exp(-u * u);
  };
  mra::Function f = mra::Function::project(f_fn, p);

  const double tol = 1e-5;
  mra::Function serial = f;
  serial.compress();
  const std::size_t before =
      [&] {
        std::size_t n = 0;
        for (const auto& [key, node] : serial.nodes())
          if (node.has_children) ++n;
        return n;
      }();
  serial.truncate(tol);
  std::size_t serial_interior = 0;
  for (const auto& [key, node] : serial.nodes()) {
    if (node.has_children) ++serial_interior;
  }
  ASSERT_LT(serial_interior, before);  // something was truncated

  dht::HashOwnerMap owners(4, 31);
  dht::DistributedFunction df(f, owners);
  World world(4);
  DistributedCompressed dc = world_compress(world, df);
  const std::size_t nodes_before = dc.gather().size();
  const std::size_t removed = world_truncate(world, owners, dc, tol);
  EXPECT_EQ(removed, before - serial_interior);
  const auto all = dc.gather();
  EXPECT_EQ(all.size(), nodes_before - removed);

  // The surviving node set and coefficients match the serial result.
  for (const auto& [key, node] : serial.nodes()) {
    if (!node.has_children) continue;
    const auto it = all.find(key);
    ASSERT_NE(it, all.end()) << "level " << key.level();
    EXPECT_LT(max_abs_diff(it->second, node.coeffs), 1e-12);
  }
}

TEST(WorldTruncate, LooseToleranceCollapsesToRoot) {
  mra::Function f = make_test_function();
  dht::HashOwnerMap owners(3, 12);
  dht::DistributedFunction df(f, owners);
  World world(3);
  DistributedCompressed dc = world_compress(world, df);
  world_truncate(world, owners, dc, 1e6);
  // Everything but the root goes.
  const auto all = dc.gather();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.begin()->first.level(), 0);
  EXPECT_THROW(world_truncate(world, owners, dc, -1.0), Error);
}

TEST(WorldApply, RejectsRankMismatch) {
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  dht::HashOwnerMap owners(4, 1);
  dht::DistributedFunction df(f, owners);
  World world(3);
  EXPECT_THROW(world_apply(world, op, df), Error);
}

}  // namespace
}  // namespace mh::world
