// Tests for src/dht: owner maps and the scattered DistributedFunction.
// The distributed Apply over it is tested in test_world.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "apps/coulomb.hpp"
#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "dht/distributed_function.hpp"
#include "dht/owner_map.hpp"
#include "ops/apply.hpp"

namespace mh::dht {
namespace {

mra::Key key1d(int level, std::int64_t l) {
  const std::int64_t t[1] = {l};
  return mra::Key(1, level, t);
}

TEST(OwnerMaps, HashMapSpreadsKeys) {
  HashOwnerMap map(8, 3);
  std::vector<std::size_t> counts(8, 0);
  for (std::int64_t l = 0; l < 1024; ++l) ++counts[map.owner(key1d(10, l))];
  for (std::size_t c : counts) {
    EXPECT_GT(c, 64u);   // within 2x of uniform
    EXPECT_LT(c, 256u);
  }
}

TEST(OwnerMaps, OwnershipIsDeterministic) {
  HashOwnerMap a(4, 7), b(4, 7);
  for (std::int64_t l = 0; l < 32; ++l) {
    EXPECT_EQ(a.owner(key1d(5, l)), b.owner(key1d(5, l)));
  }
}

TEST(OwnerMaps, SubtreeMapColocatesSubtrees) {
  SubtreeOwnerMap map(16, /*subtree_level=*/2, 1);
  // Every descendant of one level-2 box maps to the same rank.
  const mra::Key anchor = key1d(2, 3);
  const std::size_t rank = map.owner(anchor);
  mra::Key deep = anchor;
  for (int i = 0; i < 5; ++i) {
    deep = deep.child(deep.num_children() - 1);
    EXPECT_EQ(map.owner(deep), rank);
  }
  // Keys above the anchor level are owned by their own hash.
  EXPECT_NO_THROW(map.owner(key1d(0, 0)));
}

TEST(OwnerMaps, RejectZeroRanks) {
  EXPECT_THROW(HashOwnerMap(0), Error);
  EXPECT_THROW(SubtreeOwnerMap(0, 2), Error);
  EXPECT_THROW(SubtreeOwnerMap(4, -1), Error);
}

TEST(OwnerMaps, AnyKeyOwnedLikeItsSubtreeAncestor) {
  // Property: for random keys at random depths, owner(key) equals
  // owner(ancestor at the subtree level), and subtree_anchor names exactly
  // that ancestor.
  SubtreeOwnerMap map(11, /*subtree_level=*/3, 77);
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t ndim = 1 + rng.below(3);
    const int level = 3 + static_cast<int>(rng.below(6));
    std::vector<std::int64_t> l(ndim);
    for (auto& t : l) {
      t = static_cast<std::int64_t>(rng.below(std::uint64_t{1} << level));
    }
    const mra::Key key(ndim, level, l);
    mra::Key ancestor = key;
    while (ancestor.level() > 3) ancestor = ancestor.parent();
    EXPECT_EQ(subtree_anchor(key, map.subtree_level()).hash(),
              ancestor.hash());
    EXPECT_EQ(map.owner(key), map.owner(ancestor));
  }
}

TEST(OwnerMaps, SubtreeAnchorsAreDistinctAndInGrid) {
  const std::size_t ngroups = 48;
  const std::size_t ndim = 3;
  const int level = anchor_level(ngroups, ndim) + 1;
  const auto anchors = subtree_anchors(ngroups, ndim, level, 9);
  ASSERT_EQ(anchors.size(), ngroups);
  std::set<std::uint64_t> hashes;
  for (const mra::Key& a : anchors) {
    EXPECT_EQ(a.level(), level);
    EXPECT_EQ(a.ndim(), ndim);
    for (std::size_t d = 0; d < ndim; ++d) {
      EXPECT_GE(a.translation(d), 0);
      EXPECT_LT(a.translation(d), std::int64_t{1} << level);
    }
    hashes.insert(a.hash());
  }
  EXPECT_EQ(hashes.size(), ngroups);  // all distinct
  // Deterministic for a seed, different across seeds.
  const auto again = subtree_anchors(ngroups, ndim, level, 9);
  EXPECT_EQ(anchors[5].hash(), again[5].hash());

  // Owner glue: one home rank per group, all in range.
  const auto owners = owners_of(HashOwnerMap(8, 3), anchors);
  ASSERT_EQ(owners.size(), ngroups);
  for (const std::size_t o : owners) EXPECT_LT(o, 8u);
}

TEST(OwnerMaps, AnchorLevelIsMinimal) {
  EXPECT_EQ(anchor_level(1, 3), 0);
  EXPECT_EQ(anchor_level(8, 3), 1);
  EXPECT_EQ(anchor_level(9, 3), 2);
  EXPECT_EQ(anchor_level(1000, 1), 10);
  // A level too shallow to give every group a distinct anchor is rejected.
  EXPECT_THROW(subtree_anchors(10, 1, 2), Error);
}

mra::Function make_test_function() {
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 7;
  p.thresh = 1e-6;
  p.initial_level = 3;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.45) / 0.1;
    return std::exp(-u * u);
  };
  return mra::Function::project(f_fn, p);
}

TEST(DistributedFunction, ScatterPreservesLeavesAndGathersBack) {
  const mra::Function f = make_test_function();
  HashOwnerMap owners(6, 13);
  DistributedFunction df(f, owners);
  EXPECT_EQ(df.num_leaves(), f.num_leaves());
  std::size_t total = 0;
  for (std::size_t r = 0; r < df.ranks(); ++r) {
    total += df.leaves_on(r);
    for (const auto& [key, coeffs] : df.shard(r)) {
      EXPECT_EQ(owners.owner(key), r);
    }
  }
  EXPECT_EQ(total, f.num_leaves());

  mra::Function g = df.gather();
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    const double x[1] = {rng.next_double()};
    EXPECT_NEAR(g.eval(x), f.eval(x), 1e-13);
  }
}

TEST(DistributedFunction, ApplyLoadsMatchTaskEnumeration) {
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  HashOwnerMap owners(4, 17);
  DistributedFunction df(f, owners);
  const auto loads = df.apply_loads(op);
  const std::size_t total =
      std::accumulate(loads.begin(), loads.end(), std::size_t{0});
  EXPECT_EQ(total, ops::make_apply_tasks(op, f).size());
}

}  // namespace
}  // namespace mh::dht
