// Tests for the elastic-recovery subsystem: rendezvous replica placement,
// the R-way replicated store (kill / revive / repair), versioned
// checkpoint/restart into resized worlds, the World death-handler
// protocol, and the churn drill —
// a distributed Apply that completes bitwise-equal to the fault-free
// reference while ranks die and rejoin mid-run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "apps/coulomb.hpp"
#include "clustersim/churn.hpp"
#include "common/diagnostics.hpp"
#include "dht/elastic.hpp"
#include "dht/owner_map.hpp"
#include "obs/export.hpp"
#include "world/world.hpp"

namespace mh::dht {
namespace {

using namespace std::chrono_literals;

// Honor MH_METRICS=path at teardown: the churn chaos CI tier runs this
// binary with fault injection armed and uploads the mh_recovery_* /
// mh_fault_* snapshot as its artifact.
class MetricsExportEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    obs::export_metrics_from_env(obs::MetricsRegistry::global());
  }
};
const auto* const kMetricsEnv =
    ::testing::AddGlobalTestEnvironment(new MetricsExportEnv);

mra::Key key1d(int level, std::int64_t l) {
  const std::int64_t t[1] = {l};
  return mra::Key(1, level, t);
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

ops::SeparatedConvolution make_test_operator() {
  return apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
}

// Bitwise function equality: same leaf set, identical coefficient bits.
void expect_bitwise_equal(const mra::Function& a, const mra::Function& b) {
  const auto keys_a = a.leaf_keys();
  const auto keys_b = b.leaf_keys();
  ASSERT_EQ(keys_a.size(), keys_b.size());
  for (std::size_t i = 0; i < keys_a.size(); ++i) {
    ASSERT_EQ(keys_a[i], keys_b[i]);
    EXPECT_TRUE(a.leaf_coeffs(keys_a[i]) == b.leaf_coeffs(keys_b[i]))
        << "coefficients differ at leaf " << keys_a[i];
  }
}

// ---------------------------------------------------------------------------
// Replica placement
// ---------------------------------------------------------------------------

TEST(ReplicaPlacement, RendezvousOrderIsAPermutationAndDeterministic) {
  const auto order = rendezvous_order(0xabcdef, 10, 10, 7);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 10u);
  EXPECT_EQ(order, rendezvous_order(0xabcdef, 10, 10, 7));
  // The prefix is the prefix of the full order.
  const auto prefix = rendezvous_order(0xabcdef, 10, 3, 7);
  ASSERT_EQ(prefix.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(prefix[i], order[i]);
}

TEST(ReplicaPlacement, SubtreeMapColocatesReplicaSets) {
  ElasticFunction ef(make_test_function(), 12, /*subtree_level=*/2,
                     /*replication=*/3, 3);
  const mra::Key anchor = key1d(2, 3);
  mra::Key deep = anchor;
  for (int i = 0; i < 4; ++i) {
    deep = deep.child(0);
    EXPECT_EQ(ef.holders(deep), ef.holders(anchor));
  }
}

TEST(ReplicaPlacement, StableUnderMembershipChange) {
  // Killing a rank only promotes the ranks behind it in the rendezvous
  // order — survivors never reshuffle.
  auto store = [] {
    return ElasticFunction(make_test_function(), 8, 2, 2, 5);
  };
  ElasticFunction before = store();
  ElasticFunction after = store();
  const std::size_t victim = 3;
  after.kill(victim);
  for (const mra::Key& key : before.store().keys()) {
    std::vector<std::size_t> expected;
    for (const std::size_t r : before.holders(key)) {
      if (r != victim) expected.push_back(r);
    }
    const auto got = after.holders(key);
    // Survivors keep their relative order; a lost slot is back-filled.
    ASSERT_LE(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]);
    }
  }
}

TEST(ReplicaPlacement, ReplicationAboveLiveRankCountClamps) {
  // R = 5 on 3 ranks: every key is held by all 3; killing ranks shrinks
  // the holder set without error.
  ElasticFunction ef(make_test_function(), 3, 2, /*replication=*/5, 1);
  for (const mra::Key& key : ef.store().keys()) {
    EXPECT_EQ(ef.holders(key).size(), 3u);
  }
  EXPECT_TRUE(ef.store().invariant_ok());
  ef.kill(0);
  ef.kill(2);
  for (const mra::Key& key : ef.store().keys()) {
    ASSERT_EQ(ef.holders(key).size(), 1u);
    EXPECT_EQ(ef.holders(key)[0], 1u);
  }
  expect_bitwise_equal(ef.gather(), make_test_function());
}

// ---------------------------------------------------------------------------
// Replicated store: kill / revive / repair
// ---------------------------------------------------------------------------

TEST(ElasticStore, SurvivesAnySingleKillAtR2) {
  const mra::Function f = make_test_function();
  for (std::size_t victim = 0; victim < 6; ++victim) {
    ElasticFunction ef(f, 6, 2, /*replication=*/2, 9);
    const std::size_t held = ef.store().shard_size(victim);
    EXPECT_EQ(ef.kill(victim), 0u) << "leaf lost at victim " << victim;
    expect_bitwise_equal(ef.gather(), f);
    const RecoveryStats rep = ef.repair();
    EXPECT_TRUE(ef.store().invariant_ok());
    EXPECT_EQ(rep.copied, held);  // every copy the victim held is remade
    expect_bitwise_equal(ef.gather(), f);
  }
}

TEST(ElasticStore, AllReplicasDeadIsATypedErrorNotAHang) {
  ElasticFunction ef(make_test_function(), 4, 2, /*replication=*/1, 2);
  std::size_t lost = 0;
  for (std::size_t r = 0; r < 3; ++r) lost += ef.kill(r);
  ASSERT_GT(lost, 0u);  // R=1: some leaves died with their only holder
  try {
    (void)ef.gather();
    FAIL() << "expected FaultError";
  } catch (const fault::FaultError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kDataLost);
    EXPECT_STREQ(fault::error_code_name(e.code()), "data_lost");
  }
  EXPECT_THROW(ef.repair(), fault::FaultError);
}

TEST(ElasticStore, OwnerOfFullyDeadKeyIsTyped) {
  ElasticFunction ef(make_test_function(), 2, 2, /*replication=*/1, 2);
  ef.kill(0);
  ef.kill(1);
  bool threw = false;
  for (const mra::Key& key : make_test_function().leaf_keys()) {
    try {
      (void)ef.owner(key);
    } catch (const fault::FaultError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kDataLost);
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(ElasticStore, RejoinedRankNeverDoubleOwns) {
  const mra::Function f = make_test_function();
  ElasticFunction ef(f, 5, 2, /*replication=*/2, 11);
  ASSERT_EQ(ef.kill(2), 0u);
  ef.repair();
  ASSERT_TRUE(ef.store().invariant_ok());
  ef.revive(2);
  // Before repair the revived rank holds nothing; the invariant is broken
  // in the "missing copy" direction only.
  EXPECT_EQ(ef.store().shard_size(2), 0u);
  const RecoveryStats rep = ef.repair();
  EXPECT_TRUE(ef.store().invariant_ok());
  // The rejoin moved entries back AND dropped the demoted surplus copies:
  // nothing is held by more ranks than the replication factor.
  EXPECT_GT(rep.copied, 0u);
  EXPECT_GT(rep.dropped, 0u);
  std::size_t copies = 0;
  for (std::size_t r = 0; r < ef.ranks(); ++r) {
    copies += ef.store().shard_size(r);
  }
  EXPECT_EQ(copies, ef.num_leaves() * 2);
  expect_bitwise_equal(ef.gather(), f);
}

TEST(ElasticStore, GrowAbsorbsEntries) {
  const mra::Function f = make_test_function();
  ElasticFunction ef(f, 3, 2, /*replication=*/2, 4);
  const std::size_t fresh = ef.add_rank();
  EXPECT_EQ(fresh, 3u);
  ef.repair();
  EXPECT_TRUE(ef.store().invariant_ok());
  EXPECT_GT(ef.store().shard_size(fresh), 0u);
  expect_bitwise_equal(ef.gather(), f);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

TEST(Checkpoint, RestoreIntoResizedWorldIsBitwise) {
  const mra::Function f = make_test_function();
  ElasticFunction ef(f, 6, 2, /*replication=*/2, 21);
  std::ostringstream os;
  ef.checkpoint(os);
  const std::string snapshot = os.str();
  for (const std::size_t new_ranks : {1u, 3u, 9u}) {
    std::istringstream is(snapshot);
    ElasticFunction restored =
        ElasticFunction::restore(is, new_ranks, /*replication=*/2);
    EXPECT_EQ(restored.ranks(), new_ranks);
    EXPECT_EQ(restored.num_leaves(), ef.num_leaves());
    EXPECT_TRUE(restored.store().invariant_ok());
    expect_bitwise_equal(restored.gather(), f);
  }
}

TEST(Checkpoint, LeafThatIsNotAKCubeIsRejected) {
  // Apply reads k^d doubles from every leaf, so a checkpoint leaf of any
  // other shape (wrong order or wrong extent) must not restore.
  const mra::Function f = make_test_function();
  const mra::Key key = f.leaf_keys().front();
  for (const Tensor& bad : {Tensor({7, 1}), Tensor({6}), Tensor({7, 7})}) {
    ElasticFunction ef(f, 2, 2, /*replication=*/2, 3);
    ef.store().put(0, key, bad);
    std::ostringstream os;
    ef.checkpoint(os);
    std::istringstream is(os.str());
    EXPECT_THROW(ElasticFunction::restore(is, 2, 2), Error);
  }
}

// A hand-written snapshot of one leaf whose k^d cube has no coefficient
// bytes: if k^d wraps to 0 the leaf "restores" with no elements.
std::string one_leaf_snapshot(std::uint64_t d, std::uint64_t k) {
  std::ostringstream os;
  const auto pod = [&os](const auto& value) {
    os.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  pod(std::uint32_t{0x4d48434bu});  // magic "MHCK"
  pod(std::uint32_t{1});            // version
  pod(std::int32_t{0});             // subtree level
  pod(std::uint64_t{1});            // seed
  pod(d);
  pod(k);
  pod(1e-6);              // thresh
  pod(std::int32_t{0});   // initial level
  pod(std::int32_t{30});  // max level
  pod(std::uint64_t{1});  // one leaf
  pod(std::int32_t{0});   // its level
  for (std::uint64_t m = 0; m < d; ++m) pod(std::int64_t{0});
  pod(d);  // tensor order
  for (std::uint64_t m = 0; m < d; ++m) pod(k);
  return os.str();
}

TEST(Checkpoint, CubeWhoseSizeOverflowsIsRejected) {
  // k^d wraps to 0 for both: 2^66 and 2^64.
  for (const auto& [d, k] : {std::pair<std::uint64_t, std::uint64_t>{3, 1u << 22},
                             {4, 1u << 16}}) {
    std::istringstream is(one_leaf_snapshot(d, k));
    EXPECT_THROW(ElasticFunction::restore(is, 2, 2), Error)
        << "d=" << d << " k=" << k;
  }
  // The same framing at a valid k restores (a truncation error here would
  // mean the crafted layout drifted from checkpoint()).
  std::string ok = one_leaf_snapshot(1, 2);
  for (const double c : {0.5, -0.25}) {
    ok.append(reinterpret_cast<const char*>(&c), sizeof(c));
  }
  std::istringstream is(ok);
  EXPECT_EQ(ElasticFunction::restore(is, 2, 2).num_leaves(), 1u);
}

TEST(Checkpoint, CorruptMagicOrVersionIsRejected) {
  ElasticFunction ef(make_test_function(), 4, 2, 2, 1);
  std::ostringstream os;
  ef.checkpoint(os);
  std::string bad_magic = os.str();
  bad_magic[0] = static_cast<char>(~bad_magic[0]);
  std::istringstream is1(bad_magic);
  EXPECT_THROW(ElasticFunction::restore(is1, 4, 2), Error);
  std::string bad_version = os.str();
  bad_version[4] = static_cast<char>(bad_version[4] + 1);
  std::istringstream is2(bad_version);
  EXPECT_THROW(ElasticFunction::restore(is2, 4, 2), Error);
  std::istringstream truncated(os.str().substr(0, 32));
  EXPECT_THROW(ElasticFunction::restore(truncated, 4, 2), Error);
}

TEST(Checkpoint, LostLeavesCannotBeCheckpointed) {
  ElasticFunction ef(make_test_function(), 3, 2, /*replication=*/1, 2);
  std::size_t lost = 0;
  for (std::size_t r = 0; r < 2; ++r) lost += ef.kill(r);
  ASSERT_GT(lost, 0u);
  std::ostringstream os;
  EXPECT_THROW(ef.checkpoint(os), fault::FaultError);
}

// ---------------------------------------------------------------------------
// World recovery protocol
// ---------------------------------------------------------------------------

TEST(WorldRecovery, DeathHandlerFiresOnceAndRehomesOrphans) {
  fault::FaultInjector fi(5);
  fi.set_rule(fault::FaultSite::kSend, [] {
    fault::SiteRule rule;
    rule.probability = 1.0;
    return rule;
  }());
  world::World w(3);
  w.set_fault_injector(&fi);
  world::World::SendPolicy policy;
  policy.max_retries = 1;
  policy.backoff = 1ms;
  w.set_send_policy(policy);

  // Rank 2 has queued stealable work that must not die with it.
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    w.stealable_push(2, 64.0, [&] { ++ran; });
  }
  std::atomic<int> deaths{0};
  std::atomic<std::size_t> rehomed{0};
  w.set_death_handler([&](std::size_t rank) {
    ++deaths;
    rehomed += w.reassign_stealable(rank);
  });

  // Two failing sends: the first declares rank 2 dead and fires the
  // handler; the second fails fast without firing it again.
  w.send(0, 2, 32.0, [] {});
  w.send(1, 2, 32.0, [] {});
  EXPECT_THROW(w.fence(), fault::FaultError);
  EXPECT_EQ(deaths.load(), 1);
  EXPECT_EQ(rehomed.load(), 4u);
  EXPECT_EQ(w.stealable_pending(2), 0u);
  EXPECT_EQ(w.stealable_pending(0) + w.stealable_pending(1), 4u);
  // The survivors absorb and run the orphaned work.
  w.run_stealable(0);
  w.run_stealable(1);
  ASSERT_NO_THROW(w.fence());
  EXPECT_EQ(ran.load(), 4);
}

TEST(WorldRecovery, ReassignWithNoSurvivorsLeavesQueueInPlace) {
  world::World w(1);
  w.stealable_push(0, 8.0, [] {});
  EXPECT_EQ(w.reassign_stealable(0), 0u);
  EXPECT_EQ(w.stealable_pending(0), 1u);
}

}  // namespace

// ---------------------------------------------------------------------------
// Churn drill: the chaos CI scenario. These tests also run with MH_FAULTS
// armed (send-site drops) in the chaos tier — bitwise equality must hold
// regardless, because recovery re-executes deterministic tasks and the
// final reduction order is fixed.
// ---------------------------------------------------------------------------

namespace {

cluster::ChurnConfig base_config() {
  cluster::ChurnConfig config;
  config.ranks = 6;
  config.subtree_level = 2;
  config.replication = 2;
  config.seed = 13;
  return config;
}

// A rank that actually holds leaves under `config`'s placement — killing
// it at R=1 is guaranteed to lose data.
std::size_t loaded_rank(const mra::Function& f,
                        const cluster::ChurnConfig& config) {
  ElasticFunction probe(f, config.ranks, config.subtree_level,
                        config.replication, config.seed);
  for (std::size_t r = 0; r < probe.ranks(); ++r) {
    if (probe.store().shard_size(r) > 0) return r;
  }
  ADD_FAILURE() << "no rank holds any leaf";
  return 0;
}

TEST(ChurnDrill, FaultFreeRunMatchesSerialApplyClosely) {
  const mra::Function f = make_test_function();
  const auto op = make_test_operator();
  const cluster::ChurnResult ref = cluster::run_churn_apply(op, f,
                                                            base_config());
  EXPECT_GT(ref.stats.tasks, 0u);
  EXPECT_EQ(ref.stats.kills, 0u);
  const mra::Function serial = ops::apply(op, f);
  // Same math, different accumulation order: close but not bitwise.
  EXPECT_LT(std::abs(ref.result.norm2() - serial.norm2()),
            1e-10 * std::max(1.0, serial.norm2()));
}

TEST(ChurnDrill, KillAndReaddMidApplyIsBitwise) {
  const mra::Function f = make_test_function();
  const auto op = make_test_operator();
  const cluster::ChurnResult ref = cluster::run_churn_apply(op, f,
                                                            base_config());

  cluster::ChurnConfig churn = base_config();
  churn.events = {
      {cluster::ChurnEvent::Kind::kKill, SimTime::micros(120.0), 1},
      {cluster::ChurnEvent::Kind::kKill, SimTime::micros(300.0), 4},
      {cluster::ChurnEvent::Kind::kAdd, SimTime::micros(500.0), 1},
      {cluster::ChurnEvent::Kind::kKill, SimTime::micros(700.0), 2},
  };
  const cluster::ChurnResult churned = cluster::run_churn_apply(op, f, churn);
  EXPECT_EQ(churned.stats.kills, 3u);
  EXPECT_EQ(churned.stats.revives, 1u);
  EXPECT_EQ(churned.stats.lost_leaves, 0u);  // R=2 covered every kill
  EXPECT_GT(churned.stats.promoted, 0u);
  EXPECT_GT(churned.stats.recovery_bytes, 0.0);
  expect_bitwise_equal(churned.result, ref.result);
}

TEST(ChurnDrill, CheckpointRestartIntoResizedWorldIsBitwise) {
  const mra::Function f = make_test_function();
  const auto op = make_test_operator();
  cluster::ChurnConfig plain = base_config();
  plain.replication = 1;
  const cluster::ChurnResult ref = cluster::run_churn_apply(op, f, plain);

  cluster::ChurnConfig churn = plain;
  churn.checkpoint_every = 4;
  churn.events = {
      {cluster::ChurnEvent::Kind::kKill, SimTime::micros(400.0),
       loaded_rank(f, plain)},
  };
  const cluster::ChurnResult churned = cluster::run_churn_apply(op, f, churn);
  EXPECT_EQ(churned.stats.restarts, 1u);
  EXPECT_GT(churned.stats.lost_leaves, 0u);  // R=1: the kill lost data
  EXPECT_GT(churned.stats.checkpoints, 0u);
  expect_bitwise_equal(churned.result, ref.result);
}

TEST(ChurnDrill, UnrecoverableLossIsATypedError) {
  const mra::Function f = make_test_function();
  const auto op = make_test_operator();
  cluster::ChurnConfig churn = base_config();
  churn.replication = 1;  // no replicas, no checkpoint: loss is terminal
  churn.events = {
      {cluster::ChurnEvent::Kind::kKill, SimTime::micros(400.0),
       loaded_rank(f, churn)},
  };
  try {
    cluster::run_churn_apply(op, f, churn);
    FAIL() << "expected FaultError";
  } catch (const fault::FaultError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kDataLost);
  }
}

TEST(ChurnDrill, InjectedSendDropsSelfHeal) {
  const mra::Function f = make_test_function();
  const auto op = make_test_operator();
  const cluster::ChurnResult ref = cluster::run_churn_apply(op, f,
                                                            base_config());

  fault::FaultInjector fi(33);
  fi.set_rule(fault::FaultSite::kSend, [] {
    fault::SiteRule rule;
    rule.every = 5;  // drop every 5th replica write-through
    return rule;
  }());
  cluster::ChurnConfig churn = base_config();
  churn.faults = &fi;
  churn.events = {
      {cluster::ChurnEvent::Kind::kKill, SimTime::micros(200.0), 0},
  };
  const cluster::ChurnResult churned = cluster::run_churn_apply(op, f, churn);
  EXPECT_GT(fi.stats(fault::FaultSite::kSend).injected, 0u);
  expect_bitwise_equal(churned.result, ref.result);
}

}  // namespace
}  // namespace mh::dht
