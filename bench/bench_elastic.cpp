// Elastic-recovery cost model: what node churn does to a distributed
// Apply, and what recovery costs as the replication factor grows.
//
// Two sweeps over the churn simulator (clustersim/churn.hpp), both on the
// deterministic simulated clock so every number gates against the
// checked-in baseline:
//
//   throughput vs churn rate — R = 2, 0..4 kill/re-add pairs spread across
//       the run: makespan, recovery time, and recovery traffic per level.
//       Every churned run is checked bitwise against the fault-free
//       reference before anything is recorded — a bench that silently
//       computed a different answer would be measuring a bug.
//   recovery time vs R       — one mid-run kill at R = 1 (checkpoint
//       restart into a resized world), R = 2 and R = 3 (replica
//       promotion): the redundancy-vs-recovery-cost tradeoff.
//
// MH_DASHBOARD=path arms a health plane on every churn run; it rewrites
// the live dashboard there each detector tick (render or validate it with
// tools/mh_health).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "apps/coulomb.hpp"
#include "clustersim/churn.hpp"
#include "common/diagnostics.hpp"
#include "common/table.hpp"
#include "mra/function.hpp"
#include "obs/health.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

constexpr std::uint64_t kDefaultSeed = 13;

mra::Function make_bench_function() {
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 7;
  p.thresh = 1e-6;
  p.initial_level = 4;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.45) / 0.1;
    return std::exp(-u * u);
  };
  return mra::Function::project(f_fn, p);
}

cluster::ChurnConfig make_config(std::uint64_t seed) {
  cluster::ChurnConfig config;
  config.ranks = 8;
  config.subtree_level = 2;
  config.replication = 2;
  config.seed = seed;
  return config;
}

// One churn run, with a health plane armed when MH_DASHBOARD is set. The
// plane observes the simulated clock, so it cannot change any result.
cluster::ChurnResult run_churn(const ops::SeparatedConvolution& op,
                               const mra::Function& f,
                               cluster::ChurnConfig config) {
  const std::string dashboard = obs::dashboard_path_from_env();
  if (dashboard.empty()) return cluster::run_churn_apply(op, f, config);
  obs::HealthPlane::Config pc;
  pc.ranks = config.ranks;
  pc.dashboard_path = dashboard;
  obs::HealthPlane plane(std::move(pc));
  config.health = &plane;
  return cluster::run_churn_apply(op, f, config);
}

void check_bitwise(const mra::Function& got, const mra::Function& want) {
  const auto keys = want.leaf_keys();
  const auto got_keys = got.leaf_keys();
  MH_CHECK(keys.size() == got_keys.size(),
           "churned run changed the leaf structure");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    MH_CHECK(keys[i] == got_keys[i] &&
                 want.leaf_coeffs(keys[i]) == got.leaf_coeffs(keys[i]),
             "churned run is not bitwise-equal to the fault-free reference");
  }
}

// Ranks that actually hold leaves under this placement. Subtree
// co-location concentrates shards on a few ranks; killing an empty rank
// would measure nothing.
std::vector<std::size_t> loaded_ranks(const mra::Function& f,
                                      const cluster::ChurnConfig& config) {
  dht::ElasticFunction probe(f, config.ranks, config.subtree_level,
                             config.replication, config.seed);
  std::vector<std::size_t> loaded;
  for (std::size_t r = 0; r < probe.ranks(); ++r) {
    if (probe.store().shard_size(r) > 0) loaded.push_back(r);
  }
  MH_CHECK(!loaded.empty(), "no rank holds any leaf");
  return loaded;
}

// `kills` kill/re-add pairs spread evenly across a run of duration
// `makespan`, cycling through the loaded ranks; each victim rejoins half
// a slot after it dies.
std::vector<cluster::ChurnEvent> make_churn_script(
    std::size_t kills, SimTime makespan,
    const std::vector<std::size_t>& victims) {
  std::vector<cluster::ChurnEvent> events;
  const SimTime slot = makespan / static_cast<double>(kills + 1);
  for (std::size_t j = 0; j < kills; ++j) {
    const std::size_t rank = victims[j % victims.size()];
    const SimTime at = slot * static_cast<double>(j + 1);
    events.push_back({cluster::ChurnEvent::Kind::kKill, at, rank});
    events.push_back({cluster::ChurnEvent::Kind::kAdd, at + slot * 0.5,
                      rank});
  }
  std::sort(events.begin(), events.end(),
            [](const cluster::ChurnEvent& a, const cluster::ChurnEvent& b) {
              return a.at < b.at;
            });
  return events;
}

int run(int argc, char** argv) {
  Harness h("elastic", argc, argv);
  const std::uint64_t seed = h.seed_or(kDefaultSeed);
  // Simulated results are seed-exact; gate only the baseline seed so
  // exploratory --seed runs never fight the checked-in numbers.
  const bool gate = seed == kDefaultSeed;

  const mra::Function f = make_bench_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);

  // Fault-free reference: the bitwise target and the churn-script clock.
  const cluster::ChurnResult ref =
      run_churn(op, f, make_config(seed));
  MH_CHECK(ref.stats.tasks > 0, "empty apply schedule");

  std::cout << "Throughput vs churn rate (R=2, " << ref.stats.tasks
            << " tasks, 8 ranks)\n";
  TextTable churn_table({"kill/re-add pairs", "makespan ms", "recovery ms",
                         "recovery MB", "tasks re-homed", "throughput k/s"});
  const std::vector<std::size_t> churn_levels =
      h.quick() ? std::vector<std::size_t>{0, 2}
                : std::vector<std::size_t>{0, 1, 2, 4};
  const std::vector<std::size_t> victims =
      loaded_ranks(f, make_config(seed));
  for (const std::size_t kills : churn_levels) {
    cluster::ChurnConfig config = make_config(seed);
    config.events = make_churn_script(kills, ref.stats.makespan, victims);
    const cluster::ChurnResult r = run_churn(op, f, config);
    check_bitwise(r.result, ref.result);
    const double throughput =
        static_cast<double>(r.stats.tasks) / r.stats.makespan.sec() / 1e3;
    churn_table.add_row({std::to_string(kills),
                         TextTable::num(r.stats.makespan.ms(), 3),
                         TextTable::num(r.stats.recovery_time.ms(), 3),
                         TextTable::num(r.stats.recovery_bytes / 1e6, 3),
                         std::to_string(r.stats.rehomed_tasks),
                         TextTable::num(throughput, 1)});
    const std::string prefix = "churn/kills" + std::to_string(kills);
    h.scalar(prefix + "/makespan_ms", r.stats.makespan.ms(), "ms",
             Direction::kLowerIsBetter, gate);
    h.scalar(prefix + "/recovery_ms", r.stats.recovery_time.ms(), "ms",
             Direction::kLowerIsBetter, gate);
    h.scalar(prefix + "/recovery_bytes", r.stats.recovery_bytes, "bytes",
             Direction::kLowerIsBetter, gate);
  }
  churn_table.print(std::cout);

  std::cout << "\nRecovery time vs replication (one mid-run kill)\n";
  TextTable r_table({"R", "mechanism", "recovery ms", "recovery MB",
                     "makespan ms"});
  for (const std::size_t replication : {1u, 2u, 3u}) {
    cluster::ChurnConfig config = make_config(seed);
    config.replication = replication;
    // R=1 cannot promote replicas; checkpoints make the kill survivable
    // through a restart into the surviving ranks.
    if (replication == 1) config.checkpoint_every = 32;
    const cluster::ChurnResult plain = run_churn(op, f, config);
    // Kill a rank that holds leaves (guaranteed data loss at R=1).
    const std::size_t victim = loaded_ranks(f, config).front();
    config.events = {{cluster::ChurnEvent::Kind::kKill,
                      plain.stats.makespan * 0.5, victim}};
    const cluster::ChurnResult r = run_churn(op, f, config);
    check_bitwise(r.result, plain.result);
    check_bitwise(r.result, ref.result);
    r_table.add_row({std::to_string(replication),
                     replication == 1 ? "checkpoint restart"
                                      : "replica promotion",
                     TextTable::num(r.stats.recovery_time.ms(), 3),
                     TextTable::num(r.stats.recovery_bytes / 1e6, 3),
                     TextTable::num(r.stats.makespan.ms(), 3)});
    const std::string prefix = "recovery/r" + std::to_string(replication);
    h.scalar(prefix + "/recovery_ms", r.stats.recovery_time.ms(), "ms",
             Direction::kLowerIsBetter, gate);
    h.scalar(prefix + "/recovery_bytes", r.stats.recovery_bytes, "bytes",
             Direction::kLowerIsBetter, gate);
    h.scalar(prefix + "/makespan_ms", r.stats.makespan.ms(), "ms",
             Direction::kLowerIsBetter, gate);
    if (replication == 1) {
      MH_CHECK(r.stats.restarts == 1,
               "R=1 kill must recover through a checkpoint restart");
    } else {
      MH_CHECK(r.stats.restarts == 0 && r.stats.lost_leaves == 0,
               "R>=2 kill must recover through replica promotion");
    }
  }
  r_table.print(std::cout);

  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
