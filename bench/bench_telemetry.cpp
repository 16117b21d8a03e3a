// Overhead gate for the live cluster health plane (src/obs/telemetry,
// src/obs/health): the plane must observe the run without changing it, and
// its wall-clock cost on the host must stay below 3%.
//
// Two halves, mirroring the tools/bench_compare.py gating policy:
//
//   deterministic (gated)  — a skewed 16-node steal run with the plane on
//                            vs off must produce the identical simulated
//                            makespan; the plane's tick / delta / byte /
//                            alert counts are themselves deterministic on
//                            the simulated clock and gate as scalars.
//   wall clock (ungated)   — the churn drill (real tensor tasks, so the
//                            data plane does real work) with the plane
//                            on: the time its publishes take, as a share
//                            of the plane-off drill, rides along as
//                            context and an in-bench MH_CHECK fails the
//                            run outright when it reaches 3%.
//
// Set MH_DASHBOARD=<path> to write the live dashboard JSON of the gated
// run (render or validate with tools/mh_health).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "apps/coulomb.hpp"
#include "bench_common.hpp"
#include "bench_harness.hpp"
#include "clustersim/churn.hpp"
#include "common/diagnostics.hpp"
#include "fault/fault.hpp"
#include "mra/function.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

struct Scenario {
  cluster::Workload workload;
  cluster::GroupMap placement;
  cluster::ClusterConfig config;
};

Scenario make_scenario(std::size_t nodes, std::size_t per_node,
                       std::uint64_t seed) {
  Scenario s{cluster::make_workload("telemetry", gpu::ApplyTaskShape{3, 10, 100},
                                    per_node * nodes, nodes * 8, 2.5, seed),
             {},
             apps::titan_config()};
  s.placement = cluster::locality_group_map(s.workload.group_sizes, nodes, 17);
  s.config.nodes = nodes;
  s.config.mode = cluster::ComputeMode::kCpuOnly;
  return s;
}

cluster::StealScheduleResult run_once(const Scenario& s,
                                      obs::HealthPlane* plane) {
  cluster::ClusterConfig cfg = s.config;
  cfg.health = plane;
  return cluster::run_cluster_apply_stealing(s.workload, s.placement, {}, cfg);
}

int run(int argc, char** argv) {
  Harness h("telemetry", argc, argv);
  print_header(
      "Live health plane — observation must not perturb, overhead < 3%");
  const std::uint64_t seed = h.seed_or(4242);
  const bool gate = seed == 4242;
  const std::size_t nodes = 16;
  const std::size_t per_node = h.quick() ? 600 : 1200;
  const Scenario s = make_scenario(nodes, per_node, seed);

  // --- deterministic half: on vs off on the simulated clock -------------
  const auto off = run_once(s, nullptr);
  MH_CHECK(off.result.feasible && !off.result.empty,
           "telemetry scenario must be feasible");

  obs::HealthPlane::Config pcfg;
  pcfg.ranks = nodes;
  pcfg.dashboard_path = obs::dashboard_path_from_env();
  obs::HealthPlane plane(pcfg);
  const auto on = run_once(s, &plane);
  MH_CHECK(on.result.feasible, "telemetry-on run must be feasible");
  MH_CHECK(on.result.makespan.sec() == off.result.makespan.sec(),
           "the health plane observed the run but changed its makespan");

  std::size_t straggler_fires = 0;
  for (const obs::AlertEvent& ev : plane.alert_history()) {
    if (ev.state == obs::AlertState::kFiring) ++straggler_fires;
  }
  const double bytes_per_tick =
      plane.ticks() > 0
          ? plane.bytes_ingested() / static_cast<double>(plane.ticks())
          : 0.0;

  TextTable t({"metric", "value"});
  t.add_row({"makespan off (s)", fmt(off.result.makespan.sec(), 3)});
  t.add_row({"makespan on (s)", fmt(on.result.makespan.sec(), 3)});
  t.add_row({"detector ticks", std::to_string(plane.ticks())});
  t.add_row({"deltas ingested", std::to_string(plane.deltas_ingested())});
  t.add_row({"telemetry bytes", fmt(plane.bytes_ingested() / 1e3, 1) + " KB"});
  t.add_row({"bytes / tick", fmt(bytes_per_tick, 1)});
  t.add_row({"alerts fired", std::to_string(straggler_fires)});

  h.scalar("steal16_makespan_s", on.result.makespan.sec(), "s",
           Direction::kLowerIsBetter, gate);
  h.scalar("telemetry_ticks", static_cast<double>(plane.ticks()), "",
           Direction::kLowerIsBetter, gate);
  h.scalar("telemetry_deltas", static_cast<double>(plane.deltas_ingested()),
           "", Direction::kLowerIsBetter, gate);
  // The wire-cost model is deterministic and gates: an instrument that
  // silently starts shipping every tick shows up here, and an intentional
  // addition refreshes the baseline like any other gated change.
  h.scalar("telemetry_kb_per_tick", bytes_per_tick / 1e3, "KB",
           Direction::kLowerIsBetter, gate);
  h.scalar("alerts_fired", static_cast<double>(straggler_fires), "",
           Direction::kLowerIsBetter, false);
  MH_CHECK(plane.snapshots_lost() == 0,
           "no transport faults in this scenario: nothing may be lost");

  // --- wall-clock half: the churn drill with real tensor tasks ----------
  // The steal scenario above is a pure simulation — its wall cost is
  // microseconds, so any telemetry at all would dwarf it. The churn drill
  // executes real Apply tensor math per task, which is what the plane
  // observes in production; overhead is measured against that. The drill
  // runs without churn events: pure observation cost, no recovery work.
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 8;
  fp.thresh = h.quick() ? 1e-6 : 1e-7;
  fp.initial_level = 4;
  const mra::Function f = mra::Function::project(
      [](std::span<const double> x) {
        const double u = (x[0] - 0.45) / 0.1;
        const double v = (x[1] - 0.55) / 0.12;
        return std::exp(-u * u - v * v);
      },
      fp);
  const auto op = apps::make_smoothing_operator(2, 8, 0.08, 4, 1e-7);
  fault::FaultInjector no_faults(1);  // MH_FAULTS must not skew the timing
  cluster::ChurnConfig cc;
  cc.ranks = 8;
  cc.subtree_level = 2;
  cc.replication = 2;
  cc.seed = 13;
  cc.faults = &no_faults;
  cc.telemetry_every = 256;  // production cadence, not the test default

  const auto churn_off = cluster::run_churn_apply(op, f, cc);
  obs::HealthPlane::Config ccfg;
  ccfg.ranks = cc.ranks;
  obs::HealthPlane churn_plane(ccfg);
  cluster::ChurnConfig cc_on = cc;
  cc_on.health = &churn_plane;
  const auto churn_on = cluster::run_churn_apply(op, f, cc_on);
  MH_CHECK(churn_on.stats.makespan.sec() == churn_off.stats.makespan.sec(),
           "the health plane observed the churn drill but changed it");

  // The gate reads the plane's own wall time: each on-run records every
  // publish (gauge updates, collect, HealthPlane::tick) as a wall-clock
  // "health_publish" span into its own session, and the overhead is the
  // median per-run span total over the median off-run wall time. The
  // difference of two ~100 ms drills on a shared host is noise of the same
  // order as the 3% bound, so it rides along ungated: interleaved off/on
  // pairs, alternating which side runs first, median per-pair ratio.
  const auto timed = [&](obs::TraceSession* session) {
    const auto t0 = std::chrono::steady_clock::now();
    if (session != nullptr) {
      obs::HealthPlane::Config c;
      c.ranks = cc.ranks;
      obs::HealthPlane p(c);
      cluster::ChurnConfig on_cfg = cc;
      on_cfg.health = &p;
      on_cfg.trace = session;
      cluster::run_churn_apply(op, f, on_cfg);
    } else {
      cluster::run_churn_apply(op, f, cc);
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  const int pairs = std::max(h.repeats(), 11);
  std::vector<double> off_s, on_s, pair_pct, publish_s;
  for (int i = 0; i < pairs; ++i) {
    obs::TraceSession session;
    double off_sec = 0.0;
    double on_sec = 0.0;
    if (i % 2 == 0) {
      off_sec = timed(nullptr);
      on_sec = timed(&session);
    } else {
      on_sec = timed(&session);
      off_sec = timed(nullptr);
    }
    off_s.push_back(off_sec);
    on_s.push_back(on_sec);
    pair_pct.push_back((on_sec / off_sec - 1.0) * 100.0);
    const obs::CategoryTotals spans =
        session.category_totals(obs::ClockDomain::kWall);
    publish_s.push_back(spans[obs::Category::kOther] * 1e-6);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double overhead_pct = median(pair_pct);
  const double attributed_pct = median(publish_s) / median(off_s) * 100.0;
  t.add_row({"churn tasks", std::to_string(churn_off.stats.tasks)});
  t.add_row({"churn ticks", std::to_string(churn_plane.ticks())});
  t.add_row({"wall off p50 (ms)", fmt(median(off_s) * 1e3, 2)});
  t.add_row({"wall on p50 (ms)", fmt(median(on_s) * 1e3, 2)});
  t.add_row({"plane p50 (ms)", fmt(median(publish_s) * 1e3, 3)});
  t.add_row({"wall overhead (on/off)", fmt(overhead_pct, 2) + " %"});
  t.add_row({"plane overhead", fmt(attributed_pct, 2) + " %"});
  t.print(std::cout);
  h.scalar("wall_off_ms", median(off_s) * 1e3, "ms", Direction::kLowerIsBetter,
           false);
  h.scalar("wall_on_ms", median(on_s) * 1e3, "ms", Direction::kLowerIsBetter,
           false);
  h.scalar("wall_overhead_pct", overhead_pct, "%", Direction::kLowerIsBetter,
           false);
  h.scalar("plane_overhead_pct", attributed_pct, "%",
           Direction::kLowerIsBetter, false);
  MH_CHECK(attributed_pct < 3.0,
           "health plane wall overhead must stay below 3% (measured " +
               fmt(attributed_pct, 2) + "% of the drill)");

  print_footnote(
      "off/on makespans are asserted identical on both scenarios: the\n"
      "plane rides the simulated clock as an observer. plane overhead is\n"
      "the median per-run time spent publishing (health_publish spans)\n"
      "over the median plane-off drill time on this host; the bench fails\n"
      "above 3%. wall overhead (on/off) is the median pairwise ratio of\n"
      "interleaved drills, reported ungated as context.");
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
