// Serving bench: latency vs offered load, to saturation and past it.
//
// The serving front end (src/serve) runs the standard 4-tenant scenario at
// a sweep of offered loads (fractions of the closed-form full-batch
// capacity), once per flush policy:
//   deadline — flush at the last responsible moment for the earliest
//              enqueued deadline (the serving discipline);
//   timer    — classic size/window cadence (the batch-job default).
// Everything is discrete-event simulated time, so the latency quantiles
// (p50/p99/p999 through the log-bucketed histogram), the goodput, and the
// shed fractions are bit-reproducible and gate in CI via
// tools/bench_compare.py. The table this bench prints is the
// latency-vs-load curve CI posts to the job summary.
//
// Gated headline scalars (default seed):
//   - p50/p99/p999 at 0.8 load under the deadline policy;
//   - the timer policy's p99 at the same load, and the tail gain
//     (timer p99 / deadline p99) — the deadline-beats-timer claim;
//   - the saturation knee (first load whose in-SLO goodput falls below
//     90% of offered) and the overload point's goodput + shed%.
//
// MH_DASHBOARD=path attaches a health plane with the SLO-burn rule to the
// 0.8-load deadline run and exports its dashboard there.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "common/diagnostics.hpp"
#include "common/table.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

std::string load_tag(double load) {
  return "load" + TextTable::num(std::lround(load * 100.0), 0);
}

double offered_rps(const serve::ServeConfig& cfg) {
  double total = 0.0;
  for (const serve::TenantSpec& spec : cfg.tenants) total += spec.arrival_rps;
  return total;
}

std::size_t total_of(const serve::ServeResult& r,
                     std::size_t serve::TenantStats::*field) {
  std::size_t total = 0;
  for (const serve::TenantStats& t : r.tenants) total += t.*field;
  return total;
}

double shed_pct(const serve::ServeResult& r) {
  const std::size_t offered = total_of(r, &serve::TenantStats::offered);
  const std::size_t shed = total_of(r, &serve::TenantStats::shed_rate_limit) +
                           total_of(r, &serve::TenantStats::shed_queue_full);
  return offered > 0 ? 100.0 * static_cast<double>(shed) /
                           static_cast<double>(offered)
                     : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("serve", argc, argv);
  const std::uint64_t seed = h.seed_or(0x5eed);
  const bool gate = seed == 0x5eed;  // baselines pin the default stream
  const double duration_s = h.quick() ? 0.4 : 2.0;
  const std::vector<double> loads =
      h.quick() ? std::vector<double>{0.4, 0.8, 1.2}
                : std::vector<double>{0.2, 0.4, 0.6, 0.8, 0.9,
                                      1.0, 1.1, 1.2, 1.4};

  // MH_DASHBOARD arms a health plane (SLO-burn rule) on the 0.8-load
  // deadline run; its dashboard passes `mh_health --check` in CI.
  const std::string dashboard = obs::dashboard_path_from_env();
  std::optional<obs::HealthPlane> plane;
  if (!dashboard.empty()) {
    obs::HealthPlane::Config pc;
    pc.ranks = 4;  // tenant lanes
    pc.rules = serve::serve_rules();
    pc.dashboard_path = dashboard;
    pc.registry = &obs::MetricsRegistry::global();
    plane.emplace(std::move(pc));
  }

  print_header("Latency vs offered load — deadline vs timer flush");
  TextTable curve({"load", "offered/s", "policy", "p50 ms", "p99 ms",
                   "p999 ms", "goodput/s", "shed %", "batches", "avg n"});
  std::optional<serve::ServeResult> deadline080;
  std::optional<serve::ServeResult> timer080;
  std::optional<serve::ServeResult> deadline_overload;
  std::vector<std::pair<double, double>> efficiency;  // load -> goodput/offered
  for (double load : loads) {
    for (const serve::FlushPolicy policy :
         {serve::FlushPolicy::kDeadline, serve::FlushPolicy::kTimer}) {
      serve::ServeConfig cfg = serve::default_serve_config(load);
      cfg.duration = SimTime::seconds(duration_s);
      cfg.seed = seed;
      cfg.policy = policy;  // the sweep's independent variable
      const bool flagship = policy == serve::FlushPolicy::kDeadline &&
                            std::abs(load - 0.8) < 1e-9;
      obs::MetricsRegistry local;
      cfg.metrics = flagship ? &obs::MetricsRegistry::global() : &local;
      cfg.health = flagship && plane ? &*plane : nullptr;
      const serve::ServeResult res = serve::run_serve(cfg);
      const std::size_t admitted =
          total_of(res, &serve::TenantStats::admitted);
      const bool deadline = policy == serve::FlushPolicy::kDeadline;
      curve.add_row(
          {TextTable::num(load, 2), TextTable::num(offered_rps(cfg), 0),
           deadline ? "deadline" : "timer",
           TextTable::num(res.latency.p50, 2),
           TextTable::num(res.latency.p99, 2),
           TextTable::num(res.latency.p999, 2),
           TextTable::num(res.stats.goodput_rps, 0),
           TextTable::num(shed_pct(res), 1),
           TextTable::num(res.stats.batches, 0),
           TextTable::num(res.stats.batches > 0
                              ? static_cast<double>(admitted) /
                                    static_cast<double>(res.stats.batches)
                              : 0.0,
                          1)});
      if (deadline) {
        efficiency.emplace_back(
            load, offered_rps(cfg) > 0.0
                      ? res.stats.goodput_rps / offered_rps(cfg)
                      : 0.0);
        if (flagship) deadline080 = res;
        if (load == loads.back()) deadline_overload = res;
      } else if (std::abs(load - 0.8) < 1e-9) {
        timer080 = res;
      }
    }
  }
  curve.print(std::cout);

  // The saturation knee: the first load whose in-SLO goodput drops below
  // 90% of offered (queueing delay and shedding eat the curve).
  double knee = loads.back();
  for (const auto& [load, eff] : efficiency) {
    if (eff < 0.9) {
      knee = load;
      break;
    }
  }
  std::cout << "saturation knee: " << TextTable::num(knee, 2)
            << " x capacity (goodput < 90% of offered)\n";

  MH_CHECK(deadline080 && timer080 && deadline_overload,
           "sweep must cover 0.8 load and an overload point");

  print_header("Per-tenant breakdown at 0.8 load (deadline policy)");
  TextTable tenants({"tenant", "offered", "admitted", "shed %", "p50 ms",
                     "p99 ms", "p999 ms", "SLO miss %"});
  for (const serve::TenantStats& t : deadline080->tenants) {
    const std::size_t shed = t.shed_rate_limit + t.shed_queue_full;
    tenants.add_row(
        {t.name, TextTable::num(t.offered, 0), TextTable::num(t.admitted, 0),
         TextTable::num(t.offered > 0 ? 100.0 * static_cast<double>(shed) /
                                            static_cast<double>(t.offered)
                                      : 0.0,
                        1),
         TextTable::num(t.latency.p50, 2), TextTable::num(t.latency.p99, 2),
         TextTable::num(t.latency.p999, 2),
         TextTable::num(t.completed > 0
                            ? 100.0 * static_cast<double>(t.slo_misses) /
                                  static_cast<double>(t.completed)
                            : 0.0,
                        1)});
  }
  tenants.print(std::cout);

  // --- gated headline scalars -------------------------------------------
  const serve::ServeResult& dl = *deadline080;
  const serve::ServeResult& tm = *timer080;
  h.scalar("p50_ms_" + load_tag(0.8), dl.latency.p50, "ms",
           Direction::kLowerIsBetter, gate);
  h.scalar("p99_ms_" + load_tag(0.8), dl.latency.p99, "ms",
           Direction::kLowerIsBetter, gate);
  h.scalar("p999_ms_" + load_tag(0.8), dl.latency.p999, "ms",
           Direction::kLowerIsBetter, gate);
  h.scalar("timer_p99_ms_" + load_tag(0.8), tm.latency.p99, "ms",
           Direction::kLowerIsBetter, gate);
  // The headline claim: the deadline policy beats the timer policy on tail
  // latency at 80% load (ratio > 1).
  const double tail_gain =
      dl.latency.p99 > 0.0 ? tm.latency.p99 / dl.latency.p99 : 0.0;
  h.scalar("tail_gain_" + load_tag(0.8), tail_gain, "x",
           Direction::kHigherIsBetter, gate);
  h.scalar("knee_load", knee, "x capacity", Direction::kHigherIsBetter, gate);
  h.scalar("goodput_rps_" + load_tag(loads.back()),
           deadline_overload->stats.goodput_rps, "req/s",
           Direction::kHigherIsBetter, gate);
  h.scalar("shed_pct_" + load_tag(loads.back()), shed_pct(*deadline_overload),
           "%", Direction::kLowerIsBetter, gate);
  for (const serve::TenantStats& t : dl.tenants) {
    h.scalar("p99_ms_" + load_tag(0.8) + "_" + t.name, t.latency.p99, "ms",
             Direction::kLowerIsBetter, gate);
  }
  // Fairness: the hog-resistant scheduler keeps per-tenant tails close —
  // the spread is max/min per-tenant p99 at 0.8 load.
  double p99_min = std::numeric_limits<double>::infinity();
  double p99_max = 0.0;
  for (const serve::TenantStats& t : dl.tenants) {
    p99_min = std::min(p99_min, t.latency.p99);
    p99_max = std::max(p99_max, t.latency.p99);
  }
  h.scalar("fair_p99_spread_" + load_tag(0.8),
           p99_min > 0.0 ? p99_max / p99_min : 0.0, "x",
           Direction::kLowerIsBetter, gate);

  std::cout << "\n(simulated-time sweep: every scalar above is "
               "deterministic and gates at the default seed)\n";
  return h.finish();
}
