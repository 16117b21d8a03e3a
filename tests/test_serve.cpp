// Deterministic tests for the serving front end (src/serve).
//
// Everything runs on the simulated clock, so every assertion below is
// exact: outcome conservation, fairness splits, and the deadline-vs-timer
// tail comparison reproduce bit-for-bit on any machine.
//
// The ServeChaos suite is the CI saturation-under-chaos drill: with send
// faults armed (the test's own injector, or the process one when CI arms
// MH_FAULTS) the server must keep answering with typed shed/error
// responses — no hang, no silent drop — and the SLO-burn alert must both
// fire and resolve on the exported dashboard.
#include <gtest/gtest.h>

#include <string>

#include "fault/fault.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"

namespace {

using namespace mh;

serve::ServeConfig config_at(double load, serve::FlushPolicy policy,
                             double duration_s = 0.5) {
  serve::ServeConfig cfg = serve::default_serve_config(load);
  cfg.policy = policy;
  cfg.duration = SimTime::seconds(duration_s);
  return cfg;
}

std::size_t total_offered(const serve::ServeResult& r) {
  std::size_t n = 0;
  for (const auto& t : r.tenants) n += t.offered;
  return n;
}

std::size_t total_shed(const serve::ServeResult& r) {
  std::size_t n = 0;
  for (const auto& t : r.tenants) n += t.shed_rate_limit + t.shed_queue_full;
  return n;
}

// ---------------------------------------------------------------------------
// Determinism

TEST(Serve, SameSeedIsBitwiseIdentical) {
  obs::MetricsRegistry reg_a;
  obs::MetricsRegistry reg_b;
  serve::ServeConfig cfg = config_at(0.8, serve::FlushPolicy::kDeadline);
  cfg.metrics = &reg_a;
  const serve::ServeResult a = serve::run_serve(cfg);
  cfg.metrics = &reg_b;
  const serve::ServeResult b = serve::run_serve(cfg);
  EXPECT_EQ(a.latency_ms.count, b.latency_ms.count);
  EXPECT_EQ(a.latency_ms.sum, b.latency_ms.sum);  // bitwise, not approx
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.deadline_flushes, b.stats.deadline_flushes);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].offered, b.tenants[t].offered);
    EXPECT_EQ(a.tenants[t].completed, b.tenants[t].completed);
  }
}

TEST(Serve, DifferentSeedsDiffer) {
  obs::MetricsRegistry reg;
  serve::ServeConfig cfg = config_at(0.8, serve::FlushPolicy::kDeadline);
  cfg.metrics = &reg;
  const serve::ServeResult a = serve::run_serve(cfg);
  cfg.seed ^= 0x9e3779b97f4a7c15ULL;
  const serve::ServeResult b = serve::run_serve(cfg);
  EXPECT_NE(a.latency_ms.sum, b.latency_ms.sum);
}

// ---------------------------------------------------------------------------
// Outcome conservation: backpressure is typed, never silent

TEST(Serve, EveryArrivalGetsExactlyOneTypedOutcome) {
  obs::MetricsRegistry reg;
  serve::ServeConfig cfg = config_at(1.5, serve::FlushPolicy::kDeadline);
  cfg.metrics = &reg;
  const serve::ServeResult r = serve::run_serve(cfg);
  ASSERT_GT(total_offered(r), 0u);
  for (const auto& t : r.tenants) {
    // run_serve also MH_CHECKs this; the test states the contract.
    EXPECT_EQ(t.offered,
              t.admitted + t.shed_rate_limit + t.shed_queue_full);
    EXPECT_EQ(t.admitted, t.completed + t.backend_errors);
    EXPECT_EQ(t.backend_errors, 0u);  // no faults armed in this run
  }
  // 1.5x capacity: admission must have shed explicitly.
  EXPECT_GT(total_shed(r), 0u);
}

TEST(Serve, ShedBeforeCollapse) {
  obs::MetricsRegistry reg;
  serve::ServeConfig cfg = config_at(2.0, serve::FlushPolicy::kDeadline);
  cfg.metrics = &reg;
  const serve::ServeResult r = serve::run_serve(cfg);
  // At 2x capacity the server sheds a large fraction instead of queueing
  // without bound...
  const double shed_frac = static_cast<double>(total_shed(r)) /
                           static_cast<double>(total_offered(r));
  EXPECT_GT(shed_frac, 0.2);
  // ...and what it does serve keeps a bounded tail: the token buckets and
  // queue caps keep sojourn finite (queue_cap items drain at full-batch
  // rate), far from an open-loop latency explosion.
  EXPECT_LT(r.latency.p99, 100.0);
  EXPECT_GT(r.stats.goodput_rps, 0.0);
}

// ---------------------------------------------------------------------------
// Flush policy

TEST(Serve, DeadlineFlushBeatsTimerFlushOnTailAt80Load) {
  obs::MetricsRegistry reg_d;
  obs::MetricsRegistry reg_t;
  serve::ServeConfig dl = config_at(0.8, serve::FlushPolicy::kDeadline, 1.0);
  serve::ServeConfig tm = config_at(0.8, serve::FlushPolicy::kTimer, 1.0);
  dl.metrics = &reg_d;
  tm.metrics = &reg_t;
  const serve::ServeResult d = serve::run_serve(dl);
  const serve::ServeResult t = serve::run_serve(tm);
  // The headline serving claim: at 80% load the per-class
  // last-responsible-moment flush beats the fixed window on the tail
  // (the window cannot amortize reconstruct's setup without overpaying
  // on apply), and holds the median too.
  EXPECT_LT(d.latency.p99, t.latency.p99);
  EXPECT_LT(d.latency.p50, t.latency.p50);
  // Neither run misses SLOs wholesale at 0.8.
  for (const auto& ten : d.tenants) {
    EXPECT_LT(static_cast<double>(ten.slo_misses),
              0.01 * static_cast<double>(ten.completed) + 1.0);
  }
}

TEST(Serve, FlushReasonAccountingIsExhaustive) {
  obs::MetricsRegistry reg;
  serve::ServeConfig cfg = config_at(0.6, serve::FlushPolicy::kDeadline);
  cfg.metrics = &reg;
  const serve::ServeResult d = serve::run_serve(cfg);
  EXPECT_EQ(d.stats.batches, d.stats.size_flushes + d.stats.timer_flushes +
                                 d.stats.deadline_flushes);
  EXPECT_GT(d.stats.deadline_flushes, 0u);
  EXPECT_EQ(d.stats.timer_flushes, 0u);

  obs::MetricsRegistry reg_t;
  cfg = config_at(0.6, serve::FlushPolicy::kTimer);
  cfg.metrics = &reg_t;
  const serve::ServeResult t = serve::run_serve(cfg);
  EXPECT_EQ(t.stats.batches, t.stats.size_flushes + t.stats.timer_flushes +
                                 t.stats.deadline_flushes);
  EXPECT_GT(t.stats.timer_flushes, 0u);
  EXPECT_EQ(t.stats.deadline_flushes, 0u);
  EXPECT_LE(t.stats.max_batch_seen, serve::kMaxBatch);
}

// ---------------------------------------------------------------------------
// Fairness

TEST(Serve, AdmissionIsolatesAHogTenant) {
  // The hog offers 8x its admission rate; the victims stay within theirs.
  obs::MetricsRegistry reg;
  serve::ServeConfig cfg = config_at(0.7, serve::FlushPolicy::kDeadline);
  cfg.tenants[0].arrival_rps *= 8.0;
  const serve::ServeResult r = serve::run_serve(
      [&] {
        serve::ServeConfig c = cfg;
        c.metrics = &reg;
        return c;
      }());
  const auto& hog = r.tenants[0];
  // The hog is rate-limited with typed responses...
  EXPECT_GT(hog.shed_rate_limit, 0u);
  // ...to roughly its provisioned rate (1.25x its fair share), so its
  // overload cannot consume the others' capacity.
  EXPECT_LT(static_cast<double>(hog.admitted),
            1.5 * cfg.tenants[0].rate_rps * cfg.duration.sec());
  for (std::size_t t = 1; t < r.tenants.size(); ++t) {
    const auto& victim = r.tenants[t];
    EXPECT_EQ(victim.shed_rate_limit, 0u) << victim.name;
    EXPECT_EQ(victim.shed_queue_full, 0u) << victim.name;
    EXPECT_EQ(victim.completed, victim.admitted) << victim.name;
    // Victims still meet their SLO despite the hog.
    EXPECT_LT(victim.latency.p99, cfg.tenants[t].slo.ms()) << victim.name;
  }
}

TEST(Serve, WeightedRoundRobinPreventsQueueStarvation) {
  // Let the hog's admitted backlog through (generous bucket + deep queue):
  // starvation-freedom must now come from the weighted round-robin batch
  // formation, not from admission.
  obs::MetricsRegistry reg;
  serve::ServeConfig cfg = config_at(0.7, serve::FlushPolicy::kDeadline);
  cfg.tenants[0].arrival_rps *= 3.0;
  cfg.tenants[0].rate_rps *= 100.0;
  cfg.tenants[0].burst = 1e6;
  cfg.tenants[0].queue_cap = 100000;
  cfg.metrics = &reg;
  const serve::ServeResult r = serve::run_serve(cfg);
  const auto& hog = r.tenants[0];
  // The hog saturates the system: its own backlog blows its SLO...
  EXPECT_GT(hog.slo_misses, hog.completed / 2);
  for (std::size_t t = 1; t < r.tenants.size(); ++t) {
    const auto& victim = r.tenants[t];
    // ...but every victim still drains completely (nothing starves), and
    // its tail stays an order of magnitude below the hog's.
    EXPECT_EQ(victim.completed, victim.admitted) << victim.name;
    EXPECT_LT(victim.latency.p99, hog.latency.p99 / 4.0) << victim.name;
  }
}

// ---------------------------------------------------------------------------
// Chaos drill (CI re-runs this suite with MH_FAULTS + MH_DASHBOARD)

TEST(ServeChaos, ShedsAndErrorsTypedButNeverHangs) {
  // Deterministic send faults: the process injector when CI armed it via
  // MH_FAULTS, else this test's own cadence rule.
  fault::FaultInjector local(20260808);
  fault::FaultInjector* faults = &fault::FaultInjector::global();
  if (!faults->armed()) {
    fault::SiteRule rule;
    rule.every = 5;  // every 5th batch dispatch kills its rank
    local.set_rule(fault::FaultSite::kSend, rule);
    faults = &local;
  }

  obs::MetricsRegistry reg;
  obs::HealthPlane::Config pc;
  pc.ranks = 4;  // tenant lanes
  pc.rules = serve::serve_rules();
  pc.dashboard_path = obs::dashboard_path_from_env();
  pc.registry = &reg;
  obs::HealthPlane plane(pc);

  serve::ServeConfig cfg = config_at(0.9, serve::FlushPolicy::kDeadline, 1.0);
  cfg.faults = faults;
  cfg.metrics = &reg;
  cfg.health = &plane;
  // Returning at all is the no-hang proof: the event loop must drain even
  // while ranks die under it.
  const serve::ServeResult r = serve::run_serve(cfg);

  // Ranks died and came back; the lost batches surfaced as typed errors.
  EXPECT_GT(r.stats.rank_deaths, 0u);
  EXPECT_GT(r.stats.rank_restarts, 0u);
  std::size_t errors = 0;
  for (const auto& t : r.tenants) {
    EXPECT_EQ(t.offered, t.admitted + t.shed_rate_limit + t.shed_queue_full);
    EXPECT_EQ(t.admitted, t.completed + t.backend_errors);
    errors += t.backend_errors;
  }
  EXPECT_GT(errors, 0u);
  // The server kept serving around the dead ranks.
  EXPECT_GT(r.stats.goodput_rps, 0.0);

  // The SLO-burn alert saw the error burst and the recovery: it must have
  // both fired and resolved on the simulated clock.
  EXPECT_GE(r.stats.alerts_fired, 1u);
  EXPECT_GE(r.stats.alerts_resolved, 1u);

  // The dashboard the plane exports passes the structural checker (CI
  // additionally runs mh_health --check on the MH_DASHBOARD file).
  const obs::DashboardCheck check =
      obs::check_dashboard_text(plane.dashboard_json());
  EXPECT_TRUE(check.ok) << (check.problems.empty() ? std::string()
                                                   : check.problems[0]);
  EXPECT_GE(check.history, 2u);  // fire + resolve in the alert history
}

}  // namespace
