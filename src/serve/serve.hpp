// Multi-tenant serving front-end over the batching runtime — the ROADMAP
// north star's request plane.
//
// Every workload so far is a one-shot batch job; this subsystem turns the
// paper's core discipline — aggregate many small irregular tasks into
// dispatchable batches (§II-A) — into an inference-style request server.
// An open-loop stream of Apply / Compress / Reconstruct requests (the
// Poisson limit of thousands of independent simulated clients per tenant)
// arrives on the simulated clock and passes through three stages:
//
//   1. Admission — per-tenant token bucket (rate_rps / burst) plus a
//      bounded per-tenant queue. A request that fails either gets an
//      explicit typed shed response *now* (kShedRateLimit /
//      kShedQueueFull): backpressure is a first-class answer, never a
//      silent drop or an unbounded queue.
//   2. Fair-share batching — admitted requests queue per (tenant, class);
//      batches are formed per class by weighted round-robin across
//      tenants, so a hog tenant saturating its own queue cannot starve
//      the others. Flush discipline is configurable:
//        kTimer    — classic size/timer cadence (flush_window), the
//                    batching.hpp default;
//        kDeadline — the serving discipline: flush at the last
//                    responsible moment for the earliest enqueued
//                    deadline (rt::deadline_flush_at in
//                    runtime/deadline.hpp).
//   3. Service — `workers` parallel batch servers, each bound to a
//      backend rank; a batch costs batch_setup[class] +
//      n * per_item[class] of simulated time. Every dispatch consults
//      the fault injector's `send` site: a hit kills the worker's rank
//      (capacity loss until rank_restart elapses) and answers the whole
//      batch with typed kBackendError responses — under chaos the server
//      sheds and errors, it never hangs.
//
// Everything runs single-threaded on a discrete-event simulated clock, so
// latency distributions, flush-reason counts, and shed totals are
// bit-reproducible and CI can gate p99/p999 exactly (the same convention
// as clustersim: only deterministic simulated-time results gate).
//
// Observability: per-tenant latency histograms land in the provided
// MetricsRegistry (mh_serve_latency_ms{tenant=...}); when a HealthPlane is
// attached, per-tenant SLO-burn / queue-depth lanes are published every
// telemetry_tick and the kSloBurn AlertRule (serve_rules) fires and
// resolves on the simulated clock — the dashboard CI validates with
// mh_health --check is written by that plane.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace mh::serve {

/// The three request shapes a MADNESS serving tier answers.
enum class RequestClass : std::uint8_t {
  kApply = 0,
  kCompress = 1,
  kReconstruct = 2,
};
inline constexpr std::size_t kRequestClasses = 3;

const char* request_class_name(RequestClass c) noexcept;

/// Every request gets exactly one typed terminal outcome.
enum class Outcome : std::uint8_t {
  kOk = 0,             ///< served (possibly past its SLO — see slo_misses)
  kShedRateLimit = 1,  ///< admission: token bucket empty
  kShedQueueFull = 2,  ///< admission: tenant queue at capacity
  kBackendError = 3,   ///< batch hit a dead/dying rank (typed error reply)
};

enum class FlushPolicy : std::uint8_t { kTimer = 0, kDeadline = 1 };

struct TenantSpec {
  std::string name = "tenant";
  /// Fair-share weight: items taken per round-robin visit when forming a
  /// batch (>= 1 after rounding).
  double weight = 1.0;
  /// Admission token bucket: sustained rate and burst capacity.
  double rate_rps = 10000.0;
  double burst = 128.0;
  /// Bounded queue across the tenant's three per-class FIFOs.
  std::size_t queue_cap = 512;
  /// Per-request latency budget; deadline = arrival + slo.
  SimTime slo = SimTime::millis(8.0);
  /// Open-loop offered load (Poisson arrivals, exponential interarrival).
  double arrival_rps = 5000.0;
  /// Request-class mix (normalized internally). Apply dominates;
  /// reconstruct is the rare, setup-heavy class whose batches are the
  /// flush policy's hard case.
  std::array<double, kRequestClasses> mix{0.75, 0.2, 0.05};
};

struct ServeConfig {
  std::vector<TenantSpec> tenants;
  /// Parallel batch servers; worker w is bound to rank w % backend_ranks.
  std::size_t workers = 2;
  std::size_t backend_ranks = 4;
  std::size_t max_batch = 64;
  /// kTimer: dispatch a class once its oldest item is this old. One fixed
  /// window must serve every class — the compromise the deadline policy
  /// escapes (each class gets its own last-responsible-moment window).
  SimTime flush_window = SimTime::millis(1.0);
  FlushPolicy policy = FlushPolicy::kDeadline;
  /// kDeadline: safety margin in flush_at = deadline - estimate - margin.
  /// The estimate covers the batch's own service; the margin covers what
  /// it cannot see — the wait for a free worker, up to one full batch
  /// service of the most expensive class.
  SimTime deadline_margin = SimTime::millis(2.5);
  /// Arrivals stop after this much simulated time; queued work drains.
  SimTime duration = SimTime::seconds(2.0);
  std::uint64_t seed = 0x5eedULL;
  /// Batch cost model per class: setup + n * per_item of worker time.
  /// Deliberately heterogeneous — reconstruct's setup is ~8x apply's
  /// (deep-refinement trees ship whole ancestor paths), so it only
  /// amortizes in near-full batches that take milliseconds to accumulate
  /// at its low arrival share.
  std::array<SimTime, kRequestClasses> batch_setup{
      SimTime::micros(200.0), SimTime::micros(400.0), SimTime::micros(2000.0)};
  std::array<SimTime, kRequestClasses> per_item{
      SimTime::micros(8.0), SimTime::micros(10.0), SimTime::micros(20.0)};
  /// Typed error responses land this long after the failed dispatch.
  SimTime error_latency = SimTime::micros(50.0);
  /// A killed rank rejoins (empty) after this much simulated time.
  SimTime rank_restart = SimTime::millis(50.0);
  /// Send-site injector consulted once per batch dispatch; nullptr means
  /// the process injector configured from MH_FAULTS.
  fault::FaultInjector* faults = nullptr;
  /// Per-tenant latency histograms and shed counters land here; nullptr
  /// means the process registry (obs::MetricsRegistry::global()).
  obs::MetricsRegistry* metrics = nullptr;
  /// Live health plane on the simulated clock: per-tenant SLO-burn and
  /// queue-depth lanes published every telemetry_tick (tenant index is
  /// the lane "rank"). Non-owning; nullptr disables telemetry.
  obs::HealthPlane* health = nullptr;
  SimTime telemetry_tick = SimTime::millis(10.0);
};

struct TenantStats {
  std::string name;
  std::size_t offered = 0;          ///< open-loop arrivals generated
  std::size_t admitted = 0;
  std::size_t shed_rate_limit = 0;
  std::size_t shed_queue_full = 0;
  std::size_t backend_errors = 0;
  std::size_t completed = 0;        ///< kOk responses
  std::size_t slo_misses = 0;       ///< kOk but later than the deadline
  /// kOk response latency (ms), log-bucketed; `latency` = summarize(...).
  HistogramSnapshot latency_ms;
  SampleSummary latency;
};

struct ServeStats {
  std::size_t batches = 0;
  std::size_t size_flushes = 0;
  std::size_t timer_flushes = 0;
  std::size_t deadline_flushes = 0;
  std::size_t max_batch_seen = 0;
  std::size_t rank_deaths = 0;
  std::size_t rank_restarts = 0;
  std::size_t alerts_fired = 0;     ///< health-plane transitions observed
  std::size_t alerts_resolved = 0;
  /// In-SLO completions per second of configured duration.
  double goodput_rps = 0.0;
  SimTime makespan;                 ///< duration + drain
};

struct ServeResult {
  std::vector<TenantStats> tenants;
  ServeStats stats;
  /// All tenants' kOk latency merged (lossless bucket-wise).
  HistogramSnapshot latency_ms;
  SampleSummary latency;
};

/// Run the server to completion (arrivals for `duration`, then drain).
/// Deterministic: same config + seed => bitwise-identical result.
ServeResult run_serve(const ServeConfig& config);

/// Alert rules for a serving health plane: the per-tenant SLO-burn rule
/// (mh_serve_slo_burn lane >= burn_threshold, 2 ticks to fire, 3 clean
/// ticks to resolve) — append to default_rules() or use alone.
std::vector<obs::AlertRule> serve_rules(double burn_threshold = 0.5);

/// Closed-form full-batch capacity estimate (requests/s): workers divided
/// by the arrival-weighted per-item cost setup/max_batch + per_item.
double capacity_rps(const ServeConfig& config);

/// The standard 4-tenant scenario offered at `load` x capacity_rps:
/// uneven tenant shares (0.4/0.3/0.2/0.1), admission provisioned at
/// 1.25 x fair share so the saturation knee shows queueing before
/// shedding takes over.
ServeConfig default_serve_config(double load);

/// Apply MH_SERVE_* environment overrides (see README "Serving"):
/// WORKERS, RANKS, MAX_BATCH, WINDOW_US, MARGIN_US, POLICY, SLO_MS,
/// DURATION_S, LOAD (rescales every tenant's arrival_rps), SEED.
void apply_env_overrides(ServeConfig& config);

}  // namespace mh::serve
