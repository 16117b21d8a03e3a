// Online anomaly detection and alerting over the telemetry rollup — the
// detector half of the live health plane (telemetry.hpp is the transport
// and state half).
//
// A HealthMonitor evaluates typed rules against a TelemetryAggregator once
// per tick. Every (rule, rank) cell runs the same hysteresis machine:
//
//   inactive --condition true for `for_ticks`--> firing
//   firing --condition false for `resolve_ticks`--> resolved (inactive)
//
// so a one-tick blip neither fires nor resolves anything (debounce), and
// the emitted AlertEvents are exactly the state *transitions* — which is
// what makes the clustersim scenarios assertable: on the simulated clock
// the churn drill must produce the literal sequence rank-death firing →
// replication-below-R firing → resolved after repair, every run.
//
// Alerts land three ways: AlertEvents (returned + kept in history),
// `mh_alert_fired_total` / `mh_alert_resolved_total` counters, and — when
// a TraceSession is attached — one span per firing interval on a
// "health/alerts" track, so an alert is visible in the same merged Chrome
// trace as the work it flags.
//
// HealthPlane bundles aggregator + monitor + a periodically rewritten live
// dashboard JSON (MH_DASHBOARD=path, rendered by tools/mh_health) behind
// one mutex, so readers may poll it from outside the thread that drives
// the simulated scenario.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"

namespace mh::obs {

class MetricsRegistry;
class TraceSession;

/// Cluster-wide alerts (no single culprit rank) carry this rank.
inline constexpr std::size_t kClusterRank = static_cast<std::size_t>(-1);

struct AlertRule {
  enum class Kind {
    /// A rank's queue depth is >= `threshold` x the cluster median (and
    /// non-trivial): the live counterpart of the post-hoc straggler
    /// ranking in mh_trace_analyze. Instrument: per-rank gauge lanes.
    kStraggler,
    /// A rank's liveness lane dropped below 0.5. Instrument: gauge.
    kRankDead,
    /// The minimum replica count across live entries fell below
    /// `threshold` (R): one more failure may lose data. Cluster-wide.
    kReplicationLow,
    /// Steals are mostly denied: denied / requested >= `threshold` over a
    /// tick, with at least `kStealThrashMinRequests` requests.
    kStealThrash,
    /// A tenant is burning its latency SLO: the serving layer publishes
    /// each tenant's burn rate (fraction of requests over deadline in the
    /// last window, lane index = tenant) and this fires when a lane is
    /// >= `threshold`. Instrument: per-rank gauge lanes
    /// (mh_serve_slo_burn by convention; see serve_rules()).
    kSloBurn,
  };

  Kind kind = Kind::kStraggler;
  /// Stable rule name: alert labels, dashboard keys, span names.
  std::string name;
  /// The instrument evaluated; defaults per kind (see default_rules).
  std::string instrument;
  /// Companion instrument (kStealThrash: the request counter).
  std::string instrument_b;
  double threshold = 0.0;
  /// Consecutive true ticks before firing (>= 1).
  std::size_t for_ticks = 1;
  /// Consecutive false ticks before a firing alert resolves (>= 1).
  std::size_t resolve_ticks = 1;
};

inline constexpr double kStealThrashMinRequests = 4.0;

/// The standard rule set over the well-known instrument names published by
/// the clustersim steal loop and the churn scenario. `replication`
/// parameterises the replication-below-R threshold.
std::vector<AlertRule> default_rules(double replication = 2.0);

enum class AlertState : std::uint8_t {
  kInactive,
  kPending,   ///< condition true, debounce not yet elapsed
  kFiring,
  kResolved,  ///< transition only; the cell returns to inactive
};

std::string_view alert_state_name(AlertState state) noexcept;

/// One state transition (fired or resolved).
struct AlertEvent {
  std::string rule;
  AlertState state = AlertState::kFiring;
  std::size_t rank = kClusterRank;
  double value = 0.0;      ///< observed value at the transition
  double threshold = 0.0;
  double time_s = 0.0;
  std::uint64_t tick = 0;
};

class HealthMonitor {
 public:
  struct Config {
    std::vector<AlertRule> rules;  ///< empty -> default_rules()
    /// Alert counters land here when set.
    MetricsRegistry* registry = nullptr;
    /// Firing intervals land here as kOther spans when set.
    TraceSession* trace = nullptr;
    /// Events kept in history() (bounded like the telemetry rings).
    std::size_t history_capacity = 256;
  };

  explicit HealthMonitor(Config config);

  /// Run one detector tick against the rollup; returns the transitions.
  std::vector<AlertEvent> evaluate(const TelemetryAggregator& agg,
                                   double time_s);

  /// A currently pending or firing (rule, rank) cell.
  struct ActiveAlert {
    std::string rule;
    std::size_t rank = kClusterRank;
    AlertState state = AlertState::kPending;
    double value = 0.0;
    double threshold = 0.0;
    double since_s = 0.0;  ///< first tick time of the current episode
  };

  std::vector<ActiveAlert> active() const;
  const std::vector<AlertEvent>& history() const { return history_; }
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t events_dropped() const { return events_dropped_; }
  const std::vector<AlertRule>& rules() const { return rules_; }

 private:
  struct Cell {
    std::size_t true_ticks = 0;
    std::size_t false_ticks = 0;
    bool firing = false;
    double value = 0.0;
    double since_s = 0.0;
    double fired_s = 0.0;
  };

  // The per-rank condition, or the cluster-wide one under kClusterRank.
  bool condition(const AlertRule& rule, const TelemetryAggregator& agg,
                 std::size_t rank, double* value, double* threshold);

  std::vector<AlertRule> rules_;
  MetricsRegistry* registry_;
  TraceSession* trace_;
  std::size_t history_capacity_;
  std::uint32_t alert_track_ = 0;
  // Cell key: (rule index, rank).
  std::map<std::pair<std::size_t, std::size_t>, Cell> cells_;
  // kStealThrash needs a per-tick rate: the previous cluster totals of its
  // (denied, requested) counters, keyed by rule name.
  std::map<std::string, std::pair<double, double>> prev_totals_;
  std::vector<AlertEvent> history_;
  std::uint64_t ticks_ = 0;
  std::uint64_t events_dropped_ = 0;
};

/// Aggregator + monitor + live dashboard behind one lock: the object a
/// scenario installs as its health plane.
class HealthPlane {
 public:
  struct Config {
    std::size_t ranks = 1;
    std::size_t ring_capacity = 128;
    std::vector<AlertRule> rules;  ///< empty -> default_rules()
    /// Rewrite this file after every `dashboard_every`-th tick (and on
    /// destruction) when non-empty. MH_DASHBOARD wires it from the env.
    std::string dashboard_path;
    std::size_t dashboard_every = 1;
    MetricsRegistry* registry = nullptr;
    TraceSession* trace = nullptr;
  };

  explicit HealthPlane(Config config);
  ~HealthPlane();

  HealthPlane(const HealthPlane&) = delete;
  HealthPlane& operator=(const HealthPlane&) = delete;

  /// Fold one rank's delta into the rollup (transport side).
  void ingest(const TelemetryDelta& delta);
  /// Commit rings, run one detector tick, maybe rewrite the dashboard.
  std::vector<AlertEvent> evaluate(double time_s);
  /// ingest() every delta, then evaluate() — the simulated-clock path.
  std::vector<AlertEvent> tick(const std::vector<TelemetryDelta>& deltas,
                               double time_s);

  /// Every transition observed so far (bounded copy).
  std::vector<AlertEvent> alert_history() const;
  std::vector<HealthMonitor::ActiveAlert> active_alerts() const;
  std::uint64_t ticks() const;
  /// Locked accessors for rollup scalars (avoid holding references).
  double counter_total(std::string_view name) const;
  double lane(std::string_view name, std::size_t rank,
              double fallback = 0.0) const;
  TelemetryAggregator::GaugeStats gauge_stats(std::string_view name) const;
  std::uint64_t deltas_ingested() const;
  double bytes_ingested() const;
  std::uint64_t snapshots_lost() const;

  /// The dashboard document (also what write_dashboard puts on disk).
  std::string dashboard_json() const;
  bool write_dashboard(const std::string& path) const;

 private:
  void write_dashboard_locked(std::ostream& os) const;

  Config config_;
  mutable std::mutex mu_;
  TelemetryAggregator aggregator_;
  HealthMonitor monitor_;
  std::uint64_t ticks_since_write_ = 0;
};

/// MH_DASHBOARD=path, or empty when unset.
std::string dashboard_path_from_env();
/// MH_TELEMETRY truthy (anything but empty/"0"/"off") arms the plane in
/// benches and long-running drivers.
bool telemetry_enabled_from_env();

/// Structural validation of a dashboard file (tools/mh_health --check and
/// the CI artifact check): parses, verifies the schema marker, finite
/// numbers, lane/ring bounds, and alert-history consistency (a resolve
/// only after a fire for the same cell).
struct DashboardCheck {
  bool ok = false;
  std::vector<std::string> problems;
  // Summary fields for rendering.
  double time_s = 0.0;
  std::uint64_t ticks = 0;
  std::size_t ranks = 0;
  std::size_t instruments = 0;
  std::size_t firing = 0;    ///< alerts still firing at write time
  std::size_t history = 0;   ///< transitions recorded
};

DashboardCheck check_dashboard_text(const std::string& text);

}  // namespace mh::obs
