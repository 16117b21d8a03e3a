// Online anomaly detection and alerting over the telemetry rollup — the
// consumer half of the live health plane (telemetry.hpp is the transport
// half).
//
// A HealthPlane folds the scenarios' deltas into an exact cluster rollup
// (counters sum across ranks; gauges keep per-rank lanes plus
// min/median/max, and every instrument keeps a bounded time-series ring)
// and evaluates typed rules against it once per tick. Every (rule, rank)
// cell runs the same hysteresis machine:
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
// trace as the work it flags. The live dashboard JSON (MH_DASHBOARD=path,
// rendered by tools/mh_health) is rewritten after every tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
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

/// The health plane: exact cluster rollup of the scenarios' telemetry,
/// the alert detector over it, and the live dashboard, behind one lock so
/// readers may poll it from outside the thread that drives the simulated
/// scenario.
class HealthPlane {
 public:
  struct Config {
    std::size_t ranks = 1;
    std::vector<AlertRule> rules;  ///< empty -> default_rules()
    /// Rewrite this file after every tick when non-empty. MH_DASHBOARD
    /// wires it from the env.
    std::string dashboard_path;
    /// Alert counters land here when set.
    MetricsRegistry* registry = nullptr;
    /// Firing intervals land here as kOther spans when set.
    TraceSession* trace = nullptr;
  };

  /// Points kept per instrument ring; older points are evicted (and
  /// counted) so memory is bounded regardless of run length.
  static constexpr std::size_t kRingCapacity = 128;
  /// Transitions kept in alert_history(); older ones are dropped (and
  /// counted).
  static constexpr std::size_t kHistoryCapacity = 256;

  struct GaugeStats {
    double min = 0.0;
    double median = 0.0;
    double max = 0.0;
    std::size_t lanes = 0;  ///< ranks heard from
  };

  /// A currently pending or firing (rule, rank) cell.
  struct ActiveAlert {
    std::string rule;
    std::size_t rank = kClusterRank;
    AlertState state = AlertState::kPending;
    double value = 0.0;
    double threshold = 0.0;
    double since_s = 0.0;  ///< first tick time of the current episode
  };

  explicit HealthPlane(Config config);

  HealthPlane(const HealthPlane&) = delete;
  HealthPlane& operator=(const HealthPlane&) = delete;

  /// Fold every delta into the rollup, append one ring point per touched
  /// instrument, run one detector tick and rewrite the dashboard. Returns
  /// the alert transitions of this tick.
  std::vector<AlertEvent> tick(const std::vector<TelemetryDelta>& deltas,
                               double time_s);

  /// Every transition observed so far (bounded copy).
  std::vector<AlertEvent> alert_history() const;
  std::vector<ActiveAlert> active_alerts() const;
  std::uint64_t ticks() const;
  /// Cluster total of a counter (0 when unseen).
  double counter_total(std::string_view name) const;
  /// One rank's lane of a gauge/counter, or `fallback` when unseen.
  double lane(std::string_view name, std::size_t rank,
              double fallback = 0.0) const;
  /// min / median / max over the ranks heard from for a gauge.
  GaugeStats gauge_stats(std::string_view name) const;
  std::uint64_t deltas_ingested() const;
  double bytes_ingested() const;
  /// Snapshots lost in flight, detected from per-rank sequence gaps.
  std::uint64_t snapshots_lost() const;

  /// The dashboard document (what each tick writes to dashboard_path).
  std::string dashboard_json() const;

 private:
  struct RingPoint {
    double time_s = 0.0;
    double value = 0.0;
  };

  /// One rolled-up instrument (same name across all ranks).
  struct Instrument {
    std::string name;
    MetricKind kind = MetricKind::kGauge;
    /// Counters: cluster total (sum of per-rank totals).
    double total = 0.0;
    /// Per-rank lanes: counters hold the rank's running total, gauges the
    /// rank's last level. Indexed by rank; `seen` gates validity.
    std::vector<double> lanes;
    std::vector<bool> seen;
    /// Bounded rollup history: counters ring the cluster total, gauges the
    /// cluster median.
    std::deque<RingPoint> ring;
    std::uint64_t ring_evicted = 0;
    bool dirty = false;
  };

  /// Hysteresis state of one (rule, rank) cell.
  struct Cell {
    std::size_t true_ticks = 0;
    std::size_t false_ticks = 0;
    bool firing = false;
    double value = 0.0;
    double since_s = 0.0;
    double fired_s = 0.0;
  };

  // All *_locked members run under mu_.
  void ingest_locked(const TelemetryDelta& delta);
  void commit_locked(double time_s);
  std::vector<AlertEvent> evaluate_locked(double time_s);
  // The per-rank condition, or the cluster-wide one under kClusterRank.
  bool condition_locked(const AlertRule& rule, std::size_t rank,
                        double* value) const;
  const Instrument* find_locked(std::string_view name) const;
  /// Cluster total of a counter (0 when unseen).
  double total_locked(std::string_view name) const;
  static GaugeStats stats_of(const Instrument& inst);
  std::vector<ActiveAlert> active_locked() const;
  void write_dashboard_locked(std::ostream& os) const;

  Config config_;
  mutable std::mutex mu_;

  // Rollup.
  std::vector<Instrument> instruments_;
  std::map<std::string, std::size_t, std::less<>> index_;
  std::vector<std::uint64_t> last_seq_;
  std::uint64_t deltas_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t lost_ = 0;
  double bytes_ = 0.0;
  double last_time_s_ = 0.0;

  // Detector.
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

/// MH_DASHBOARD=path, or empty when unset: the one switch with which
/// bench_elastic and bench_serve arm a health plane.
std::string dashboard_path_from_env();

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
