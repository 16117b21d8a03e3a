// Scenario telemetry: delta-encoded per-rank snapshots on the simulated
// clock, shipped to the health plane's rollup.
//
// The observability layers so far (tracing, metrics export, flight
// recorder) are post-mortem — files dumped at exit. Irregular computations
// misbehave *at runtime*: stragglers, queue blow-ups and rank deaths are
// only actionable while the run is live. This header is the transport half
// of the live health plane (health.hpp holds the rollup, the detector and
// the dashboard):
//
//   ScenarioTelemetry — per-rank delta encoder: scenarios set current
//                       per-rank values on the simulated clock and it
//                       emits only what changed (counters as increments,
//                       gauges as levels).
//
// Deltas are plain structs that hop between ranks at simulated time: the
// churn, cluster and serve scenarios publish them and tick a HealthPlane
// on the simulated clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace mh::obs {

/// One changed instrument inside a delta-encoded snapshot.
struct TelemetryUpdate {
  std::string name;
  /// kCounter or kGauge.
  MetricKind kind = MetricKind::kGauge;
  /// Counter increment since the rank's previous publish.
  double delta = 0.0;
  /// Gauge level at publish time.
  double value = 0.0;
};

/// What one rank ships per telemetry tick. Empty `updates` never ships —
/// that is the delta encoding's idle cost: zero.
struct TelemetryDelta {
  std::size_t rank = 0;
  /// Per-rank publish sequence number (1-based); the plane counts skips
  /// as lost snapshots.
  std::uint64_t seq = 0;
  double time_s = 0.0;
  std::vector<TelemetryUpdate> updates;

  /// Deterministic wire-size model, reported by bench_telemetry.
  double encoded_bytes() const;
};

/// Delta encoder for the simulated scenarios (the clustersim steal and
/// churn loops, the serving layer): the scenario sets current per-rank
/// levels / running totals, and collect() ships one delta per rank that
/// changed. Sequence numbers count shipped deltas only, so an idle rank
/// (nothing changed, nothing shipped) is not mistaken for a loss.
class ScenarioTelemetry {
 public:
  explicit ScenarioTelemetry(std::size_t ranks)
      : ranks_(ranks), state_(ranks) {}

  std::size_t ranks() const { return ranks_; }

  /// Current level of a per-rank gauge.
  void gauge(std::size_t rank, std::string_view name, double value);
  /// Current running total of a per-rank counter (shipped as an increment).
  void counter(std::size_t rank, std::string_view name, double total);

  /// Deltas for every rank with changes since the previous collect, in
  /// rank order. Ranks with nothing new ship nothing.
  std::vector<TelemetryDelta> collect(double time_s);

 private:
  struct Cell {
    MetricKind kind = MetricKind::kGauge;
    double current = 0.0;
    double published = 0.0;
    bool ever_published = false;
  };
  struct Rank {
    std::map<std::string, Cell> cells;
    std::uint64_t seq = 0;
  };

  void set(std::size_t rank, std::string_view name, MetricKind kind,
           double value);

  std::size_t ranks_ = 0;
  std::vector<Rank> state_;
};

}  // namespace mh::obs
