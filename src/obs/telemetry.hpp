// In-band cluster telemetry: delta-encoded metrics snapshots, shipped from
// every rank to an aggregator, rolled up exactly.
//
// The observability layers so far (tracing, metrics export, flight
// recorder) are post-mortem — files dumped at exit. Irregular computations
// misbehave *at runtime*: stragglers, queue blow-ups, breaker trips and
// rank deaths are only actionable while the run is live. This header is
// the transport + state half of the live health plane (health.hpp holds
// the detector/alert half):
//
//   ScenarioTelemetry   — per-rank delta encoder: scenarios set current
//                         per-rank values on the simulated clock and it
//                         emits only what changed (counters as increments,
//                         gauges as levels, histograms as bucket-wise
//                         increments).
//   TelemetryAggregator — aggregator-rank state: an exact cluster rollup
//                         (counters sum across ranks; gauges keep per-rank
//                         lanes plus min/median/max; histograms merge
//                         bucket-wise, lossless because every rank shares
//                         the log-bucket geometry) and a bounded
//                         per-instrument time-series ring for dashboards.
//
// Deltas are plain structs that hop between ranks at simulated time: the
// churn, cluster and serve scenarios publish them and tick a HealthPlane
// on the simulated clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace mh::obs {

/// One changed instrument inside a delta-encoded snapshot.
struct TelemetryUpdate {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kGauge;
  /// Counter increment since the rank's previous publish.
  double delta = 0.0;
  /// Gauge level at publish time.
  double value = 0.0;
  /// Histogram increment: count/sum/buckets are since the previous publish;
  /// min/max are the source instrument's cumulative extrema (monotone over
  /// an instrument's lifetime, so the latest value is exact).
  HistogramSnapshot hist;
};

/// What one rank ships per telemetry tick. Empty `updates` never ships —
/// that is the delta encoding's idle cost: zero.
struct TelemetryDelta {
  std::size_t rank = 0;
  /// Per-rank publish sequence number (1-based); the aggregator counts
  /// skips as lost snapshots.
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
  /// Current cumulative snapshot of a per-rank histogram.
  void histogram(std::size_t rank, std::string_view name,
                 const HistogramSnapshot& cumulative);

  /// Deltas for every rank with changes since the previous collect, in
  /// rank order. Ranks with nothing new ship nothing.
  std::vector<TelemetryDelta> collect(double time_s);

 private:
  struct Cell {
    MetricKind kind = MetricKind::kGauge;
    double current = 0.0;
    double published = 0.0;
    bool ever_published = false;
    HistogramSnapshot hist_current;
    HistogramSnapshot hist_published;
  };
  struct Rank {
    std::map<std::string, Cell> cells;
    std::uint64_t seq = 0;
  };

  std::size_t ranks_ = 0;
  std::vector<Rank> state_;
};

/// Aggregator-rank state: exact cluster rollup + bounded history rings.
class TelemetryAggregator {
 public:
  struct Config {
    std::size_t ranks = 1;
    /// Points kept per instrument ring; older points are evicted (and
    /// counted) so aggregator memory is bounded regardless of run length.
    std::size_t ring_capacity = 128;
  };

  struct RingPoint {
    double time_s = 0.0;
    double value = 0.0;
  };

  /// One rolled-up instrument (same (name, labels) across all ranks).
  struct Instrument {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kGauge;
    /// Counters: cluster total (sum of per-rank totals). Gauges: unused
    /// (see lanes). Histograms: merged count.
    double total = 0.0;
    /// Per-rank lanes: counters hold the rank's running total, gauges the
    /// rank's last level. Indexed by rank; `seen` gates validity.
    std::vector<double> lanes;
    std::vector<bool> seen;
    /// Per-rank cumulative histograms; merged() folds them losslessly.
    std::vector<HistogramSnapshot> lane_hists;
    /// Bounded rollup history: counters ring the cluster total, gauges the
    /// cluster median, histograms the merged count.
    std::deque<RingPoint> ring;
    std::uint64_t ring_evicted = 0;
    bool dirty = false;

    /// Lossless bucket-wise merge across rank lanes.
    HistogramSnapshot merged() const;
  };

  struct GaugeStats {
    double min = 0.0;
    double median = 0.0;
    double max = 0.0;
    std::size_t lanes = 0;  ///< ranks heard from
  };

  explicit TelemetryAggregator(Config config)
      : config_(config), last_seq_(config.ranks, 0) {}

  const Config& config() const { return config_; }

  /// Fold one rank's delta into the rollup.
  void ingest(const TelemetryDelta& delta);

  /// Append one ring point per instrument touched since the last commit.
  /// Called once per detector tick so rings advance on tick time, not on
  /// per-rank arrival time.
  void commit(double time_s);

  const Instrument* find(std::string_view name,
                         const Labels& labels = {}) const;
  std::vector<const Instrument*> instruments() const;

  /// Cluster total of a counter (0 when unseen).
  double counter_total(std::string_view name) const;
  /// One rank's lane of a gauge/counter, or `fallback` when unseen.
  double lane(std::string_view name, std::size_t rank,
              double fallback = 0.0) const;
  /// min / median / max over the ranks heard from for a gauge.
  GaugeStats gauge_stats(std::string_view name) const;

  std::size_t ranks() const { return config_.ranks; }
  std::uint64_t deltas_ingested() const { return deltas_; }
  std::uint64_t updates_ingested() const { return updates_; }
  double bytes_ingested() const { return bytes_; }
  /// Snapshots lost in flight, detected from per-rank sequence gaps.
  std::uint64_t snapshots_lost() const { return lost_; }
  double last_time_s() const { return last_time_s_; }

 private:
  Instrument& find_or_create(const std::string& name, const Labels& labels,
                             MetricKind kind);
  static std::string key_of(std::string_view name, const Labels& labels);

  Config config_;
  std::vector<Instrument> instruments_;
  std::map<std::string, std::size_t> index_;
  std::vector<std::uint64_t> last_seq_;
  std::uint64_t deltas_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t lost_ = 0;
  double bytes_ = 0.0;
  double last_time_s_ = 0.0;
};

}  // namespace mh::obs
