#include "obs/telemetry.hpp"

namespace mh::obs {

namespace {

// Wire-size model: a small fixed header per snapshot, then name + one f64
// per update. Deterministic, so benches can gate shipped bytes.
constexpr double kDeltaHeaderBytes = 24.0;
constexpr double kUpdateFixedBytes = 10.0;

}  // namespace

double TelemetryDelta::encoded_bytes() const {
  double bytes = kDeltaHeaderBytes;
  for (const TelemetryUpdate& u : updates) {
    bytes += kUpdateFixedBytes + static_cast<double>(u.name.size());
  }
  return bytes;
}

void ScenarioTelemetry::set(std::size_t rank, std::string_view name,
                            MetricKind kind, double value) {
  if (rank >= ranks_) return;
  Cell& c = state_[rank].cells[std::string(name)];
  c.kind = kind;
  c.current = value;
}

void ScenarioTelemetry::gauge(std::size_t rank, std::string_view name,
                              double value) {
  set(rank, name, MetricKind::kGauge, value);
}

void ScenarioTelemetry::counter(std::size_t rank, std::string_view name,
                                double total) {
  set(rank, name, MetricKind::kCounter, total);
}

std::vector<TelemetryDelta> ScenarioTelemetry::collect(double time_s) {
  std::vector<TelemetryDelta> out;
  for (std::size_t r = 0; r < ranks_; ++r) {
    TelemetryDelta d;
    d.rank = r;
    d.time_s = time_s;
    for (auto& [name, c] : state_[r].cells) {
      if (c.current == c.published && c.ever_published) continue;
      TelemetryUpdate u;
      u.name = name;
      u.kind = c.kind;
      if (c.kind == MetricKind::kCounter) {
        u.delta = c.current - c.published;
      } else {
        u.value = c.current;
      }
      c.published = c.current;
      c.ever_published = true;
      d.updates.push_back(std::move(u));
    }
    if (d.updates.empty()) continue;
    d.seq = ++state_[r].seq;
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace mh::obs
