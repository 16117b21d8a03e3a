#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>

namespace mh::obs {

namespace {

// Wire-size model: a small fixed header per snapshot, name + labels + one
// f64 per update, and only the non-zero buckets of a histogram increment
// (index varint + u64 count ≈ 12 bytes). Deterministic, so benches can
// gate shipped bytes.
constexpr double kDeltaHeaderBytes = 24.0;
constexpr double kUpdateFixedBytes = 10.0;
constexpr double kHistFixedBytes = 16.0;
constexpr double kHistBucketBytes = 12.0;

TelemetryAggregator::GaugeStats lane_stats(
    const TelemetryAggregator::Instrument& inst) {
  TelemetryAggregator::GaugeStats out;
  std::vector<double> values;
  for (std::size_t r = 0; r < inst.lanes.size(); ++r) {
    if (inst.seen[r]) values.push_back(inst.lanes[r]);
  }
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.lanes = values.size();
  out.min = values.front();
  out.max = values.back();
  const std::size_t mid = values.size() / 2;
  out.median = values.size() % 2 == 1
                   ? values[mid]
                   : 0.5 * (values[mid - 1] + values[mid]);
  return out;
}

}  // namespace

double TelemetryDelta::encoded_bytes() const {
  double bytes = kDeltaHeaderBytes;
  for (const TelemetryUpdate& u : updates) {
    bytes += kUpdateFixedBytes + static_cast<double>(u.name.size());
    for (const auto& [k, v] : u.labels) {
      bytes += 2.0 + static_cast<double>(k.size() + v.size());
    }
    if (u.kind == MetricKind::kHistogram) {
      bytes += kHistFixedBytes;
      for (const std::uint64_t b : u.hist.buckets) {
        if (b != 0) bytes += kHistBucketBytes;
      }
    }
  }
  return bytes;
}

void ScenarioTelemetry::gauge(std::size_t rank, std::string_view name,
                              double value) {
  if (rank >= ranks_) return;
  Cell& c = state_[rank].cells[std::string(name)];
  c.kind = MetricKind::kGauge;
  c.current = value;
}

void ScenarioTelemetry::counter(std::size_t rank, std::string_view name,
                                double total) {
  if (rank >= ranks_) return;
  Cell& c = state_[rank].cells[std::string(name)];
  c.kind = MetricKind::kCounter;
  c.current = total;
}

void ScenarioTelemetry::histogram(std::size_t rank, std::string_view name,
                                  const HistogramSnapshot& cumulative) {
  if (rank >= ranks_) return;
  Cell& c = state_[rank].cells[std::string(name)];
  c.kind = MetricKind::kHistogram;
  c.hist_current = cumulative;
}

std::vector<TelemetryDelta> ScenarioTelemetry::collect(double time_s) {
  std::vector<TelemetryDelta> out;
  for (std::size_t r = 0; r < ranks_; ++r) {
    TelemetryDelta d;
    d.rank = r;
    d.time_s = time_s;
    for (auto& [name, c] : state_[r].cells) {
      TelemetryUpdate u;
      u.name = name;
      u.kind = c.kind;
      switch (c.kind) {
        case MetricKind::kCounter: {
          const double inc = c.current - c.published;
          if (inc == 0.0 && c.ever_published) continue;
          u.delta = inc;
          break;
        }
        case MetricKind::kGauge: {
          if (c.current == c.published && c.ever_published) continue;
          u.value = c.current;
          break;
        }
        case MetricKind::kHistogram: {
          if (c.hist_current.count == c.hist_published.count &&
              c.ever_published) {
            continue;
          }
          u.hist.count = c.hist_current.count - c.hist_published.count;
          u.hist.sum = c.hist_current.sum - c.hist_published.sum;
          u.hist.min = c.hist_current.min;
          u.hist.max = c.hist_current.max;
          for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
            u.hist.buckets[i] =
                c.hist_current.buckets[i] - c.hist_published.buckets[i];
          }
          break;
        }
      }
      c.published = c.current;
      c.hist_published = c.hist_current;
      c.ever_published = true;
      d.updates.push_back(std::move(u));
    }
    if (d.updates.empty()) continue;
    d.seq = ++state_[r].seq;
    out.push_back(std::move(d));
  }
  return out;
}

HistogramSnapshot TelemetryAggregator::Instrument::merged() const {
  HistogramSnapshot out;
  for (const HistogramSnapshot& lane : lane_hists) {
    out = merge(out, lane);
  }
  return out;
}

std::string TelemetryAggregator::key_of(std::string_view name,
                                        const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

TelemetryAggregator::Instrument& TelemetryAggregator::find_or_create(
    const std::string& name, const Labels& labels, MetricKind kind) {
  const std::string key = key_of(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) return instruments_[it->second];
  Instrument inst;
  inst.name = name;
  inst.labels = labels;
  inst.kind = kind;
  inst.lanes.assign(config_.ranks, 0.0);
  inst.seen.assign(config_.ranks, false);
  if (kind == MetricKind::kHistogram) {
    inst.lane_hists.assign(config_.ranks, HistogramSnapshot{});
  }
  index_[key] = instruments_.size();
  instruments_.push_back(std::move(inst));
  return instruments_.back();
}

void TelemetryAggregator::ingest(const TelemetryDelta& delta) {
  if (delta.rank >= config_.ranks) return;
  if (delta.seq > 0) {
    if (delta.seq > last_seq_[delta.rank] + 1) {
      lost_ += delta.seq - last_seq_[delta.rank] - 1;
    }
    last_seq_[delta.rank] = std::max(last_seq_[delta.rank], delta.seq);
  }
  for (const TelemetryUpdate& u : delta.updates) {
    Instrument& inst = find_or_create(u.name, u.labels, u.kind);
    if (inst.kind != u.kind) continue;  // conflicting kinds never merge
    switch (u.kind) {
      case MetricKind::kCounter:
        inst.lanes[delta.rank] += u.delta;
        inst.total += u.delta;
        break;
      case MetricKind::kGauge:
        inst.lanes[delta.rank] = u.value;
        break;
      case MetricKind::kHistogram: {
        HistogramSnapshot& lane = inst.lane_hists[delta.rank];
        lane.sum += u.hist.sum;
        lane.count += u.hist.count;
        // Cumulative extrema: min only ever decreases, max only ever
        // increases at the source, so the latest shipped value is exact.
        lane.min = u.hist.min;
        lane.max = u.hist.max;
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
          lane.buckets[i] += u.hist.buckets[i];
        }
        inst.total += static_cast<double>(u.hist.count);
        break;
      }
    }
    inst.seen[delta.rank] = true;
    inst.dirty = true;
    ++updates_;
  }
  ++deltas_;
  bytes_ += delta.encoded_bytes();
  last_time_s_ = std::max(last_time_s_, delta.time_s);
}

void TelemetryAggregator::commit(double time_s) {
  for (Instrument& inst : instruments_) {
    if (!inst.dirty) continue;
    inst.dirty = false;
    double value = 0.0;
    switch (inst.kind) {
      case MetricKind::kCounter:
      case MetricKind::kHistogram:
        value = inst.total;
        break;
      case MetricKind::kGauge:
        value = lane_stats(inst).median;
        break;
    }
    inst.ring.push_back({time_s, value});
    while (inst.ring.size() > config_.ring_capacity) {
      inst.ring.pop_front();
      ++inst.ring_evicted;
    }
  }
  last_time_s_ = std::max(last_time_s_, time_s);
}

const TelemetryAggregator::Instrument* TelemetryAggregator::find(
    std::string_view name, const Labels& labels) const {
  const auto it = index_.find(key_of(name, labels));
  return it == index_.end() ? nullptr : &instruments_[it->second];
}

std::vector<const TelemetryAggregator::Instrument*>
TelemetryAggregator::instruments() const {
  std::vector<const Instrument*> out;
  out.reserve(instruments_.size());
  for (const Instrument& inst : instruments_) out.push_back(&inst);
  return out;
}

double TelemetryAggregator::counter_total(std::string_view name) const {
  const Instrument* inst = find(name);
  return inst != nullptr ? inst->total : 0.0;
}

double TelemetryAggregator::lane(std::string_view name, std::size_t rank,
                                 double fallback) const {
  const Instrument* inst = find(name);
  if (inst == nullptr || rank >= inst->lanes.size() || !inst->seen[rank]) {
    return fallback;
  }
  return inst->lanes[rank];
}

TelemetryAggregator::GaugeStats TelemetryAggregator::gauge_stats(
    std::string_view name) const {
  const Instrument* inst = find(name);
  return inst != nullptr ? lane_stats(*inst) : GaugeStats{};
}

}  // namespace mh::obs
