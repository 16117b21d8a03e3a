#include "obs/health.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mh::obs {

namespace {

bool is_per_rank(AlertRule::Kind kind) {
  switch (kind) {
    case AlertRule::Kind::kStraggler:
    case AlertRule::Kind::kRankDead:
    case AlertRule::Kind::kSloBurn:
      return true;
    case AlertRule::Kind::kReplicationLow:
    case AlertRule::Kind::kStealThrash:
      return false;
  }
  return false;
}

// Span names and arg keys must be string literals (Span does not own
// them), so alert spans are named by rule kind, not by the configurable
// rule name.
const char* alert_span_name(AlertRule::Kind kind) {
  switch (kind) {
    case AlertRule::Kind::kStraggler: return "alert:straggler";
    case AlertRule::Kind::kRankDead: return "alert:rank_dead";
    case AlertRule::Kind::kReplicationLow: return "alert:replication_low";
    case AlertRule::Kind::kStealThrash: return "alert:steal_thrash";
    case AlertRule::Kind::kSloBurn: return "alert:slo_burn";
  }
  return "alert";
}

double rank_as_number(std::size_t rank) {
  return rank == kClusterRank ? -1.0 : static_cast<double>(rank);
}

}  // namespace

std::vector<AlertRule> default_rules(double replication) {
  return {
      {AlertRule::Kind::kStraggler, "straggler", "mh_rank_queue_depth", "",
       4.0, 2, 2},
      {AlertRule::Kind::kRankDead, "rank_dead", "mh_rank_alive", "", 0.5, 1,
       1},
      {AlertRule::Kind::kReplicationLow, "replication_low",
       "mh_replication_min_copies", "", replication, 1, 1},
      {AlertRule::Kind::kStealThrash, "steal_thrash", "mh_steal_denials",
       "mh_steal_requests", 0.8, 2, 2},
  };
}

std::string_view alert_state_name(AlertState state) noexcept {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "inactive";
}

HealthPlane::HealthPlane(Config config)
    : config_(std::move(config)), last_seq_(config_.ranks, 0) {
  if (config_.rules.empty()) config_.rules = default_rules();
}

const HealthPlane::Instrument* HealthPlane::find_locked(
    std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &instruments_[it->second];
}

HealthPlane::GaugeStats HealthPlane::stats_of(const Instrument& inst) {
  GaugeStats out;
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

void HealthPlane::ingest_locked(const TelemetryDelta& delta) {
  if (delta.rank >= config_.ranks) return;
  if (delta.seq > 0) {
    if (delta.seq > last_seq_[delta.rank] + 1) {
      lost_ += delta.seq - last_seq_[delta.rank] - 1;
    }
    last_seq_[delta.rank] = std::max(last_seq_[delta.rank], delta.seq);
  }
  for (const TelemetryUpdate& u : delta.updates) {
    auto it = index_.find(u.name);
    if (it == index_.end()) {
      Instrument inst;
      inst.name = u.name;
      inst.kind = u.kind;
      inst.lanes.assign(config_.ranks, 0.0);
      inst.seen.assign(config_.ranks, false);
      it = index_.emplace(u.name, instruments_.size()).first;
      instruments_.push_back(std::move(inst));
    }
    Instrument& inst = instruments_[it->second];
    if (inst.kind != u.kind) continue;  // conflicting kinds never merge
    if (u.kind == MetricKind::kCounter) {
      inst.lanes[delta.rank] += u.delta;
      inst.total += u.delta;
    } else {
      inst.lanes[delta.rank] = u.value;
    }
    inst.seen[delta.rank] = true;
    inst.dirty = true;
    ++updates_;
  }
  ++deltas_;
  bytes_ += delta.encoded_bytes();
  last_time_s_ = std::max(last_time_s_, delta.time_s);
}

void HealthPlane::commit_locked(double time_s) {
  for (Instrument& inst : instruments_) {
    if (!inst.dirty) continue;
    inst.dirty = false;
    const double value = inst.kind == MetricKind::kCounter
                             ? inst.total
                             : stats_of(inst).median;
    inst.ring.push_back({time_s, value});
    while (inst.ring.size() > kRingCapacity) {
      inst.ring.pop_front();
      ++inst.ring_evicted;
    }
  }
  last_time_s_ = std::max(last_time_s_, time_s);
}

double HealthPlane::total_locked(std::string_view name) const {
  const Instrument* inst = find_locked(name);
  return inst != nullptr ? inst->total : 0.0;
}

bool HealthPlane::condition_locked(const AlertRule& rule, std::size_t rank,
                                   double* value) const {
  // Per-rank rules read the rank's lane of their instrument.
  const Instrument* inst = find_locked(rule.instrument);
  const bool has_lane =
      inst != nullptr && rank < inst->seen.size() && inst->seen[rank];
  *value = has_lane ? inst->lanes[rank] : 0.0;
  switch (rule.kind) {
    case AlertRule::Kind::kStraggler:
      // Depth relative to the cluster median; the max(median, 1) floor
      // keeps a fully drained cluster from flagging the last worker.
      return has_lane &&
             *value >= rule.threshold * std::max(stats_of(*inst).median, 1.0);
    case AlertRule::Kind::kRankDead:
      return has_lane && *value < rule.threshold;
    case AlertRule::Kind::kReplicationLow: {
      const GaugeStats stats = inst != nullptr ? stats_of(*inst) : GaugeStats{};
      if (stats.lanes == 0) return false;
      *value = stats.min;
      return *value < rule.threshold;
    }
    case AlertRule::Kind::kSloBurn:
      // A per-tenant gauge lane at or above the threshold.
      return has_lane && *value >= rule.threshold;
    case AlertRule::Kind::kStealThrash: {
      const auto it = prev_totals_.find(rule.name);
      const auto [prev_denied, prev_requested] =
          it != prev_totals_.end() ? it->second : std::pair{0.0, 0.0};
      const double denied = total_locked(rule.instrument) - prev_denied;
      const double requested = total_locked(rule.instrument_b) - prev_requested;
      if (requested < kStealThrashMinRequests) return false;
      *value = denied / requested;
      return *value >= rule.threshold;
    }
  }
  return false;
}

std::vector<AlertEvent> HealthPlane::evaluate_locked(double time_s) {
  ++ticks_;
  std::vector<AlertEvent> out;
  const auto emit = [&](const AlertRule& rule, AlertState state,
                        std::size_t rank, const Cell& cell) {
    AlertEvent ev;
    ev.rule = rule.name;
    ev.state = state;
    ev.rank = rank;
    ev.value = cell.value;
    ev.threshold = rule.threshold;
    ev.time_s = time_s;
    ev.tick = ticks_;
    out.push_back(ev);
    if (history_.size() >= kHistoryCapacity) {
      history_.erase(history_.begin());
      ++events_dropped_;
    }
    history_.push_back(out.back());
    if (config_.registry != nullptr) {
      config_.registry
          ->counter(state == AlertState::kFiring ? "mh_alert_fired_total"
                                                 : "mh_alert_resolved_total",
                    "health-plane alert transitions", {{"rule", rule.name}})
          .inc();
    }
  };

  for (std::size_t ri = 0; ri < config_.rules.size(); ++ri) {
    const AlertRule& rule = config_.rules[ri];
    // Per-rank rules scan every rank; cluster rules run one cell.
    const bool per_rank = is_per_rank(rule.kind);
    const std::size_t cells = per_rank ? config_.ranks : 1;
    for (std::size_t i = 0; i < cells; ++i) {
      const std::size_t rank = per_rank ? i : kClusterRank;
      double value = 0.0;
      const bool cond = condition_locked(rule, rank, &value);
      Cell& cell = cells_[{ri, rank}];
      cell.value = value;
      if (cond) {
        if (cell.true_ticks == 0) cell.since_s = time_s;
        ++cell.true_ticks;
        cell.false_ticks = 0;
        if (!cell.firing &&
            cell.true_ticks >= std::max<std::size_t>(rule.for_ticks, 1)) {
          cell.firing = true;
          cell.fired_s = time_s;
          emit(rule, AlertState::kFiring, rank, cell);
        }
      } else {
        cell.true_ticks = 0;
        if (cell.firing) {
          ++cell.false_ticks;
          if (cell.false_ticks >=
              std::max<std::size_t>(rule.resolve_ticks, 1)) {
            cell.firing = false;
            cell.false_ticks = 0;
            emit(rule, AlertState::kResolved, rank, cell);
            if (config_.trace != nullptr) {
              if (alert_track_ == 0) {
                alert_track_ = config_.trace->track(ClockDomain::kSim,
                                                    "health/alerts");
              }
              config_.trace->record_sim(
                  alert_track_, alert_span_name(rule.kind), Category::kOther,
                  SimTime::seconds(cell.fired_s), SimTime::seconds(time_s),
                  {{"rank", rank_as_number(rank)}, {"value", value}});
            }
          }
        }
      }
    }
    // Rate rules diff against the previous tick: refresh the baseline
    // after the evaluation so the cell saw the whole window.
    if (rule.kind == AlertRule::Kind::kStealThrash) {
      prev_totals_[rule.name] = {total_locked(rule.instrument),
                                 total_locked(rule.instrument_b)};
    }
  }

  if (config_.registry != nullptr) {
    double firing = 0.0;
    for (const auto& [key, cell] : cells_) {
      if (cell.firing) firing += 1.0;
    }
    config_.registry->gauge("mh_alert_active", "alert cells currently firing")
        .set(firing);
  }
  return out;
}

std::vector<AlertEvent> HealthPlane::tick(
    const std::vector<TelemetryDelta>& deltas, double time_s) {
  std::scoped_lock lock(mu_);
  for (const TelemetryDelta& d : deltas) ingest_locked(d);
  commit_locked(time_s);
  auto events = evaluate_locked(time_s);
  if (!config_.dashboard_path.empty()) {
    std::ofstream os(config_.dashboard_path);
    if (os) write_dashboard_locked(os);
  }
  return events;
}

std::vector<AlertEvent> HealthPlane::alert_history() const {
  std::scoped_lock lock(mu_);
  return history_;
}

std::vector<HealthPlane::ActiveAlert> HealthPlane::active_alerts() const {
  std::scoped_lock lock(mu_);
  return active_locked();
}

std::vector<HealthPlane::ActiveAlert> HealthPlane::active_locked() const {
  std::vector<ActiveAlert> out;
  for (const auto& [key, cell] : cells_) {
    if (!cell.firing && cell.true_ticks == 0) continue;
    ActiveAlert a;
    a.rule = config_.rules[key.first].name;
    a.rank = key.second;
    a.state = cell.firing ? AlertState::kFiring : AlertState::kPending;
    a.value = cell.value;
    a.threshold = config_.rules[key.first].threshold;
    a.since_s = cell.since_s;
    out.push_back(std::move(a));
  }
  return out;
}

std::uint64_t HealthPlane::ticks() const {
  std::scoped_lock lock(mu_);
  return ticks_;
}

double HealthPlane::counter_total(std::string_view name) const {
  std::scoped_lock lock(mu_);
  return total_locked(name);
}

double HealthPlane::lane(std::string_view name, std::size_t rank,
                         double fallback) const {
  std::scoped_lock lock(mu_);
  const Instrument* inst = find_locked(name);
  if (inst == nullptr || rank >= inst->lanes.size() || !inst->seen[rank]) {
    return fallback;
  }
  return inst->lanes[rank];
}

HealthPlane::GaugeStats HealthPlane::gauge_stats(std::string_view name) const {
  std::scoped_lock lock(mu_);
  const Instrument* inst = find_locked(name);
  return inst != nullptr ? stats_of(*inst) : GaugeStats{};
}

std::uint64_t HealthPlane::deltas_ingested() const {
  std::scoped_lock lock(mu_);
  return deltas_;
}

double HealthPlane::bytes_ingested() const {
  std::scoped_lock lock(mu_);
  return bytes_;
}

std::uint64_t HealthPlane::snapshots_lost() const {
  std::scoped_lock lock(mu_);
  return lost_;
}

void HealthPlane::write_dashboard_locked(std::ostream& os) const {
  os << "{\n  \"schema\": \"mh_dashboard_v1\",\n";
  os << "  \"time_s\": " << last_time_s_ << ",\n";
  os << "  \"ticks\": " << ticks_ << ",\n";
  os << "  \"ranks\": " << config_.ranks << ",\n";
  os << "  \"ring_capacity\": " << kRingCapacity << ",\n";
  os << "  \"deltas_ingested\": " << deltas_ << ",\n";
  os << "  \"updates_ingested\": " << updates_ << ",\n";
  os << "  \"bytes_ingested\": " << bytes_ << ",\n";
  os << "  \"snapshots_lost\": " << lost_ << ",\n";

  os << "  \"alerts\": {\n    \"active\": [";
  bool first = true;
  for (const auto& a : active_locked()) {
    os << (first ? "" : ", ") << "{\"rule\": ";
    json::write_escaped(os, a.rule);
    os << ", \"rank\": " << rank_as_number(a.rank) << ", \"state\": ";
    json::write_escaped(os, alert_state_name(a.state));
    os << ", \"value\": " << a.value << ", \"threshold\": " << a.threshold
       << ", \"since_s\": " << a.since_s << "}";
    first = false;
  }
  os << "],\n    \"history\": [";
  first = true;
  for (const AlertEvent& ev : history_) {
    os << (first ? "" : ", ") << "{\"rule\": ";
    json::write_escaped(os, ev.rule);
    os << ", \"state\": ";
    json::write_escaped(os, alert_state_name(ev.state));
    os << ", \"rank\": " << rank_as_number(ev.rank)
       << ", \"value\": " << ev.value << ", \"threshold\": " << ev.threshold
       << ", \"time_s\": " << ev.time_s << ", \"tick\": " << ev.tick << "}";
    first = false;
  }
  os << "],\n    \"dropped\": " << events_dropped_ << "\n  },\n";

  os << "  \"instruments\": [";
  first = true;
  for (const Instrument& inst : instruments_) {
    const bool counter = inst.kind == MetricKind::kCounter;
    os << (first ? "\n    " : ",\n    ") << "{\"name\": ";
    json::write_escaped(os, inst.name);
    os << ", \"kind\": ";
    json::write_escaped(os, counter ? "counter" : "gauge");
    if (counter) os << ", \"total\": " << inst.total;
    os << ", \"lanes\": [";
    for (std::size_t r = 0; r < inst.lanes.size(); ++r) {
      os << (r == 0 ? "" : ", ");
      if (inst.seen[r]) {
        os << inst.lanes[r];
      } else {
        os << "null";
      }
    }
    os << "]";
    if (!counter) {
      const GaugeStats stats = stats_of(inst);
      os << ", \"min\": " << stats.min << ", \"median\": " << stats.median
         << ", \"max\": " << stats.max;
    }
    os << ", \"ring\": [";
    bool rfirst = true;
    for (const RingPoint& point : inst.ring) {
      os << (rfirst ? "" : ", ") << "[" << point.time_s << ", " << point.value
         << "]";
      rfirst = false;
    }
    os << "], \"ring_evicted\": " << inst.ring_evicted << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

std::string HealthPlane::dashboard_json() const {
  std::scoped_lock lock(mu_);
  std::ostringstream os;
  write_dashboard_locked(os);
  return os.str();
}

std::string dashboard_path_from_env() {
  const char* path = std::getenv("MH_DASHBOARD");
  return path != nullptr ? std::string(path) : std::string();
}

DashboardCheck check_dashboard_text(const std::string& text) {
  DashboardCheck out;
  json::JsonValue root;
  std::string error;
  if (!json::parse(text, &root, &error)) {
    out.problems.push_back("parse error: " + error);
    return out;
  }
  if (root.kind != json::JsonValue::Kind::kObject) {
    out.problems.push_back("top-level value is not an object");
    return out;
  }
  if (root.text("schema") != "mh_dashboard_v1") {
    out.problems.push_back("missing or unknown schema marker");
  }
  out.time_s = root.num("time_s");
  const auto whole = [&](std::string_view key, std::uint64_t max) {
    std::uint64_t v = 0;
    if (!root.whole(key, max, &v)) {
      out.problems.push_back(std::string(key) +
                             ": not a whole number in [0, " +
                             std::to_string(max) + "]");
    }
    return v;
  };
  out.ticks = whole("ticks", std::numeric_limits<std::uint64_t>::max());
  out.ranks = whole("ranks", std::numeric_limits<std::size_t>::max());
  const std::size_t ring_capacity =
      whole("ring_capacity", std::numeric_limits<std::size_t>::max());
  if (out.ranks == 0) out.problems.push_back("ranks must be >= 1");
  if (ring_capacity == 0) {
    out.problems.push_back("ring_capacity must be >= 1");
  }

  const json::JsonValue* instruments = root.find("instruments");
  if (instruments == nullptr ||
      instruments->kind != json::JsonValue::Kind::kArray) {
    out.problems.push_back("missing instruments array");
  } else {
    out.instruments = instruments->array.size();
    for (const json::JsonValue& inst : instruments->array) {
      const std::string name(inst.text("name"));
      if (name.empty()) {
        out.problems.push_back("instrument with empty name");
        continue;
      }
      const json::JsonValue* lanes = inst.find("lanes");
      if (lanes != nullptr && lanes->kind == json::JsonValue::Kind::kArray &&
          lanes->array.size() != out.ranks) {
        out.problems.push_back(name + ": lanes length " +
                               std::to_string(lanes->array.size()) +
                               " != ranks " + std::to_string(out.ranks));
      }
      const json::JsonValue* ring = inst.find("ring");
      if (ring != nullptr && ring->kind == json::JsonValue::Kind::kArray &&
          ring_capacity > 0 && ring->array.size() > ring_capacity) {
        out.problems.push_back(name + ": ring overflows capacity");
      }
    }
  }

  const json::JsonValue* alerts = root.find("alerts");
  if (alerts == nullptr || alerts->kind != json::JsonValue::Kind::kObject) {
    out.problems.push_back("missing alerts object");
  } else {
    const json::JsonValue* active = alerts->find("active");
    if (active != nullptr &&
        active->kind == json::JsonValue::Kind::kArray) {
      for (const json::JsonValue& a : active->array) {
        const std::string_view state = a.text("state");
        if (state == "firing") ++out.firing;
        if (state != "firing" && state != "pending") {
          out.problems.push_back("active alert with state '" +
                                 std::string(state) + "'");
        }
      }
    }
    const json::JsonValue* history = alerts->find("history");
    if (history != nullptr &&
        history->kind == json::JsonValue::Kind::kArray) {
      out.history = history->array.size();
      const bool truncated = alerts->num("dropped", 0.0) > 0.0;
      // A resolve must follow a fire for the same (rule, rank) cell —
      // unless the bounded history dropped the front.
      std::set<std::pair<std::string, double>> firing_cells;
      for (const json::JsonValue& ev : history->array) {
        const std::string rule(ev.text("rule"));
        const double rank = ev.num("rank", -2.0);
        const std::string_view state = ev.text("state");
        if (state == "firing") {
          firing_cells.insert({rule, rank});
        } else if (state == "resolved") {
          if (firing_cells.count({rule, rank}) == 0 && !truncated) {
            out.problems.push_back("history: resolve without fire for " +
                                   rule);
          }
          firing_cells.erase({rule, rank});
        } else {
          out.problems.push_back("history event with state '" +
                                 std::string(state) + "'");
        }
      }
    }
  }

  out.ok = out.problems.empty();
  return out;
}

}  // namespace mh::obs
