#include "obs/trace_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "obs/json.hpp"

namespace mh::obs {
namespace {

// Rank label of a process name written by the merged exporter: strip the
// clock-domain suffix; the single-session export's unlabelled processes
// ("wall-clock" / "simulated-time") collapse to "rank0".
std::string rank_label(const std::string& process_name) {
  for (const std::string_view suffix : {" wall-clock", " simulated-time"}) {
    if (process_name.size() > suffix.size() &&
        process_name.ends_with(suffix)) {
      return process_name.substr(0, process_name.size() - suffix.size());
    }
  }
  if (process_name == "wall-clock" || process_name == "simulated-time") {
    return "rank0";
  }
  return process_name;
}

bool in_analyzed_domain(const ReadTrace& t, const TraceAnalysis& a, int pid) {
  return t.pid_is_sim(pid) == a.sim_domain;
}

std::string pid_rank(const ReadTrace& t, int pid) {
  const auto it = t.process_names.find(pid);
  return it == t.process_names.end() ? "rank0" : rank_label(it->second);
}

struct SideTotals {
  double us = 0.0;
  std::uint64_t count = 0;
};

// Merge two name->totals maps into ranked DiffEntry rows.
std::vector<DiffEntry> align(const std::map<std::string, SideTotals>& base,
                             const std::map<std::string, SideTotals>& cur) {
  std::map<std::string, DiffEntry> merged;
  for (const auto& [name, t] : base) {
    DiffEntry& e = merged[name];
    e.name = name;
    e.base_us = t.us;
    e.base_count = t.count;
  }
  for (const auto& [name, t] : cur) {
    DiffEntry& e = merged[name];
    e.name = name;
    e.cur_us = t.us;
    e.cur_count = t.count;
  }
  std::vector<DiffEntry> out;
  out.reserve(merged.size());
  for (auto& [name, e] : merged) out.push_back(std::move(e));
  std::stable_sort(out.begin(), out.end(),
                   [](const DiffEntry& a, const DiffEntry& b) {
                     return std::abs(a.delta_us()) > std::abs(b.delta_us());
                   });
  return out;
}

// (category, rank) time composition of a critical path, normalized to 1.
std::map<std::string, double> path_composition(const ReadTrace& t,
                                               const TraceAnalysis& a) {
  std::map<std::string, double> comp;
  double total = 0.0;
  for (const CriticalStep& step : a.path) {
    if (step.span_index >= t.spans.size()) continue;
    const ReadSpan& s = t.spans[step.span_index];
    comp[std::string(category_name(s.category)) + "|" +
         pid_rank(t, s.pid)] += step.portion_us;
    total += step.portion_us;
  }
  if (total > 0.0) {
    for (auto& [key, us] : comp) us /= total;
  }
  return comp;
}

std::string fmt_us(double us) {
  char buf[48];
  const double a = std::abs(us);
  if (a >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3f s", us / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2f ms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f us", us);
  }
  return buf;
}

std::string fmt_delta(double us) {
  std::string s = fmt_us(us);
  if (us >= 0.0) s.insert(s.begin(), '+');
  return s;
}

// Share of the makespan delta one row explains, as a signed percentage
// string; empty when the makespan barely moved.
std::string fmt_share(double delta_us, double mk_delta_us) {
  if (std::abs(mk_delta_us) < 1e-9) return "";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * delta_us / mk_delta_us);
  return buf;
}

void json_entries(std::ostream& os, const char* key,
                  const std::vector<DiffEntry>& entries, bool counts) {
  os << "\"" << key << "\":[";
  bool first = true;
  for (const DiffEntry& e : entries) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\":";
    json::write_escaped(os, e.name);
    os << ",\"base_us\":";
    json::write_number(os, e.base_us);
    os << ",\"current_us\":";
    json::write_number(os, e.cur_us);
    os << ",\"delta_us\":";
    json::write_number(os, e.delta_us());
    if (counts) {
      os << ",\"base_count\":" << e.base_count
         << ",\"current_count\":" << e.cur_count;
    }
    os << "}";
  }
  os << "\n  ]";
}

}  // namespace

TraceDiff diff_traces(const ReadTrace& base, const ReadTrace& cur) {
  TraceDiff d;
  d.base = analyze_trace(base);
  d.cur = analyze_trace(cur);
  d.base_dropped = base.dropped_spans;
  d.cur_dropped = cur.dropped_spans;

  // 1. Phases: entry-wise difference of the two telescoping critical-path
  // attributions — the deltas sum to the makespan delta by construction.
  {
    std::map<std::string, SideTotals> b, c;
    for (std::size_t i = 0; i < kCategoryCount; ++i) {
      const char* name = category_name(static_cast<Category>(i));
      if (d.base.critical.category_us[i] != 0.0) {
        b[name] = {d.base.critical.category_us[i], 0};
      }
      if (d.cur.critical.category_us[i] != 0.0) {
        c[name] = {d.cur.critical.category_us[i], 0};
      }
    }
    b["wait"] = {d.base.critical.wait_us, 0};
    c["wait"] = {d.cur.critical.wait_us, 0};
    d.phases = align(b, c);
  }

  // 2. compute / wait / comm rollup.
  {
    std::map<std::string, SideTotals> b, c;
    auto roll = [](const Attribution& attr,
                   std::map<std::string, SideTotals>& out) {
      double compute = 0.0;
      for (std::size_t i = 0; i < kCategoryCount; ++i) {
        if (static_cast<Category>(i) == Category::kComm) continue;
        compute += attr.category_us[i];
      }
      out["compute"] = {compute, 0};
      out["wait"] = {attr.wait_us, 0};
      out["comm"] = {attr[Category::kComm], 0};
    };
    roll(d.base.critical, b);
    roll(d.cur.critical, c);
    d.groups = align(b, c);
  }

  // 3. Ranks: finish (since origin) and span totals per process, analyzed
  // domain only. base_us/cur_us carry the finish; counts the span counts.
  {
    std::map<std::string, SideTotals> b, c;
    auto per_rank = [](const ReadTrace& t, const TraceAnalysis& a,
                       std::map<std::string, SideTotals>& out) {
      for (const ReadSpan& s : t.spans) {
        if (!in_analyzed_domain(t, a, s.pid)) continue;
        SideTotals& r = out[pid_rank(t, s.pid)];
        r.us = std::max(r.us, s.end_us() - a.origin_us);
        ++r.count;
      }
    };
    per_rank(base, d.base, b);
    per_rank(cur, d.cur, c);
    d.ranks = align(b, c);
  }

  // 4. Task classes: total busy time per span name, analyzed domain only.
  {
    std::map<std::string, SideTotals> b, c;
    auto per_class = [](const ReadTrace& t, const TraceAnalysis& a,
                        std::map<std::string, SideTotals>& out) {
      for (const ReadSpan& s : t.spans) {
        if (!in_analyzed_domain(t, a, s.pid)) continue;
        SideTotals& cl = out[s.name];
        cl.us += s.dur_us;
        ++cl.count;
      }
    };
    per_class(base, d.base, b);
    per_class(cur, d.cur, c);
    d.classes = align(b, c);
  }

  // 5. Re-route detection: overlap of the (category, rank) compositions.
  {
    const auto bc = path_composition(base, d.base);
    const auto cc = path_composition(cur, d.cur);
    double l1 = 0.0;
    for (const auto& [key, p] : bc) {
      const auto it = cc.find(key);
      l1 += std::abs(p - (it == cc.end() ? 0.0 : it->second));
    }
    for (const auto& [key, p] : cc) {
      if (bc.find(key) == bc.end()) l1 += p;
    }
    d.path_similarity = std::max(0.0, 1.0 - 0.5 * l1);
    d.rerouted = d.path_similarity < 0.5;
  }

  const double mk_delta = d.makespan_delta_us();
  if (std::abs(mk_delta) > 1e-9) {
    double attributed = 0.0;
    for (const DiffEntry& e : d.phases) attributed += e.delta_us();
    d.attributed_fraction = std::abs(attributed) / std::abs(mk_delta);
  }
  return d;
}

void write_diff(std::ostream& os, const TraceDiff& d) {
  const double mk_delta = d.makespan_delta_us();
  char line[256];
  os << "domain: "
     << (d.base.sim_domain ? "simulated-time" : "wall-clock")
     << (d.base.sim_domain == d.cur.sim_domain ? "" : "  (MIXED — unreliable)")
     << "\n";
  os << "makespan: " << fmt_us(d.base.makespan_us()) << " -> "
     << fmt_us(d.cur.makespan_us()) << "  (" << fmt_delta(mk_delta);
  if (d.base.makespan_us() > 0.0) {
    std::snprintf(line, sizeof line, ", %+.1f%%",
                  100.0 * mk_delta / d.base.makespan_us());
    os << line;
  }
  os << ")\n";
  if (d.base_dropped != 0 || d.cur_dropped != 0) {
    os << "WARNING: truncated input (dropped spans: baseline "
       << d.base_dropped << ", current " << d.cur_dropped
       << ") — attribution may blame the wrong phase\n";
  }

  os << "\ncritical-path attribution of the delta (sums to the makespan "
        "delta):\n";
  std::snprintf(line, sizeof line, "  %-12s %14s %14s %14s %8s\n", "phase",
                "baseline", "current", "delta", "share");
  os << line;
  for (const DiffEntry& e : d.phases) {
    std::snprintf(line, sizeof line, "  %-12s %14s %14s %14s %8s\n",
                  e.name.c_str(), fmt_us(e.base_us).c_str(),
                  fmt_us(e.cur_us).c_str(), fmt_delta(e.delta_us()).c_str(),
                  fmt_share(e.delta_us(), mk_delta).c_str());
    os << line;
  }

  os << "rollup:";
  for (std::size_t i = 0; i < d.groups.size(); ++i) {
    const DiffEntry& e = d.groups[i];
    os << (i == 0 ? " " : ",  ") << e.name << " "
       << fmt_delta(e.delta_us()) << " "
       << fmt_share(e.delta_us(), mk_delta);
  }
  os << "\n";

  std::snprintf(line, sizeof line,
                "critical path: similarity %.2f — %s\n", d.path_similarity,
                d.rerouted ? "RE-ROUTED (the bottleneck moved)"
                           : "same route (the bottleneck stretched)");
  os << line;

  if (d.ranks.size() > 1 || (!d.ranks.empty() && d.ranks[0].name != "rank0")) {
    os << "\nranks (by |finish delta|):\n";
    for (const DiffEntry& e : d.ranks) {
      std::snprintf(line, sizeof line, "  %-12s finish %12s -> %12s  (%s)\n",
                    e.name.c_str(), fmt_us(e.base_us).c_str(),
                    fmt_us(e.cur_us).c_str(),
                    fmt_delta(e.delta_us()).c_str());
      os << line;
    }
  }

  os << "\ntask classes (by |busy delta|, analyzed domain):\n";
  const std::size_t nclasses = std::min<std::size_t>(d.classes.size(), 12);
  for (std::size_t i = 0; i < nclasses; ++i) {
    const DiffEntry& e = d.classes[i];
    std::snprintf(line, sizeof line,
                  "  %-24s %12s -> %12s  (%s, %llu -> %llu spans)\n",
                  e.name.c_str(), fmt_us(e.base_us).c_str(),
                  fmt_us(e.cur_us).c_str(), fmt_delta(e.delta_us()).c_str(),
                  static_cast<unsigned long long>(e.base_count),
                  static_cast<unsigned long long>(e.cur_count));
    os << line;
  }
  if (d.classes.size() > nclasses) {
    os << "  ... " << d.classes.size() - nclasses << " more\n";
  }
}

void write_diff_json(std::ostream& os, const TraceDiff& d) {
  os << "{\n  \"baseline_makespan_us\":";
  json::write_number(os, d.base.makespan_us());
  os << ",\n  \"current_makespan_us\":";
  json::write_number(os, d.cur.makespan_us());
  os << ",\n  \"delta_us\":";
  json::write_number(os, d.makespan_delta_us());
  os << ",\n  \"sim_domain\":" << (d.base.sim_domain ? "true" : "false");
  os << ",\n  \"dropped_spans\":{\"baseline\":" << d.base_dropped
     << ",\"current\":" << d.cur_dropped << "}";
  os << ",\n  \"path_similarity\":";
  json::write_number(os, d.path_similarity);
  os << ",\n  \"rerouted\":" << (d.rerouted ? "true" : "false");
  os << ",\n  \"attributed_fraction\":";
  json::write_number(os, d.attributed_fraction);
  os << ",\n  ";
  json_entries(os, "phases", d.phases, false);
  os << ",\n  ";
  json_entries(os, "groups", d.groups, false);
  os << ",\n  ";
  json_entries(os, "ranks", d.ranks, true);
  os << ",\n  ";
  json_entries(os, "classes", d.classes, true);
  os << "\n}\n";
}

void write_diff_markdown(std::ostream& os, const TraceDiff& d,
                         std::string_view title) {
  const double mk_delta = d.makespan_delta_us();
  os << "\n### Regression attribution: " << title << "\n\n";
  os << "Makespan " << fmt_us(d.base.makespan_us()) << " → "
     << fmt_us(d.cur.makespan_us()) << " (**" << fmt_delta(mk_delta)
     << "**); critical path "
     << (d.rerouted ? "**re-routed** (the bottleneck moved)"
                    : "kept its route")
     << ", similarity " << d.path_similarity << ".\n\n";
  if (d.base_dropped != 0 || d.cur_dropped != 0) {
    os << "> ⚠ truncated input (dropped spans: baseline " << d.base_dropped
       << ", current " << d.cur_dropped << ")\n\n";
  }
  os << "| phase | baseline | current | delta | share of delta |\n";
  os << "|---|---:|---:|---:|---:|\n";
  for (const DiffEntry& e : d.phases) {
    os << "| " << e.name << " | " << fmt_us(e.base_us) << " | "
       << fmt_us(e.cur_us) << " | " << fmt_delta(e.delta_us()) << " | "
       << fmt_share(e.delta_us(), mk_delta) << " |\n";
  }
  os << "\n";
  if (!d.classes.empty()) {
    os << "Top task classes by busy delta: ";
    const std::size_t n = std::min<std::size_t>(d.classes.size(), 3);
    for (std::size_t i = 0; i < n; ++i) {
      os << (i == 0 ? "" : ", ") << "`" << d.classes[i].name << "` "
         << fmt_delta(d.classes[i].delta_us());
    }
    os << ".\n";
  }
}

}  // namespace mh::obs
