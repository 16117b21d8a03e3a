#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace mh::obs {
namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

// Shortest-round-trip-ish number: integers print exactly, the rest with
// enough digits for a perf record. Non-finite values never reach a file.
void format_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "0";
    return;
  }
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  os << buf;
}

// "{k1="v1",k2="v2"}" with exposition-format escaping, or "" if no labels.
// `extra` appends one synthetic label (the histogram "le").
std::string prometheus_label_block(const Labels& labels,
                                   const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += prometheus_name(key);
    out += "=\"";
    out += prometheus_label_value(value);
    out += "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = std::isalpha(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':' ||
                    (i > 0 && std::isdigit(static_cast<unsigned char>(c)) != 0);
    out += ok ? c : '_';
  }
  return out.empty() ? "_" : out;
}

std::string prometheus_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void write_prometheus(std::ostream& os,
                      const std::vector<MetricsRegistry::Sample>& samples) {
  // HELP/TYPE are emitted once per metric name, on first encounter; series
  // sharing a name (different label sets) ride under the same header.
  std::vector<std::string> seen;
  for (const MetricsRegistry::Sample& s : samples) {
    const std::string name = prometheus_name(s.name);
    bool first = true;
    for (const std::string& n : seen) {
      if (n == name) {
        first = false;
        break;
      }
    }
    if (first) {
      seen.push_back(name);
      if (!s.help.empty()) {
        os << "# HELP " << name << " " << s.help << "\n";
      }
      os << "# TYPE " << name << " " << kind_name(s.kind) << "\n";
    }
    if (s.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      std::size_t last_used = 0;
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        if (s.hist.buckets[i] != 0) last_used = i;
      }
      for (std::size_t i = 0; i <= last_used && s.hist.count > 0; ++i) {
        if (s.hist.buckets[i] == 0 && cumulative == 0) continue;
        cumulative += s.hist.buckets[i];
        std::ostringstream le;
        le << "le=\"";
        format_number(le, log_bucket_upper(i));
        le << "\"";
        os << name << "_bucket"
           << prometheus_label_block(s.labels, le.str()) << " " << cumulative
           << "\n";
      }
      os << name << "_bucket"
         << prometheus_label_block(s.labels, "le=\"+Inf\"") << " "
         << s.hist.count << "\n";
      os << name << "_sum" << prometheus_label_block(s.labels) << " ";
      format_number(os, s.hist.sum);
      os << "\n";
      os << name << "_count" << prometheus_label_block(s.labels) << " "
         << s.hist.count << "\n";
      // Pre-computed tail estimate (log-bucket interpolation) as its own
      // untyped series: the exposition format reserves {quantile=...} for
      // summaries, so a sibling _p999 name keeps scrapers happy.
      os << name << "_p999" << prometheus_label_block(s.labels) << " ";
      format_number(os, s.hist.p999());
      os << "\n";
    } else {
      os << name << prometheus_label_block(s.labels) << " ";
      format_number(os, s.value);
      os << "\n";
    }
  }
}

void write_json(std::ostream& os,
                const std::vector<MetricsRegistry::Sample>& samples) {
  os << "{\"metrics\":[";
  bool first_sample = true;
  for (const MetricsRegistry::Sample& s : samples) {
    if (!first_sample) os << ",";
    first_sample = false;
    os << "\n{\"name\":";
    json::write_escaped(os, s.name);
    os << ",\"kind\":\"" << kind_name(s.kind) << "\"";
    if (!s.help.empty()) {
      os << ",\"help\":";
      json::write_escaped(os, s.help);
    }
    if (!s.labels.empty()) {
      os << ",\"labels\":{";
      bool first_label = true;
      for (const auto& [key, value] : s.labels) {
        if (!first_label) os << ",";
        first_label = false;
        json::write_escaped(os, key);
        os << ":";
        json::write_escaped(os, value);
      }
      os << "}";
    }
    if (s.kind == MetricKind::kHistogram) {
      os << ",\"count\":" << s.hist.count << ",\"sum\":";
      format_number(os, s.hist.sum);
      os << ",\"min\":";
      format_number(os, s.hist.min);
      os << ",\"max\":";
      format_number(os, s.hist.max);
      os << ",\"p999\":";
      format_number(os, s.hist.p999());
      os << ",\"buckets\":[";
      bool first_bucket = true;
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        if (s.hist.buckets[i] == 0) continue;
        if (!first_bucket) os << ",";
        first_bucket = false;
        os << "{\"le\":";
        format_number(os, log_bucket_upper(i));
        os << ",\"count\":" << s.hist.buckets[i] << "}";
      }
      os << "]";
    } else {
      os << ",\"value\":";
      format_number(os, s.value);
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string prometheus_text(const MetricsRegistry& registry) {
  std::ostringstream os;
  write_prometheus(os, registry.snapshot());
  return os.str();
}

std::string json_snapshot(const MetricsRegistry& registry) {
  std::ostringstream os;
  write_json(os, registry.snapshot());
  return os.str();
}

bool write_metrics_files(const MetricsRegistry& registry,
                         const std::string& path) {
  const auto samples = registry.snapshot();
  {
    std::ofstream os(path);
    if (!os) return false;
    write_json(os, samples);
    if (!os.good()) return false;
  }
  {
    std::ofstream os(path + ".prom");
    if (!os) return false;
    write_prometheus(os, samples);
    if (!os.good()) return false;
  }
  return true;
}

bool export_metrics_from_env(const MetricsRegistry& registry) {
  const char* path = std::getenv("MH_METRICS");
  if (path == nullptr || *path == '\0') return false;
  return write_metrics_files(registry, path);
}

}  // namespace mh::obs
