#include "split.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace mh::perf {

namespace {

/// Length of [lo, hi) covered by the union of `intervals`.
double covered(std::vector<std::pair<double, double>>& intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void SpanLog::flush(const std::vector<Parent>& parents, std::uint64_t fallback,
                    std::uint32_t track, std::vector<std::uint64_t>& task_ids) {
  for (const Entry& e : entries_) {
    auto record = [&](std::uint64_t parent, double lo, double hi) {
      if (hi <= lo) return;
      obs::Span span;
      span.name = e.name;
      span.cat = e.cat;
      span.domain = obs::ClockDomain::kWall;
      span.track = track;
      span.start_us = lo;
      span.dur_us = hi - lo;
      span.id = obs::mint_span_id();
      span.parent = parent;
      span.task = span.id;
      if (e.task < task_ids.size()) {
        if (task_ids[e.task] == 0) task_ids[e.task] = obs::mint_span_id();
        span.task = task_ids[e.task];
      }
      session_->record(span);
    };
    double cursor = e.start_us;
    for (const Parent& p : parents) {
      if (p.end_us <= cursor) continue;
      if (p.start_us >= e.end_us) break;
      record(fallback, cursor, p.start_us);
      const double lo = std::max(cursor, p.start_us);
      cursor = std::min(e.end_us, p.end_us);
      record(p.id, lo, cursor);
    }
    record(fallback, cursor, e.end_us);
  }
  entries_.clear();
}

LayerSplit split_spans(const std::vector<obs::Span>& spans, const char* root) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const obs::Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us());
  }
  LayerSplit split;
  for (const obs::Span& s : spans) {
    double self_us = s.dur_us;
    if (const auto it = children.find(s.id); it != children.end()) {
      self_us -= covered(it->second, s.start_us, s.end_us());
    }
    split.self_s[s.name] += self_us * 1e-6;
    if (std::strcmp(s.name, root) == 0) {
      split.total_s += s.dur_us * 1e-6;
    }
  }
  const double root_self = split.row(root);
  split.unattributed = split.total_s > 0.0 ? root_self / split.total_s : 1.0;
  double self_total = 0.0;
  for (const auto& [name, s] : split.self_s) self_total += s;
  split.overlap =
      split.total_s > 0.0 ? self_total / split.total_s - 1.0 : 0.0;
  return split;
}

}  // namespace mh::perf
