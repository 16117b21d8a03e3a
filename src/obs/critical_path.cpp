#include "obs/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace mh::obs {
namespace {

// Union-find over span indices, for counting weakly-connected components of
// the causal DAG.
struct DisjointSet {
  explicit DisjointSet(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
  std::vector<std::size_t> parent;
};

// Per-(pid,tid) resource ordering: spans sorted by start with a running
// argmax of end, so "latest span on this track starting before F" is a
// binary search.
struct TrackOrder {
  std::vector<std::size_t> by_start;   // span indices, ascending start
  std::vector<std::size_t> best_end;   // argmax end over by_start[0..i]
};

std::uint64_t track_key(int pid, int tid) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pid)) << 32) |
         static_cast<std::uint32_t>(tid);
}

}  // namespace

TraceAnalysis analyze_trace(const ReadTrace& trace) {
  TraceAnalysis out;

  // Prefer the deterministic simulated-time domain when it has spans.
  bool any_sim = false;
  for (const ReadSpan& s : trace.spans) {
    if (trace.pid_is_sim(s.pid)) {
      any_sim = true;
      break;
    }
  }
  out.sim_domain = any_sim;

  std::vector<std::size_t> live;  // analyzed span indices
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    if (!any_sim || trace.pid_is_sim(trace.spans[i].pid)) live.push_back(i);
  }
  if (live.empty()) return out;

  const auto& spans = trace.spans;
  double origin = spans[live[0]].start_us;
  double end = spans[live[0]].end_us();
  std::size_t last = live[0];
  for (const std::size_t i : live) {
    origin = std::min(origin, spans[i].start_us);
    if (spans[i].end_us() > end) {
      end = spans[i].end_us();
      last = i;
    }
  }
  out.origin_us = origin;
  out.end_us = end;

  // --- index causal identity ----------------------------------------------
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_task;
  for (const std::size_t i : live) {
    if (spans[i].id != 0) by_id.emplace(spans[i].id, i);
  }
  for (const std::size_t i : live) {
    if (spans[i].task != 0) by_task[spans[i].task].push_back(i);
  }
  out.causal_spans = by_id.size();

  // In-edges per span index: parent links + explicit flow edges.
  std::unordered_map<std::size_t, std::vector<std::size_t>> preds;
  auto link = [&](std::uint64_t from_id, std::size_t to_idx) {
    const auto it = by_id.find(from_id);
    if (it != by_id.end() && it->second != to_idx) {
      preds[to_idx].push_back(it->second);
    }
  };
  for (const std::size_t i : live) {
    if (spans[i].parent != 0) link(spans[i].parent, i);
  }
  for (const auto& [from, to] : trace.edges()) {
    const auto it = by_id.find(to);
    if (it != by_id.end()) link(from, it->second);
  }

  // --- connected components of the causal DAG -----------------------------
  {
    DisjointSet ds(spans.size());
    for (const auto& [to_idx, froms] : preds) {
      for (const std::size_t f : froms) ds.unite(f, to_idx);
    }
    for (const auto& [task, members] : by_task) {
      for (std::size_t j = 1; j < members.size(); ++j) {
        ds.unite(members[0], members[j]);
      }
    }
    std::vector<std::size_t> roots;
    for (const std::size_t i : live) {
      if (spans[i].id == 0 && spans[i].task == 0) continue;
      roots.push_back(ds.find(i));
    }
    std::sort(roots.begin(), roots.end());
    out.connected_components = static_cast<std::size_t>(
        std::unique(roots.begin(), roots.end()) - roots.begin());
  }

  // --- per-track resource order -------------------------------------------
  std::unordered_map<std::uint64_t, TrackOrder> tracks;
  for (const std::size_t i : live) {
    tracks[track_key(spans[i].pid, spans[i].tid)].by_start.push_back(i);
  }
  for (auto& [key, t] : tracks) {
    std::sort(t.by_start.begin(), t.by_start.end(),
              [&](std::size_t a, std::size_t b) {
                return spans[a].start_us < spans[b].start_us;
              });
    t.best_end.resize(t.by_start.size());
    for (std::size_t i = 0; i < t.by_start.size(); ++i) {
      t.best_end[i] = t.by_start[i];
      if (i > 0 &&
          spans[t.best_end[i - 1]].end_us() > spans[t.by_start[i]].end_us()) {
        t.best_end[i] = t.best_end[i - 1];
      }
    }
  }

  // --- critical path: backward frontier walk ------------------------------
  // Invariant: everything in [F, end] is already attributed. Each iteration
  // attributes the current span's slice [seg_lo, min(F, span.end)) to its
  // category, moves F to seg_lo, then hops to the best predecessor —
  // charging any gap between the predecessor's end and F to queue-wait. F
  // strictly decreases, so the attribution telescopes to end - origin.
  const double eps = 1e-9;
  double frontier = end;
  std::size_t cur = last;
  const std::size_t step_limit = 4 * spans.size() + 16;
  for (std::size_t steps = 0; steps < step_limit; ++steps) {
    const ReadSpan& s = spans[cur];
    const double seg_hi = std::min(frontier, s.end_us());
    const double seg_lo = std::min(s.start_us, seg_hi);
    if (seg_hi - seg_lo > 0.0) {
      out.critical.category_us[static_cast<std::size_t>(s.category)] +=
          seg_hi - seg_lo;
      out.path.push_back({cur, seg_hi - seg_lo});
    }
    frontier = seg_lo;
    if (frontier <= origin + eps) break;

    // Best predecessor: causal in-edges plus the latest same-track span
    // starting before the frontier (resource dependency). Max end wins —
    // it is the one that kept the frontier from moving earlier.
    std::size_t best = spans.size();
    const auto consider = [&](std::size_t idx) {
      if (idx == cur || spans[idx].start_us >= frontier) return;
      if (best == spans.size() || spans[idx].end_us() > spans[best].end_us()) {
        best = idx;
      }
    };
    const auto pit = preds.find(cur);
    if (pit != preds.end()) {
      for (const std::size_t idx : pit->second) consider(idx);
    }
    const auto& order = tracks[track_key(s.pid, s.tid)];
    {
      // Last position with start < frontier.
      std::size_t lo = 0, hi = order.by_start.size();
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (spans[order.by_start[mid]].start_us < frontier) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo > 0) consider(order.best_end[lo - 1]);
    }
    if (best == spans.size()) {
      // No predecessor: the remaining lead time is unexplained idle.
      out.critical.wait_us += frontier - origin;
      frontier = origin;
      break;
    }
    if (spans[best].end_us() < frontier) {
      out.critical.wait_us += frontier - spans[best].end_us();
      frontier = spans[best].end_us();
    }
    cur = best;
  }
  if (frontier > origin + eps) {
    // Step-limit safety valve: close the books so totals still telescope.
    out.critical.wait_us += frontier - origin;
  }

  // --- overlap model per hybrid batch -------------------------------------
  // Probe markers (clustersim): zero-length "probe" spans carrying the
  // measured full-batch CPU-only (m_us) and GPU-only (n_us) times, one per
  // node track.
  std::map<std::uint64_t, const ReadSpan*> probes;  // track key -> probe
  for (const std::size_t i : live) {
    if (spans[i].name == "probe" && spans[i].has_arg("m_us") &&
        spans[i].has_arg("n_us")) {
      probes[track_key(spans[i].pid, spans[i].tid)] = &spans[i];
    }
  }
  for (const auto& [task, members] : by_task) {
    const ReadSpan* cpu = nullptr;
    double cpu_us = 0.0;
    double lo = 0.0, hi = 0.0, glo = 0.0, ghi = 0.0;
    // The overlap window: the extent of the compute work itself — CPU
    // compute running in parallel with the GPU transfer+kernel chain. The
    // serial preprocess/dispatch/postprocess phases around it are real time
    // (they stay in measured_us) but the model's m and n do not include
    // them, so the efficiency denominator must not either.
    double wlo = 0.0, whi = 0.0;
    bool any = false, any_gpu = false, any_win = false;
    for (const std::size_t i : members) {
      const ReadSpan& s = spans[i];
      if (!any || s.start_us < lo) lo = s.start_us;
      if (!any || s.end_us() > hi) hi = s.end_us();
      any = true;
      const bool gpu_compute = s.category == Category::kTransfer ||
                               s.category == Category::kGpuKernel;
      if (s.category == Category::kCpuCompute) {
        cpu_us += s.dur_us;
        if (cpu == nullptr || s.has_arg("items")) cpu = &s;
      } else if (!gpu_compute) {
        continue;  // pre/dispatch/post: full extent only
      }
      if (gpu_compute) {
        if (!any_gpu || s.start_us < glo) glo = s.start_us;
        if (!any_gpu || s.end_us() > ghi) ghi = s.end_us();
        any_gpu = true;
      }
      if (!any_win || s.start_us < wlo) wlo = s.start_us;
      if (!any_win || s.end_us() > whi) whi = s.end_us();
      any_win = true;
    }
    if (cpu == nullptr || !any_gpu || !cpu->has_arg("items")) continue;
    BatchOverlap b;
    b.task = task;
    b.items = cpu->arg("items");
    b.ncpu = cpu->arg("ncpu");
    const double ngpu = b.items - b.ncpu;
    if (b.items <= 0.0 || b.ncpu <= 0.0 || ngpu <= 0.0) continue;
    b.measured_us = hi - lo;
    b.overlap_us = whi - wlo;
    b.cpu_us = cpu_us;
    b.gpu_us = ghi - glo;
    const auto pit = probes.find(track_key(cpu->pid, cpu->tid));
    if (pit != probes.end()) {
      // Model m/n from the probe, scaled per item to this batch's size.
      const double pitems = std::max(pit->second->arg("items"), 1.0);
      b.m_us = pit->second->arg("m_us") * b.items / pitems;
      b.n_us = pit->second->arg("n_us") * b.items / pitems;
    } else {
      // Fall back to scaling the measured sides.
      b.m_us = cpu_us * b.items / b.ncpu;
      b.n_us = b.gpu_us * b.items / ngpu;
    }
    if (b.m_us <= 0.0 || b.n_us <= 0.0 || b.measured_us <= 0.0 ||
        b.overlap_us <= 0.0) {
      continue;
    }
    b.split = b.ncpu / b.items;
    b.kstar = b.n_us / (b.m_us + b.n_us);
    b.bound_us =
        std::max(b.m_us * b.split, b.n_us * (1.0 - b.split));
    b.ideal_us = b.m_us * b.n_us / (b.m_us + b.n_us);
    b.efficiency = b.ideal_us / b.overlap_us;
    out.batches.push_back(b);
  }
  std::sort(out.batches.begin(), out.batches.end(),
            [](const BatchOverlap& a, const BatchOverlap& b) {
              return a.task < b.task;
            });
  double witems = 0.0, weff = 0.0, wres = 0.0, wabs = 0.0;
  for (const BatchOverlap& b : out.batches) {
    witems += b.items;
    weff += b.efficiency * b.items;
    wres += (b.split - b.kstar) * b.items;
    wabs += std::abs(b.split - b.kstar) * b.items;
  }
  if (witems > 0.0) {
    out.overlap_efficiency = weff / witems;
    out.split_residual = wres / witems;
    out.split_residual_abs = wabs / witems;
  }

  // --- stragglers ---------------------------------------------------------
  std::map<std::uint64_t, TrackFinish> finish;
  for (const std::size_t i : live) {
    const ReadSpan& s = spans[i];
    TrackFinish& f = finish[track_key(s.pid, s.tid)];
    if (f.name.empty()) {
      const auto pn = trace.process_names.find(s.pid);
      const auto tn = trace.thread_names.find({s.pid, s.tid});
      f.name = (pn != trace.process_names.end() ? pn->second
                                                : std::to_string(s.pid)) +
               " / " +
               (tn != trace.thread_names.end() ? tn->second
                                               : std::to_string(s.tid));
    }
    f.finish_us = std::max(f.finish_us, s.end_us());
    f.busy_us += s.dur_us;
  }
  for (auto& [key, f] : finish) out.stragglers.push_back(std::move(f));
  std::sort(out.stragglers.begin(), out.stragglers.end(),
            [](const TrackFinish& a, const TrackFinish& b) {
              return a.finish_us > b.finish_us;
            });
  return out;
}

void write_analysis(std::ostream& os, const ReadTrace& trace,
                    const TraceAnalysis& a) {
  char line[256];
  const double mk = a.makespan_us();
  std::snprintf(line, sizeof line,
                "domain: %s   spans: %zu (%zu causal, %zu DAG components)\n",
                a.sim_domain ? "simulated-time" : "wall-clock",
                trace.spans.size(), a.causal_spans, a.connected_components);
  os << line;
  std::snprintf(line, sizeof line, "makespan: %.1f us  [%.1f, %.1f]\n", mk,
                a.origin_us, a.end_us);
  os << line;

  os << "\ncritical-path attribution (sums to makespan):\n";
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const double us = a.critical.category_us[i];
    if (us <= 0.0) continue;
    std::snprintf(line, sizeof line, "  %-12s %12.1f us  %5.1f%%\n",
                  category_name(static_cast<Category>(i)), us,
                  mk > 0.0 ? 100.0 * us / mk : 0.0);
    os << line;
  }
  std::snprintf(line, sizeof line, "  %-12s %12.1f us  %5.1f%%\n", "wait",
                a.critical.wait_us,
                mk > 0.0 ? 100.0 * a.critical.wait_us / mk : 0.0);
  os << line;
  std::snprintf(line, sizeof line, "  %-12s %12.1f us  (%zu path steps)\n",
                "total", a.critical.total_us(), a.path.size());
  os << line;

  if (!a.batches.empty()) {
    os << "\noverlap model (hybrid batches):\n";
    std::snprintf(line, sizeof line,
                  "  batches: %zu   overlap efficiency: %.3f   "
                  "split residual: %+.4f (|.|: %.4f)\n",
                  a.batches.size(), a.overlap_efficiency, a.split_residual,
                  a.split_residual_abs);
    os << line;
    const std::size_t show = std::min<std::size_t>(a.batches.size(), 8);
    os << "  task         items  ncpu  measured_us  overlap_us   ideal_us"
          "  bound_us   eff      k     k*\n";
    for (std::size_t i = 0; i < show; ++i) {
      const BatchOverlap& b = a.batches[i];
      std::snprintf(line, sizeof line,
                    "  %-11llu %5.0f %5.0f %12.1f %11.1f %10.1f %9.1f "
                    "%5.2f  %.3f  %.3f\n",
                    static_cast<unsigned long long>(b.task), b.items, b.ncpu,
                    b.measured_us, b.overlap_us, b.ideal_us, b.bound_us,
                    b.efficiency, b.split, b.kstar);
      os << line;
    }
    if (a.batches.size() > show) {
      std::snprintf(line, sizeof line, "  ... %zu more\n",
                    a.batches.size() - show);
      os << line;
    }
  }

  if (!a.stragglers.empty()) {
    os << "\nstragglers (latest-finishing tracks):\n";
    const std::size_t show = std::min<std::size_t>(a.stragglers.size(), 6);
    for (std::size_t i = 0; i < show; ++i) {
      const TrackFinish& f = a.stragglers[i];
      std::snprintf(line, sizeof line,
                    "  %-44s finish %12.1f us  busy %12.1f us\n",
                    f.name.c_str(), f.finish_us, f.busy_us);
      os << line;
    }
  }
}

}  // namespace mh::obs
