// Spans of the traced pass and the layer split derived from them.
//
// Per-task layer calls are far too many and too short for a span object
// each: the traced pass logs their boundaries (one clock read between two
// consecutive calls) into an in-memory SpanLog per thread and turns them
// into obs spans once the pass is over, so recording costs nothing inside
// the timed interval. Coarse calls use obs::ScopedSpan directly.
//
// A span's self time is its duration minus the part of its interval that
// its child spans (parent link) cover. Summing self time per span name
// gives one row per layer call site; the root span's own self time is what
// no layer row explains, reported as split.unattributed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace mh::perf {

/// Span categories, one per layer whose public calls the benchmark times.
inline constexpr obs::Category kOpsLayer = obs::Category::kPreprocess;
inline constexpr obs::Category kLinalgLayer = obs::Category::kCpuCompute;
inline constexpr obs::Category kMraLayer = obs::Category::kPostprocess;
inline constexpr obs::Category kRuntimeLayer = obs::Category::kBatchFlush;
inline constexpr obs::Category kWorldLayer = obs::Category::kComm;
inline constexpr obs::Category kRootSpan = obs::Category::kOther;

inline constexpr std::size_t kNoTask = std::numeric_limits<std::size_t>::max();

/// Spans logged by one thread during the traced pass.
class SpanLog {
 public:
  explicit SpanLog(obs::TraceSession& session) : session_(&session) {}

  double now_us() const noexcept { return session_->now_us(); }

  /// Log [start_us, end_us) of call `name`, made for Apply task `task`
  /// (an index into the operation's task list, or kNoTask).
  void add(const char* name, obs::Category cat, double start_us,
           double end_us, std::size_t task) {
    entries_.push_back({name, cat, start_us, end_us, task});
  }

  /// A span logged spans may nest in.
  struct Parent {
    std::uint64_t id;
    double start_us;
    double end_us;
  };

  /// Record every logged span into the session on track `track`. A span is
  /// cut at the edges of `parents` (disjoint, sorted by start): each piece
  /// inside one of them becomes its child, each piece outside all of them a
  /// child of `fallback`. Spans of one task share its id from `task_ids`
  /// (minted on first use; sized to the task count).
  void flush(const std::vector<Parent>& parents, std::uint64_t fallback,
             std::uint32_t track, std::vector<std::uint64_t>& task_ids);

 private:
  struct Entry {
    const char* name;
    obs::Category cat;
    double start_us;
    double end_us;
    std::size_t task;
  };
  obs::TraceSession* session_;
  std::vector<Entry> entries_;
};

/// Consecutive layer calls of one task sharing their boundaries: created
/// right before the first call, end() right after each call. A null log
/// makes every operation a no-op.
class TaskPhases {
 public:
  TaskPhases(SpanLog* log, std::size_t task)
      : log_(log), task_(task), last_us_(log ? log->now_us() : 0.0) {}

  void end(const char* name, obs::Category cat) {
    if (log_ == nullptr) return;
    const double t = log_->now_us();
    log_->add(name, cat, last_us_, t, task_);
    last_us_ = t;
  }

 private:
  SpanLog* log_;
  std::size_t task_;
  double last_us_;
};

struct LayerSplit {
  std::map<std::string, double> self_s;  ///< self seconds per span name
  double total_s = 0.0;                  ///< duration of the root span
  double unattributed = 0.0;             ///< root self time / total_s
  /// Sum of all self times / total_s - 1: the share by which spans of
  /// threads running at once (coulomb_hybrid's workers) count twice.
  double overlap = 0.0;

  double row(const std::string& name) const {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  }
};

/// Split the spans of one traced operation. `root` names the single span
/// that brackets the whole operation; every other span counts toward its
/// own name's row (spans on worker threads included).
LayerSplit split_spans(const std::vector<obs::Span>& spans, const char* root);

}  // namespace mh::perf
