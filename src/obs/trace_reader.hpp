// Read back Chrome trace_event JSON written by obs/trace.cpp (single-session
// or merged multi-rank), rebuilding the pieces the critical-path analyzer
// needs: duration spans with their causal identity (mh_id / mh_parent /
// mh_task args), flow events ("s"/"f" pairs carrying mh_from / mh_to), and
// the process/thread name metadata that maps pids back to ranks and clock
// domains. The parser is a small hand-rolled JSON DOM — the repo carries no
// JSON dependency — strict enough to reject malformed files with a useful
// error instead of mis-parsing them.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace mh::obs {

/// One "X" (complete) event read back from a trace file.
struct ReadSpan {
  std::string name;
  std::string cat;  ///< full cat field, e.g. "gpu-kernel,cluster"
  Category category = Category::kOther;  ///< parsed first cat component
  int pid = 0;
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  /// Causal identity (0 = absent): see obs/trace.hpp.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t task = 0;
  std::vector<std::pair<std::string, double>> args;

  double end_us() const noexcept { return start_us + dur_us; }
  bool has_arg(std::string_view key) const;
  double arg(std::string_view key, double fallback = 0.0) const;
};

/// One flow event ("s" start or "f" finish).
struct ReadFlow {
  bool start = false;  ///< true for ph:"s", false for ph:"f"
  std::uint64_t flow_id = 0;
  std::uint64_t from = 0;  ///< producer span id (mh_from arg)
  std::uint64_t to = 0;    ///< consumer span id (mh_to arg)
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
};

/// Everything read from one trace file.
struct ReadTrace {
  std::vector<ReadSpan> spans;
  std::vector<ReadFlow> flows;
  std::map<int, std::string> process_names;                 ///< pid -> name
  std::map<std::pair<int, int>, std::string> thread_names;  ///< (pid,tid)
  /// Spans evicted by ring-buffer (flight recorder) sessions before export,
  /// summed over ranks ("mh_dropped_spans" metadata). Non-zero means the
  /// trace is truncated and critical-path attribution is unreliable.
  std::uint64_t dropped_spans = 0;

  /// Causal edges (producer span id -> consumer span id), one per flow
  /// start event.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges() const;

  /// True when the pid's process name marks it as simulated-time.
  bool pid_is_sim(int pid) const;
};

/// Parse a Chrome trace. Returns false and fills `error` (if non-null) on
/// malformed JSON, a missing traceEvents array, or a pid/tid, id or
/// dropped-span count that is not a whole number in range.
bool read_chrome_trace(std::istream& is, ReadTrace* out,
                       std::string* error = nullptr);
bool read_chrome_trace_file(const std::string& path, ReadTrace* out,
                            std::string* error = nullptr);

}  // namespace mh::obs
