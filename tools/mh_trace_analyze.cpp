// mh_trace_analyze: reconstruct the causal task DAG from a Chrome trace
// written by this repo (MH_TRACE=..., single-session or merged multi-rank)
// and report the critical path with per-phase attribution, per-batch
// overlap-model comparison (measured vs max(m_frac, n_frac) vs m·n/(m+n)),
// and straggler ranking.
//
// Usage: mh_trace_analyze <trace.json> [--check]
//
//   --check   exit non-zero unless the per-phase attribution sums to the
//             makespan within 1% (the analyzer's telescoping invariant) —
//             used by CI as a self-test on the bench_breakdown trace.
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/critical_path.hpp"
#include "obs/trace_reader.hpp"

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: mh_trace_analyze <trace.json> [--check]\n";
      return 0;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::cerr << "unexpected argument: " << argv[i] << "\n";
      return 2;
    }
  }
  if (path == nullptr) {
    std::cerr << "usage: mh_trace_analyze <trace.json> [--check]\n";
    return 2;
  }

  mh::obs::ReadTrace trace;
  std::string error;
  if (!mh::obs::read_chrome_trace_file(path, &trace, &error)) {
    std::cerr << "mh_trace_analyze: " << error << "\n";
    return 2;
  }
  if (trace.dropped_spans != 0) {
    // A ring-buffer (flight recorder) session evicted spans before export:
    // the earliest history is gone, so a critical path walked over what
    // remains would attribute the makespan to the wrong phases. Loud
    // warning always; hard failure under --check.
    std::cerr << "mh_trace_analyze: WARNING: truncated trace — "
              << trace.dropped_spans
              << " spans were dropped by the recorder ring buffer\n";
    if (check) {
      std::cerr << "check FAILED: refusing to attribute a truncated trace "
                   "(re-run with an unbounded MH_TRACE)\n";
      return 1;
    }
  }
  const mh::obs::TraceAnalysis analysis = mh::obs::analyze_trace(trace);
  std::cout << "trace: " << path << "\n";
  mh::obs::write_analysis(std::cout, trace, analysis);

  if (check) {
    const double mk = analysis.makespan_us();
    const double total = analysis.critical.total_us();
    if (mk <= 0.0) {
      std::cerr << "check FAILED: empty trace\n";
      return 1;
    }
    if (std::abs(total - mk) > 0.01 * mk) {
      std::cerr << "check FAILED: attribution " << total << " us vs makespan "
                << mk << " us (off by more than 1%)\n";
      return 1;
    }
    std::cout << "\ncheck OK: attribution matches makespan within 1%\n";
  }
  return 0;
}
