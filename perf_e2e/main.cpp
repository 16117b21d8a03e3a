// End-to-end wall-clock benchmark of the real Apply path.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Closed loop, one client: the workload is set up, then operations run one
// at a time for --seconds seconds, each bracketed by the frozen reference
// kernel (refkernel.hpp), run on as many threads as the operation keeps
// busy, so that apply_rel = operation time / neighbouring reference time
// cancels host speed. A timed set-up sample follows every operation, right
// after a one-thread reference run. setup_s is the median of the samples in
// nominal seconds: each sample is scaled by the reference run before it to
// a host on which that kernel runs at kNominalRefFlops. Raw wall seconds
// (apply_s, setup_wall_s) drift with the host's speed from run to run, so
// they are reported with the per-layer metrics. Every operation is checked
// against the serial full-rank reference. With --trace 1 a separate traced
// pass follows and the per-layer metrics are printed instead of the
// end-to-end ones; set MH_TRACE=<path> to also write that pass as a Chrome
// trace.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/batch_gemm.hpp"
#include "obs/trace.hpp"
#include "refkernel.hpp"
#include "workloads.hpp"

namespace {

using namespace mh;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;
constexpr std::size_t kMinOps = 3;
constexpr double kMaxUnattributed = 0.01;
/// The reference kernel's rate on the nominal host setup_s is expressed on.
constexpr double kNominalRefFlops = 2e9;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      args.trace = value == "1" ? 1 : 0;
      have_trace = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

double seconds_since(Clock::time_point t0) {
  const std::chrono::duration<double> dt = Clock::now() - t0;
  return dt.count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Reference-kernel sweeps per run, fixed per tensor shape so that one run
/// takes a few percent of the operation it brackets.
std::size_t ref_sweeps(std::size_t d) { return d == 3 ? 90 : 20; }

/// The reference kernel on several threads at once, one kernel each. An
/// operation that keeps n threads busy is held against the speed of n
/// cores, which the host can change independently of one core's.
class RefGang {
 public:
  RefGang(std::size_t threads, std::size_t d, std::size_t k,
          std::size_t sweeps) {
    kernels_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      kernels_.emplace_back(d, k, sweeps);
    }
  }

  /// Wall seconds until every thread's run is done.
  double run() {
    const auto t0 = Clock::now();
    std::vector<std::thread> helpers;
    for (std::size_t i = 1; i < kernels_.size(); ++i) {
      helpers.emplace_back([this, i] { kernels_[i].run(); });
    }
    kernels_[0].run();
    for (std::thread& t : helpers) t.join();
    return seconds_since(t0);
  }

 private:
  std::vector<perf::RefKernel> kernels_;
};

struct Ceiling {
  double gflops = 0.0;
  double flops_per_byte = 0.0;  ///< computed from the operand sizes
};

/// linalg::mTxm_packed at the workload's (k^{d-1}, k) x (k, k) shape on a
/// cache-resident operand set: the best rate over seven timed rounds.
Ceiling microkernel_ceiling(std::size_t d, std::size_t k) {
  std::size_t rows = 1;
  for (std::size_t i = 1; i < d; ++i) rows *= k;
  std::vector<double> a(k * rows), b(k * k), c(rows * k, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1.0 / (1.0 + i % 17);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 / (2.0 + i % 13);
  linalg::GemmWorkspace ws;
  const double flops_per_call = 2.0 * static_cast<double>(rows * k * k);
  std::size_t reps = 16;
  for (;;) {  // calibrate one round to about 20 ms
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      linalg::mTxm_packed(rows, k, k, k, c.data(), a.data(), b.data(), ws);
    }
    if (seconds_since(t0) >= 0.02 || reps >= (std::size_t{1} << 26)) break;
    reps *= 2;
  }
  double best = 0.0;
  for (int round = 0; round < 7; ++round) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      linalg::mTxm_packed(rows, k, k, k, c.data(), a.data(), b.data(), ws);
    }
    const double dt = seconds_since(t0);
    best = std::max(best, flops_per_call * static_cast<double>(reps) / dt);
  }
  Ceiling out;
  out.gflops = best / 1e9;
  // A read, B read, C read and written.
  const double bytes = 8.0 * static_cast<double>(a.size() + b.size() +
                                                  2 * c.size());
  out.flops_per_byte = flops_per_call / bytes;
  return out;
}

struct Unit {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in output order.
constexpr Unit kLayerMetrics[] = {
    {"apply_s", "s"},
    {"setup_wall_s", "s"},
    {"input.d", "count"},
    {"input.k", "count"},
    {"input.M", "count"},
    {"input.leaves", "count"},
    {"ops.tasks", "count"},
    {"ops.gemms", "count"},
    {"ops.gflop", "GFLOP"},
    {"ops.enumerate_s", "s"},
    {"ops.lookup_s", "s"},
    {"ops.lookups", "count"},
    {"ops.cache_hit_ratio", "ratio"},
    {"ops.rank_reduced_gemms", "count"},
    {"linalg.gemm_s", "s"},
    {"linalg.flops", "flop"},
    {"linalg.gflops", "GFLOP/s"},
    {"linalg.ceiling_gflops", "GFLOP/s"},
    {"linalg.ceiling_ratio", "ratio"},
    {"linalg.computed_flops_per_byte", "flop/B"},
    {"mra.accumulate_s", "s"},
    {"mra.accumulates", "count"},
    {"mra.sum_down_s", "s"},
    {"mra.scale_s", "s"},
    {"mra.out_leaves", "count"},
    {"mra.project_s", "s"},
    {"dht.scatter_s", "s"},
    {"dht.load_imbalance", "ratio"},
    {"world.apply_s", "s"},
    {"world.messages", "count"},
    {"world.bytes", "B"},
    {"world.send_retries", "count"},
    {"runtime.batches", "count"},
    {"runtime.items_per_batch", "count"},
    {"runtime.cpu_share", "ratio"},
    {"runtime.timer_flushes", "count"},
    {"runtime.submit_s", "s"},
    {"runtime.drain_s", "s"},
    {"runtime.gpu_fallback_items", "count"},
    {"trace.apply_s", "s"},
    {"trace.overhead", "ratio"},
    {"split.unattributed", "ratio"},
    {"split.overlap", "ratio"},
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<std::pair<Unit, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second
                                                      : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name, v,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const auto kind = perf::parse_workload(args.workload);
  if (!kind) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perf::Workload workload(*kind, args.seed);
  // Set-up's yardstick has the d=3, k=5 shape whatever the workload: runs of
  // the d=4, k=10 shape were seen to switch between 0.08 and 0.135 s within
  // one tdse_d4 run while its set-up held within 0.175-0.215 s.
  perf::RefKernel setup_ref(3, 5, ref_sweeps(3));
  const double ref_nominal_s = setup_ref.flops() / kNominalRefFlops;

  // Set-up samples: a few up front (the last one is kept) and one after
  // every timed operation, so that setup_s sees the host across the whole
  // run rather than in one burst at its start. Each follows a reference run
  // whose time scales it to nominal seconds.
  std::vector<double> setup_s, setup_wall_s, project_s, scatter_s;
  auto sample_setup = [&](bool keep) {
    const double ref_s = setup_ref.run();
    const perf::SetupTimes t = workload.setup(keep);
    setup_s.push_back(t.total_s / ref_s * ref_nominal_s);
    setup_wall_s.push_back(t.total_s);
    std::printf("set-up %zu: %.4f s after reference %.4f s: %.4f nominal s\n",
                setup_s.size(), t.total_s, ref_s, setup_s.back());
    project_s.push_back(t.project_s);
    scatter_s.push_back(t.scatter_s);
  };
  for (int i = 0; i < kSetupRepeats; ++i) sample_setup(i + 1 == kSetupRepeats);
  workload.prepare();
  const std::map<std::string, double> sizes = workload.sizes();
  std::printf("workload %s seed %llu:", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (const auto& [name, value] : sizes) {
    std::printf(" %s=%.6g", name.c_str(), value);
  }
  std::printf("\n");

  // Timed operations, each between two reference-kernel runs on as many
  // threads as the operation keeps busy.
  RefGang gang(workload.threads(), workload.ndim(), workload.k(),
               ref_sweeps(workload.ndim()));
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> op_s, rel;
  double ref_prev = gang.run();
  const auto t_begin = Clock::now();
  while (op_s.size() < kMinOps || seconds_since(t_begin) < args.seconds) {
    const auto t0 = Clock::now();
    const perf::OpOut out = workload.run();
    const double dt = seconds_since(t0);
    const double ref_next = gang.run();
    op_s.push_back(dt);
    rel.push_back(dt / (0.5 * (ref_prev + ref_next)));
    std::printf("op %zu: %.4f s, reference %.4f s, ratio %.3f\n",
                op_s.size(), dt, ref_next, rel.back());
    ref_prev = ref_next;
    ++attempted;
    std::string why;
    if (!workload.check(out, &why)) {
      ++failed;
      std::printf("operation %zu FAILED its check: %s\n", attempted,
                  why.c_str());
    }
    sample_setup(false);
  }
  std::printf("%zu operations: median %.4f s, apply_rel %.4f; reference "
              "kernel %.4f s\n",
              op_s.size(), median(op_s), median(rel), ref_prev);
  std::printf("%zu set-ups: median %.4f nominal s, min %.4f, max %.4f; "
              "median %.4f wall s (yardstick nominal %.4f s)\n",
              setup_s.size(), median(setup_s),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()),
              median(setup_wall_s), ref_nominal_s);

  if (args.trace == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    const double pass_rate = 1.0 - static_cast<double>(failed) /
                                       static_cast<double>(attempted);
    print_result(failed == 0, attempted, failed,
                 {{{"apply_rel", "ratio"}, median(rel)},
                  {{"setup_s", "s"}, median(setup_s)},
                  {{"pass_rate", "ratio"}, pass_rate},
                  {{"peak_rss_mb", "MB"}, rss_mb}});
    return 0;
  }

  // Traced pass, between two untraced operations: trace.overhead compares
  // it with their mean, so slow drift of the host cancels.
  std::map<std::string, double> layer = sizes;
  obs::TraceSession session;
  std::string why;
  ++attempted;
  if (!workload.traced(session, layer, &why)) {
    ++failed;
    std::printf("traced operation FAILED its check: %s\n", why.c_str());
  }
  const auto t_after = Clock::now();
  const perf::OpOut after = workload.run();
  const double untraced_s = 0.5 * (op_s.back() + seconds_since(t_after));
  ++attempted;
  if (!workload.check(after, &why)) {
    ++failed;
    std::printf("operation %zu FAILED its check: %s\n", attempted,
                why.c_str());
  }
  if (const char* path = std::getenv("MH_TRACE"); path != nullptr) {
    if (session.write_chrome_trace_file(path)) {
      std::printf("trace written to %s (%zu spans)\n", path,
                  session.span_count());
    } else {
      std::printf("could not write trace to %s\n", path);
    }
  }
  const Ceiling ceiling =
      microkernel_ceiling(workload.ndim(), workload.k());
  layer["linalg.ceiling_gflops"] = ceiling.gflops;
  layer["linalg.ceiling_ratio"] =
      layer["linalg.gflops"] / ceiling.gflops;
  layer["linalg.computed_flops_per_byte"] = ceiling.flops_per_byte;
  layer["apply_s"] = median(op_s);
  layer["setup_wall_s"] = median(setup_wall_s);
  layer["mra.project_s"] = median(project_s);
  layer["dht.scatter_s"] = median(scatter_s);
  layer["trace.overhead"] = layer["trace.apply_s"] / untraced_s - 1.0;
  const bool split_ok = layer["split.unattributed"] <= kMaxUnattributed;
  if (!split_ok) {
    std::printf("split.unattributed %.4f exceeds %.2f\n",
                layer["split.unattributed"], kMaxUnattributed);
  }
  std::vector<std::pair<Unit, double>> metrics;
  for (const Unit& u : kLayerMetrics) metrics.push_back({u, layer[u.name]});
  print_result(failed == 0 && split_ok, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <coulomb_d3|tdse_d4|"
                 "coulomb_world2|coulomb_hybrid> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
