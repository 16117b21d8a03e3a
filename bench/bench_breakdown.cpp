// Where the time goes: phase breakdown of the slowest node for the paper's
// three execution modes on the Table I workload. This is the quantitative
// version of the paper's §III-A discussion ("the CPU, besides computation,
// also has to run all preprocess and postprocess tasks... the dispatcher
// thread has to rearrange and batch data for the GPU").
//
// The profile is read back from src/obs trace spans: each mode runs with a
// TraceSession attached, clustersim lays the per-batch phases onto
// "node<i>/phases" tracks (simulated time), and the table is the per-
// category sum over the slowest node's track — the same spans Perfetto
// shows. Set MH_TRACE=<path> to also write the hybrid run as Chrome
// trace_event JSON (chrome://tracing / https://ui.perfetto.dev); a short
// real-thread BatchingEngine pass is traced into the same file so it
// carries both clock domains.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "bench_harness.hpp"
#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "linalg/batch_gemm.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "runtime/batching.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

void add_mode(TextTable& t, Harness& h, const std::string& key,
              const char* label, const cluster::Workload& w,
              cluster::ClusterConfig cfg, obs::TraceSession& session) {
  cfg.trace = &session;
  const auto loads = cluster::even_map(w.tasks, cfg.nodes);
  const auto result = cluster::run_cluster_apply(w, loads, cfg);
  if (!result.feasible) {
    t.add_row({label, "-", "-", "-", "-", "-", "-", "-"});
    return;
  }
  std::size_t slowest = 0;
  for (std::size_t i = 1; i < result.node_times.size(); ++i) {
    if (result.node_times[i] > result.node_times[slowest]) slowest = i;
  }
  const auto totals = session.category_totals(
      obs::ClockDomain::kSim, "node" + std::to_string(slowest) + "/phases");
  using C = obs::Category;
  t.add_row({label, fmt(result.makespan.sec()),
             fmt(totals.sim(C::kCpuCompute).sec()),
             fmt((totals.sim(C::kPreprocess) + totals.sim(C::kPostprocess)).sec()),
             fmt(totals.sim(C::kBatchFlush).sec()),
             fmt(totals.sim(C::kTransfer).sec(), 2),
             fmt(totals.sim(C::kGpuKernel).sec()),
             fmt(totals.sim(C::kComm).sec(), 2)});
  h.scalar(key + "_makespan_s", result.makespan.sec(), "s");
  h.scalar(key + "_cpu_compute_s", totals.sim(C::kCpuCompute).sec(), "s");
  h.scalar(key + "_dispatch_s", totals.sim(C::kBatchFlush).sec(), "s");
}

// Round-trip the hybrid run's trace through the exporter + reader and run
// the critical-path / overlap-model analyzer on it (obs/critical_path.hpp):
// the same path `mh_trace_analyze <trace.json>` takes offline. Gates the
// paper's overlap math in CI — overlap efficiency is measured-vs-ideal
// m·n/(m+n) per batch, split residual is |k - k*| of the live split — and
// checks that the critical-path attribution telescopes to the makespan
// within 1%.
void overlap_analysis(Harness& h, obs::TraceSession& session) {
  std::stringstream ss;
  session.write_chrome_trace(ss);
  obs::ReadTrace trace;
  std::string error;
  MH_CHECK(obs::read_chrome_trace(ss, &trace, &error),
           "exported trace must parse: " + error);
  const obs::TraceAnalysis a = obs::analyze_trace(trace);
  const double makespan = a.makespan_us();
  const double attributed = a.critical.total_us();
  MH_CHECK(makespan <= 0.0 ||
               std::abs(attributed - makespan) <= 0.01 * makespan,
           "critical-path attribution must telescope to the makespan");
  std::cout << "\noverlap model (hybrid, " << a.batches.size()
            << " batches): efficiency " << fmt(a.overlap_efficiency, 3)
            << ", split residual |k-k*| " << fmt(a.split_residual_abs, 4)
            << ", critical path " << fmt(makespan / 1e6) << " s across "
            << a.path.size() << " steps\n";
  // Deterministic simulated-time results: both gate against baselines.
  h.scalar("hybrid_overlap_efficiency", a.overlap_efficiency, "",
           Direction::kHigherIsBetter, /*gate=*/true);
  h.scalar("hybrid_split_residual", a.split_residual_abs, "",
           Direction::kLowerIsBetter, /*gate=*/true);
  h.scalar("hybrid_critical_path_steps", static_cast<double>(a.path.size()),
           "", Direction::kLowerIsBetter, /*gate=*/false);
}

// A short real-thread BatchingEngine pass traced into `session`, so an
// exported file demonstrates both clock domains: wall-clock batch/compute
// spans here, simulated-time node/stream spans from the cluster run. After
// the pass the engine publishes its levels once: the
// mh_batching_split_fraction gauge shows the CPU share the last staged
// batch ran at, next to mh_batching_split_kstar, k* = n/(m+n) from the
// live rates. wait()'s explicit flush may stage batches before any rate
// sample, which run at the cold-start 0.5.
void live_engine_pass(Harness& h, obs::TraceSession& session) {
  using Engine = rt::BatchingEngine<int, double>;
  // Each item is a real Apply-shaped compute: one whole fused transform
  // chain (d=3, k=10, M=4 terms) through the packed batch-GEMM engine, so
  // the live m/n rates — and the k* the split converges to — reflect the
  // actual fused-kernel throughput, not a toy. max_batch caps each batch,
  // so the 1,024 submits make at least 16 batches.
  constexpr std::size_t d = 3, k = 10, terms = 4;
  constexpr std::size_t size = k * k * k;
  Rng rng(0xb27eadull);
  std::vector<double> src(size), hblocks(terms * d * k * k);
  for (auto& x : src) x = rng.uniform(-1.0, 1.0);
  for (auto& x : hblocks) x = rng.uniform(-1.0, 1.0);
  std::vector<linalg::GemmMat> mats;
  for (std::size_t j = 0; j < terms * d; ++j) {
    mats.push_back(linalg::GemmMat{hblocks.data() + j * k * k, k, k});
  }
  const std::vector<double> coeffs(terms, 1.0);
  const auto compute = [&](int) {
    thread_local std::vector<double> result;
    result.assign(size, 0.0);
    const linalg::FusedApplyItem item{src.data(), mats, coeffs, {},
                                      result.data()};
    linalg::batch_fused_apply(d, k, {&item, 1}, linalg::thread_workspace());
    double s = 0.0;
    for (const double x : result) s += x;
    return s;
  };

  Engine::Config cfg;
  cfg.cpu_threads = 4;
  cfg.flush_interval = std::chrono::milliseconds(1);
  cfg.max_batch = 64;
  cfg.trace = &session;
  Engine engine(cfg);
  std::atomic<double> sum{0.0};
  const rt::KindId kind = engine.register_kind(
      {[&compute](const int& x) { return compute(x); },
       [&compute](std::span<const int> xs) {
         std::vector<double> out;
         out.reserve(xs.size());
         for (int x : xs) out.push_back(compute(x));
         return out;
       },
       [&sum](double&& v) {
         sum.fetch_add(v, std::memory_order_relaxed);
       },
       /*input_hash=*/0xb27eadull});
  for (int i = 0; i < 1024; ++i) engine.submit(kind, i);
  engine.wait();
  engine.sample_metrics();
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels labels{{"kind", std::to_string(kind)}};
  // Wall-clock rates from real threads — context, not a gate.
  h.scalar("live_split_fraction",
           reg.gauge("mh_batching_split_fraction", {}, labels).value(), "",
           Direction::kLowerIsBetter, /*gate=*/false);
  h.scalar("live_split_kstar",
           reg.gauge("mh_batching_split_kstar", {}, labels).value(), "",
           Direction::kLowerIsBetter, /*gate=*/false);
}

int run(int argc, char** argv) {
  Harness h("breakdown", argc, argv);
  const cluster::Workload w = apps::table1_workload();
  print_header(
      "Phase breakdown — Coulomb d=3, k=10 (Table I workload), 1 node; "
      "all columns in seconds of slowest-node wall time");

  TextTable t({"mode", "makespan", "CPU compute", "pre/post", "dispatch",
               "PCIe", "GPU kernels", "comm"});
  auto base = apps::titan_config();
  base.nodes = 1;

  obs::TraceSession cpu_session, gpu_session, hybrid_session;

  auto cpu = base;
  cpu.mode = cluster::ComputeMode::kCpuOnly;
  add_mode(t, h, "cpu", "CPU-only (16 thr)", w, cpu, cpu_session);

  auto gpu = base;
  gpu.mode = cluster::ComputeMode::kGpuOnly;
  gpu.gpu.streams = 5;
  add_mode(t, h, "gpu", "GPU-only (5 streams)", w, gpu, gpu_session);

  auto hyb = base;
  hyb.mode = cluster::ComputeMode::kHybrid;
  hyb.cpu_compute_threads = 10;
  hyb.gpu.streams = 5;
  add_mode(t, h, "hybrid", "hybrid (10 thr + 5 str)", w, hyb,
           hybrid_session);

  t.print(std::cout);
  print_footnote(
      "note: columns are per-category span totals from the slowest node's "
      "trace track; CPU compute and the GPU chain overlap inside a hybrid "
      "batch, so rows can exceed the makespan.");

  overlap_analysis(h, hybrid_session);
  live_engine_pass(h, hybrid_session);
  if (const char* path = std::getenv("MH_TRACE");
      path != nullptr && *path != '\0') {
    if (hybrid_session.write_chrome_trace_file(path)) {
      print_footnote(std::string("trace: wrote ") +
                     std::to_string(hybrid_session.span_count()) +
                     " spans (hybrid run + live engine pass) to " + path);
    } else {
      print_footnote(std::string("trace: could not write ") + path);
    }
  }
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
