// Reproduces Table I: CPU thread scale-up vs GPU stream scale-up vs hybrid
// for Coulomb with d=3, k=10, precision 1e-8 (no rank reduction), on a
// single Titan node. Batches of 60 independent compute tasks.
#include <iostream>

#include "bench_common.hpp"
#include "bench_harness.hpp"
#include "runtime/dispatch.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

int run(int argc, char** argv) {
  Harness h("table1", argc, argv);
  const cluster::Workload w = apps::table1_workload();
  cluster::ClusterConfig base = apps::titan_config();
  base.nodes = 1;
  const cluster::NodeLoads loads{w.tasks};

  print_header(
      "Table I — Coulomb d=3, k=10, precision 1e-8 (no rank reduction), "
      "1 Titan node");
  std::cout << "workload: " << w.name << ", " << w.tasks
            << " compute tasks in batches of " << cluster::kBatchSize << "\n\n";

  // --- CPU-only thread scale-up.
  {
    TextTable t({"CPU threads", "measured (s)", "paper (s)"});
    const int threads[] = {1, 2, 4, 6, 8, 10, 12, 14, 16};
    const double paper[] = {132.5, 66.5, 45.7, 35.6, 28.5,
                            24.3,  22.8, 18.5, 19.9};
    for (std::size_t i = 0; i < std::size(threads); ++i) {
      if (h.quick() && threads[i] != 1 && threads[i] != 10 &&
          threads[i] != 16) {
        continue;
      }
      auto cfg = base;
      cfg.mode = cluster::ComputeMode::kCpuOnly;
      cfg.cpu_compute_threads = static_cast<std::size_t>(threads[i]);
      const RunSec r = run_cluster(w, loads, cfg);
      t.add_row({std::to_string(threads[i]), fmt(r), fmt(paper[i])});
      h.scalar("cpu_threads_" + std::to_string(threads[i]) + "_s", r.sec, "s");
    }
    t.print(std::cout);
  }

  // --- GPU-only stream scale-up (custom kernels; 12 data threads).
  {
    TextTable t({"GPU streams", "measured (s)", "paper (s)"});
    const int streams[] = {1, 2, 3, 4, 5, 6};
    const double paper[] = {71.3, 41.5, 31.5, 26.4, 24.3, 24.7};
    for (std::size_t i = 0; i < std::size(streams); ++i) {
      if (h.quick() && streams[i] != 1 && streams[i] != 5) continue;
      auto cfg = base;
      cfg.mode = cluster::ComputeMode::kGpuOnly;
      cfg.gpu.streams = static_cast<std::size_t>(streams[i]);
      const RunSec r = run_cluster(w, loads, cfg);
      t.add_row({std::to_string(streams[i]), fmt(r), fmt(paper[i])});
      h.scalar("gpu_streams_" + std::to_string(streams[i]) + "_s", r.sec, "s");
    }
    t.print(std::cout);
  }

  // --- Hybrid: 10 CPU threads + 5 CUDA streams, plus the optimal-overlap
  // prediction from the measured CPU-only(10) and GPU-only(5) times.
  {
    auto cpu_cfg = base;
    cpu_cfg.mode = cluster::ComputeMode::kCpuOnly;
    cpu_cfg.cpu_compute_threads = 10;
    const double m = run_cluster(w, loads, cpu_cfg).sec;

    auto gpu_cfg = base;
    gpu_cfg.mode = cluster::ComputeMode::kGpuOnly;
    gpu_cfg.gpu.streams = 5;
    const double n = run_cluster(w, loads, gpu_cfg).sec;

    auto hyb_cfg = base;
    hyb_cfg.mode = cluster::ComputeMode::kHybrid;
    hyb_cfg.cpu_compute_threads = 10;
    hyb_cfg.gpu.streams = 5;
    const double actual = run_cluster(w, loads, hyb_cfg).sec;
    const double optimal = rt::optimal_overlap_time(m, n);

    TextTable t({"CPU+GPU (10 thr, 5 streams)", "measured (s)", "paper (s)"});
    t.add_row({"actual", fmt(actual), fmt(14.4)});
    t.add_row({"optimal CPU-GPU overlap", fmt(optimal), fmt(12.1)});
    t.print(std::cout);
    h.scalar("hybrid_actual_s", actual, "s");
    h.scalar("hybrid_optimal_overlap_s", optimal, "s");
  }
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
