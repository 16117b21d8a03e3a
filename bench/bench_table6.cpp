// Reproduces Table VI: the Apply part of the 4-D Time-Dependent Schrodinger
// Equation (k=14, threshold 1e-14, 542,113 tasks) on 100-500 Titan nodes.
// 4-D tensors spill the custom kernel's shared memory, so the GPU path uses
// cuBLAS (as the paper did); rank reduction on the CPU.
#include <iostream>

#include "bench_common.hpp"
#include "bench_harness.hpp"
#include "runtime/dispatch.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

int run(int argc, char** argv) {
  Harness h("table6", argc, argv);
  const cluster::Workload w = apps::table6_workload();

  print_header(
      "Table VI — 4-D TDSE, k=14, precision 1e-14; 100-500 nodes; cuBLAS "
      "kernels; rank reduction on the CPU");
  std::cout << "workload: " << w.name << ", " << w.tasks
            << " compute tasks (count from the paper)\n\n";

  const std::size_t nodes[] = {100, 200, 300, 400, 500};
  const double paper_cpu[] = {985, 759, 739, 718, 648};
  const double paper_gpu[] = {873, 580, 533, 448, 339};
  const double paper_hybrid[] = {664, 524, 308, 299, 277};
  const double paper_optimal[] = {463, 329, 310, 276, 223};
  const double paper_speedup[] = {1.4, 1.4, 2.3, 2.4, 2.3};

  TextTable t({"nodes", "CPU", "GPU", "hybrid", "optimal", "speedup",
               "paper: CPU", "GPU", "hybrid", "optimal", "speedup"});
  for (std::size_t i = 0; i < std::size(nodes); ++i) {
    if (h.quick() && nodes[i] != 100 && nodes[i] != 500) continue;
    const auto loads = cluster::locality_map(w.group_sizes, nodes[i], 106);

    auto cpu_cfg = apps::titan_config();
    cpu_cfg.nodes = nodes[i];
    cpu_cfg.mode = cluster::ComputeMode::kCpuOnly;
    cpu_cfg.rank_fraction = apps::table6_rank_fraction();
    const RunSec cpu = run_cluster(w, loads, cpu_cfg);

    auto gpu_cfg = apps::titan_config();
    gpu_cfg.nodes = nodes[i];
    gpu_cfg.mode = cluster::ComputeMode::kGpuOnly;
    gpu_cfg.gpu.use_custom_kernel = false;  // 4-D: cuBLAS regime
    const RunSec gpu = run_cluster(w, loads, gpu_cfg);

    auto hyb_cfg = gpu_cfg;
    hyb_cfg.mode = cluster::ComputeMode::kHybrid;
    hyb_cfg.cpu_compute_threads = 14;  // paper: 9-14 threads
    hyb_cfg.rank_fraction = apps::table6_rank_fraction();
    const RunSec hybrid = run_cluster(w, loads, hyb_cfg);

    const bool overlap_known = cpu.feasible && gpu.feasible;
    const double optimal =
        overlap_known ? rt::optimal_overlap_time(cpu.sec, gpu.sec) : 0.0;
    const bool speedup_known = cpu.feasible && hybrid.feasible;

    t.add_row({std::to_string(nodes[i]), fmt(cpu, 0), fmt(gpu, 0),
               fmt(hybrid, 0), fmt(optimal, 0, overlap_known),
               fmt(cpu.sec / hybrid.sec, 1, speedup_known),
               fmt(paper_cpu[i], 0), fmt(paper_gpu[i], 0),
               fmt(paper_hybrid[i], 0), fmt(paper_optimal[i], 0),
               fmt(paper_speedup[i], 1)});
    const std::string prefix = "nodes_" + std::to_string(nodes[i]);
    h.scalar(prefix + "_cpu_s", cpu.sec, "s");
    h.scalar(prefix + "_gpu_s", gpu.sec, "s");
    h.scalar(prefix + "_hybrid_s", hybrid.sec, "s");
  }
  t.print(std::cout);
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
