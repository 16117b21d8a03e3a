// Reproduces Table V: 3-D Coulomb with k=30, precision 1e-12, 1-8 nodes,
// MADNESS locality process map (uneven), rank reduction on the CPU.
// CPU-only (with and without rank reduction), GPU-only, hybrid actual and
// optimal-overlap columns.
#include <iostream>

#include "bench_common.hpp"
#include "bench_harness.hpp"
#include "runtime/dispatch.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

int run(int argc, char** argv) {
  Harness h("table5", argc, argv);
  const cluster::Workload w = apps::table5_workload();

  print_header(
      "Table V — Coulomb d=3, k=30, precision 1e-12; 16 CPU threads vs "
      "6 streams + 15 threads; locality process map");
  std::cout << "workload: " << w.name << ", " << w.tasks
            << " compute tasks in " << w.group_sizes.size()
            << " subtree groups\n\n";

  const std::size_t nodes[] = {1, 2, 4, 6, 8};
  const double paper_cpu_rr[] = {147, 115, 114, 96, 102};
  const double paper_cpu[] = {447, 299, 234, 201, 205};
  const double paper_gpu[] = {212, 90, 55, 35, 37};
  const double paper_hybrid[] = {172, 60, 39, 25, 25};
  const double paper_optimal[] = {144, 69, 45, 30, 31};

  TextTable t({"nodes", "CPU rr", "CPU", "GPU", "hybrid", "optimal",
               "paper: CPU rr", "CPU", "GPU", "hybrid", "optimal"});
  for (std::size_t i = 0; i < std::size(nodes); ++i) {
    if (h.quick() && nodes[i] != 1 && nodes[i] != 8) continue;
    const auto loads = cluster::locality_map(w.group_sizes, nodes[i], 105);

    auto cpu_cfg = apps::titan_config();
    cpu_cfg.nodes = nodes[i];
    cpu_cfg.mode = cluster::ComputeMode::kCpuOnly;
    cpu_cfg.cpu_compute_threads = 16;
    const RunSec cpu = run_cluster(w, loads, cpu_cfg);

    auto rr_cfg = cpu_cfg;
    rr_cfg.rank_fraction = apps::table5_rank_fraction();
    const RunSec cpu_rr = run_cluster(w, loads, rr_cfg);

    auto gpu_cfg = apps::titan_config();
    gpu_cfg.nodes = nodes[i];
    gpu_cfg.mode = cluster::ComputeMode::kGpuOnly;
    const RunSec gpu = run_cluster(w, loads, gpu_cfg);

    auto hyb_cfg = apps::titan_config();
    hyb_cfg.nodes = nodes[i];
    hyb_cfg.mode = cluster::ComputeMode::kHybrid;
    hyb_cfg.cpu_compute_threads = 15;
    const RunSec hybrid = run_cluster(w, loads, hyb_cfg);

    const bool overlap_known = cpu.feasible && gpu.feasible;
    const double optimal =
        overlap_known ? rt::optimal_overlap_time(cpu.sec, gpu.sec) : 0.0;

    t.add_row({std::to_string(nodes[i]), fmt(cpu_rr, 0), fmt(cpu, 0),
               fmt(gpu, 0), fmt(hybrid, 0), fmt(optimal, 0, overlap_known),
               fmt(paper_cpu_rr[i], 0), fmt(paper_cpu[i], 0),
               fmt(paper_gpu[i], 0), fmt(paper_hybrid[i], 0),
               fmt(paper_optimal[i], 0)});
    const std::string prefix = "nodes_" + std::to_string(nodes[i]);
    h.scalar(prefix + "_cpu_rr_s", cpu_rr.sec, "s");
    h.scalar(prefix + "_cpu_s", cpu.sec, "s");
    h.scalar(prefix + "_gpu_s", gpu.sec, "s");
    h.scalar(prefix + "_hybrid_s", hybrid.sec, "s");
  }
  t.print(std::cout);
  print_footnote(
      "note: CPU-only columns use 16 threads; GPU-only and hybrid use 6 "
      "CUDA streams and 15 CPU threads, as in the paper.");
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
