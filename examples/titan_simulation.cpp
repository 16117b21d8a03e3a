// Simulation example: explore a hybrid CPU-GPU run on the simulated Titan
// partition — what the paper's Table VI experiment looks like through this
// library's cluster simulator, plus a what-if the paper could not run
// (sweeping the CPU/GPU split fraction on real hardware costs allocations;
// here it is a loop).
#include <cstdio>

#include "apps/paper_workloads.hpp"
#include "clustersim/cluster.hpp"
#include "clustersim/process_map.hpp"
#include "runtime/dispatch.hpp"

int main() {
  using namespace mh;

  const cluster::Workload w = apps::table6_workload();
  std::printf("workload: %s — %zu tasks, %zu subtree groups\n",
              w.name.c_str(), w.tasks, w.group_sizes.size());

  // A 300-node partition with the paper's locality process map.
  const std::size_t nodes = 300;
  const auto loads = cluster::locality_map(w.group_sizes, nodes, 106);
  std::printf("process map: load imbalance %.2fx over %zu nodes\n",
              cluster::imbalance(loads), nodes);

  auto base = apps::titan_config();
  base.nodes = nodes;
  base.gpu.use_custom_kernel = false;  // 4-D: cuBLAS regime
  base.rank_fraction = apps::table6_rank_fraction();

  auto cpu_cfg = base;
  cpu_cfg.mode = cluster::ComputeMode::kCpuOnly;
  const auto cpu = cluster::run_cluster_apply(w, loads, cpu_cfg);

  auto gpu_cfg = base;
  gpu_cfg.mode = cluster::ComputeMode::kGpuOnly;
  const auto gpu = cluster::run_cluster_apply(w, loads, gpu_cfg);

  std::printf("CPU-only: %.0f s   GPU-only: %.0f s   optimal overlap: %.0f s\n",
              cpu.makespan.sec(), gpu.makespan.sec(),
              rt::optimal_overlap_time(cpu.makespan.sec(),
                                       gpu.makespan.sec()));

  // Sweep the hybrid split — the knob behind the paper's k* = n/(m+n).
  std::printf("\n%8s  %12s\n", "k (CPU)", "makespan (s)");
  double best = 1e300, best_k = 0.0;
  for (double k = 0.0; k <= 1.0001; k += 0.125) {
    auto cfg = base;
    cfg.mode = cluster::ComputeMode::kHybrid;
    cfg.cpu_compute_threads = 14;
    cfg.cpu_fraction = k;
    const auto r = cluster::run_cluster_apply(w, loads, cfg);
    std::printf("%8.3f  %12.0f\n", k, r.makespan.sec());
    if (r.makespan.sec() < best) {
      best = r.makespan.sec();
      best_k = k;
    }
  }
  std::printf("\nbest sweep point: k = %.3f, %.0f s; model auto-split: ", best_k,
              best);
  auto auto_cfg = base;
  auto_cfg.mode = cluster::ComputeMode::kHybrid;
  auto_cfg.cpu_compute_threads = 14;
  const auto auto_r = cluster::run_cluster_apply(w, loads, auto_cfg);
  std::printf("%.0f s\n", auto_r.makespan.sec());
  std::printf("speedup over CPU-only: %.1fx (paper Table VI: 2.3x at 300 "
              "nodes)\n",
              cpu.makespan.sec() / auto_r.makespan.sec());
  return 0;
}
