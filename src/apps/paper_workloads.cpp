#include "apps/paper_workloads.hpp"

namespace mh::apps {
namespace {

using cluster::Workload;
using gpu::ApplyTaskShape;

Workload named(const char* name, ApplyTaskShape shape, std::size_t tasks,
               std::size_t groups, double skew, std::uint64_t seed) {
  Workload w = cluster::make_workload(name, shape, tasks, groups, skew, seed);
  return w;
}

}  // namespace

cluster::ClusterConfig titan_config() {
  cluster::ClusterConfig cfg;
  cfg.gpu.cublas_aggregate = true;  // cluster scale: one event per batch
  return cfg;
}

cluster::Workload table1_workload() {
  // ~120k compute tasks make the 1-thread CPU run land at ~132 s under the
  // Interlagos model (5.4 GF/core at this shape -> 1.10 ms/task).
  return named("coulomb d=3 k=10 eps=1e-8", ApplyTaskShape{3, 10, 100},
               120'000, 256, 1.0, 101);
}

cluster::Workload table2_workload() {
  // k=20 tensors: 24 ms/task on a core; 52k tasks give ~173 s at 16
  // threads.
  return named("coulomb d=3 k=20 eps=1e-10", ApplyTaskShape{3, 20, 100},
               52'000, 256, 1.0, 102);
}

cluster::Workload table3_workload() {
  // Terms fold the displacement band into each kernel ("hundreds of h
  // tensors per kernel"); calibrated to the 2-node custom-kernel anchor.
  Workload w = named("coulomb d=3 k=10 eps=1e-10", ApplyTaskShape{3, 10, 6000},
                     25'000, 256, 1.0, 103);
  // Resident tree share per task, calibrated so one node exceeds the M2090's
  // 6 GB but two nodes fit (the paper's "below 2 nodes" row).
  w.gpu_bytes_per_task = 300.0 * 1024.0;
  return w;
}

cluster::Workload table4_workload() {
  // Task count stated by the paper ("154,468 tasks"); terms calibrated to
  // the 16-node custom-kernel anchor (27.6 s).
  Workload w = named("coulomb d=3 k=10 eps=1e-11", ApplyTaskShape{3, 10, 2200},
                     154'468, 1024, 1.0, 104);
  // Calibrated so 8 nodes exceed 6 GB but 16 fit ("below 16 nodes").
  w.gpu_bytes_per_task = 400.0 * 1024.0;
  return w;
}

cluster::Workload table5_workload() {
  // k=30: working sets overflow L2 (CPU saturates ~10 threads) and spill
  // GPU shared memory. Few subtree groups: scaling stops at ~6 nodes.
  Workload w = named("coulomb d=3 k=30 eps=1e-12", ApplyTaskShape{3, 30, 100},
                     13'500, 16, 1.2, 105);
  w.remote_fraction = 0.10;
  return w;
}

double table5_rank_fraction() { return 0.33; }  // 447 s -> 147 s on the CPU

cluster::Workload table6_workload() {
  // Task count stated by the paper ("542,113 tasks"). 4-D tensors spill GPU
  // shared memory, so this experiment runs cuBLAS kernels (as the paper
  // did); terms calibrated to the 100-node CPU anchor (985 s).
  Workload w = named("tdse d=4 k=14 eps=1e-14", ApplyTaskShape{4, 14, 800},
                     542'113, 2000, 2.5, 106);
  w.remote_fraction = 0.20;
  return w;
}

double table6_rank_fraction() { return 0.25; }

}  // namespace mh::apps
