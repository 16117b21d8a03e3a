// Calibration regression tests: pin the simulator's anchor rows to bands
// around the paper's published numbers, so model or tuning changes cannot
// silently break the reproduction (EXPERIMENTS.md documents which rows are
// anchors vs predictions — both kinds are pinned here, predictions with
// wider bands).
#include <gtest/gtest.h>

#include <vector>

#include "apps/paper_workloads.hpp"
#include "clustersim/cluster.hpp"
#include "clustersim/cpu_model.hpp"
#include "clustersim/process_map.hpp"
#include "gpusim/device_cache.hpp"
#include "gpusim/gpu_executor.hpp"
#include "gpusim/kernels.hpp"
#include "runtime/dispatch.hpp"

namespace mh {
namespace {

double run(const cluster::Workload& w, const cluster::NodeLoads& loads,
           const cluster::ClusterConfig& cfg) {
  const auto r = cluster::run_cluster_apply(w, loads, cfg);
  return r.feasible ? r.makespan.sec() : -1.0;
}

cluster::ClusterConfig single_node(cluster::ComputeMode mode) {
  auto cfg = apps::titan_config();
  cfg.nodes = 1;
  cfg.mode = mode;
  return cfg;
}

TEST(CalibrationTable1, CpuColumn) {
  const auto w = apps::table1_workload();
  const cluster::NodeLoads loads{w.tasks};
  auto cfg = single_node(cluster::ComputeMode::kCpuOnly);
  cfg.cpu_compute_threads = 1;
  EXPECT_NEAR(run(w, loads, cfg), 132.5, 10.0);  // paper 132.5 (anchor)
  cfg.cpu_compute_threads = 10;
  EXPECT_NEAR(run(w, loads, cfg), 24.3, 4.0);    // paper 24.3 (predicted)
  cfg.cpu_compute_threads = 16;
  EXPECT_NEAR(run(w, loads, cfg), 19.9, 4.0);    // paper 19.9 (predicted)
}

TEST(CalibrationTable1, GpuStreamColumn) {
  const auto w = apps::table1_workload();
  const cluster::NodeLoads loads{w.tasks};
  auto cfg = single_node(cluster::ComputeMode::kGpuOnly);
  cfg.gpu.streams = 1;
  EXPECT_NEAR(run(w, loads, cfg), 71.3, 8.0);  // paper 71.3 (anchor)
  cfg.gpu.streams = 5;
  EXPECT_NEAR(run(w, loads, cfg), 24.3, 4.0);  // paper 24.3 (predicted)
  // Flattening: 6 streams within 10% of 5 streams.
  const double s5 = run(w, loads, cfg);
  cfg.gpu.streams = 6;
  EXPECT_NEAR(run(w, loads, cfg) / s5, 1.0, 0.1);
}

TEST(CalibrationTable1, HybridBeatsBothAndExceedsOptimal) {
  const auto w = apps::table1_workload();
  const cluster::NodeLoads loads{w.tasks};
  auto cpu = single_node(cluster::ComputeMode::kCpuOnly);
  cpu.cpu_compute_threads = 10;
  auto gpu = single_node(cluster::ComputeMode::kGpuOnly);
  gpu.gpu.streams = 5;
  auto hyb = single_node(cluster::ComputeMode::kHybrid);
  hyb.cpu_compute_threads = 10;
  hyb.gpu.streams = 5;
  const double m = run(w, loads, cpu), n = run(w, loads, gpu);
  const double actual = run(w, loads, hyb);
  const double optimal = rt::optimal_overlap_time(m, n);
  EXPECT_LT(actual, m);
  EXPECT_LT(actual, n);
  EXPECT_GT(actual, optimal);              // data-intensive parts (paper)
  EXPECT_NEAR(actual, 14.4, 3.0);          // paper 14.4
  EXPECT_NEAR(optimal, 12.1, 2.0);         // paper 12.1
}

TEST(CalibrationTable2, AllRows) {
  const auto w = apps::table2_workload();
  const cluster::NodeLoads loads{w.tasks};
  auto cpu = single_node(cluster::ComputeMode::kCpuOnly);
  EXPECT_NEAR(run(w, loads, cpu), 173.3, 12.0);  // anchor
  auto gpu = single_node(cluster::ComputeMode::kGpuOnly);
  gpu.gpu.use_custom_kernel = false;
  EXPECT_NEAR(run(w, loads, gpu), 136.6, 12.0);  // predicted
  auto hyb = single_node(cluster::ComputeMode::kHybrid);
  hyb.gpu.use_custom_kernel = false;
  hyb.cpu_compute_threads = 15;
  EXPECT_NEAR(run(w, loads, hyb), 99.0, 14.0);   // predicted
}

TEST(CalibrationTable3, CustomColumnAndRatio) {
  const auto w = apps::table3_workload();
  auto cfg = apps::titan_config();
  cfg.mode = cluster::ComputeMode::kGpuOnly;
  cfg.nodes = 2;
  const auto loads = cluster::even_map(w.tasks, 2);
  cfg.gpu.use_custom_kernel = true;
  const double custom = run(w, loads, cfg);
  EXPECT_NEAR(custom, 88.0, 20.0);  // paper 88 (anchor)
  cfg.gpu.use_custom_kernel = false;
  const double cublas = run(w, loads, cfg);
  EXPECT_NEAR(cublas / custom, 2.8, 0.6);  // paper 2.81 (predicted)
}

TEST(CalibrationTable3, FeasibilityBoundary) {
  const auto w = apps::table3_workload();
  auto cfg = apps::titan_config();
  cfg.mode = cluster::ComputeMode::kGpuOnly;
  cfg.nodes = 1;
  EXPECT_LT(run(w, cluster::even_map(w.tasks, 1), cfg), 0.0);  // infeasible
  cfg.nodes = 2;
  EXPECT_GT(run(w, cluster::even_map(w.tasks, 2), cfg), 0.0);
}

TEST(CalibrationTable4, CustomAnchorsAndBoundary) {
  const auto w = apps::table4_workload();
  EXPECT_EQ(w.tasks, 154'468u);  // stated by the paper
  auto cfg = apps::titan_config();
  cfg.mode = cluster::ComputeMode::kGpuOnly;
  cfg.gpu.use_custom_kernel = true;
  cfg.nodes = 16;
  EXPECT_NEAR(run(w, cluster::even_map(w.tasks, 16), cfg), 27.6, 6.0);
  cfg.nodes = 100;
  EXPECT_NEAR(run(w, cluster::even_map(w.tasks, 100), cfg), 7.6, 4.0);
  cfg.nodes = 8;
  EXPECT_LT(run(w, cluster::even_map(w.tasks, 8), cfg), 0.0);  // infeasible
}

TEST(CalibrationTable5, SingleNodeColumnSet) {
  const auto w = apps::table5_workload();
  const auto loads = cluster::locality_map(w.group_sizes, 1, 105);
  auto cpu = apps::titan_config();
  cpu.nodes = 1;
  cpu.mode = cluster::ComputeMode::kCpuOnly;
  EXPECT_NEAR(run(w, loads, cpu), 447.0, 40.0);  // anchor
  auto rr = cpu;
  rr.rank_fraction = apps::table5_rank_fraction();
  EXPECT_NEAR(run(w, loads, rr), 147.0, 20.0);   // anchor
  auto gpu = apps::titan_config();
  gpu.nodes = 1;
  gpu.mode = cluster::ComputeMode::kGpuOnly;
  EXPECT_NEAR(run(w, loads, gpu), 212.0, 70.0);  // predicted
}

TEST(CalibrationTable6, HundredNodeColumnSet) {
  const auto w = apps::table6_workload();
  EXPECT_EQ(w.tasks, 542'113u);  // stated by the paper
  const auto loads = cluster::locality_map(w.group_sizes, 100, 106);
  auto cpu = apps::titan_config();
  cpu.nodes = 100;
  cpu.mode = cluster::ComputeMode::kCpuOnly;
  cpu.rank_fraction = apps::table6_rank_fraction();
  EXPECT_NEAR(run(w, loads, cpu), 985.0, 150.0);  // anchor
  auto gpu = apps::titan_config();
  gpu.nodes = 100;
  gpu.mode = cluster::ComputeMode::kGpuOnly;
  gpu.gpu.use_custom_kernel = false;
  EXPECT_NEAR(run(w, loads, gpu), 873.0, 220.0);  // predicted
  // Hybrid speedup over CPU in the paper's 1.4-2.4 band.
  auto hyb = gpu;
  hyb.mode = cluster::ComputeMode::kHybrid;
  hyb.cpu_compute_threads = 14;
  hyb.rank_fraction = apps::table6_rank_fraction();
  const double speedup = run(w, loads, cpu) / run(w, loads, hyb);
  EXPECT_GT(speedup, 1.3);
  EXPECT_LT(speedup, 2.6);
}

// Every simulated-clock output the cost-model constants feed, pinned to
// the last bit (hex-float literals): the CPU batch model, the kernel
// durations, one batch per executor path, the node model in all three
// modes and one static and one stealing cluster run. The Calibration
// tests above allow bands; this one catches a constant that moves by one
// ulp or an expression whose operation order changes.
TEST(CostModel, OutputsArePinnedBitExact) {
  const gpu::ApplyTaskShape small{3, 10, 100}, big{3, 30, 100};
  const gpu::ApplyTaskShape spills{3, 28, 100}, tdse{4, 14, 800};
  EXPECT_EQ(cluster::cpu_batch_time(small, 60, 16).sec(),
            0x1.3cf559b3d07c9p-7);
  EXPECT_EQ(cluster::cpu_batch_time(big, 37, 10).sec(), 0x1.48c957928e0cap+0);
  EXPECT_EQ(cluster::cpu_batch_time(tdse, 60, 14, 0.25).sec(),
            0x1.53e41f04c4a79p+2);

  const gpu::DeviceSpec m2090 = gpu::DeviceSpec::tesla_m2090();
  EXPECT_EQ(gpu::custom_task_duration(m2090, small).sec(),
            0x1.d9c25db5bc069p-12);
  EXPECT_EQ(gpu::custom_task_duration(m2090, spills).sec(),
            0x1.6a295a503a4a5p-5);
  EXPECT_EQ(gpu::custom_task_duration_reduced(m2090, big, 0.33, false).sec(),
            0x1.7572882357326p-4);
  EXPECT_EQ(gpu::custom_task_duration_reduced(m2090, small, 0.33, true).sec(),
            0x1.6a3a35b15e51bp-11);
  EXPECT_EQ(gpu::cublas_step_duration(m2090, tdse.rows(), tdse.k).sec(),
            0x1.723de5e581a16p-16);

  // One 60-task batch sharing 300 operator blocks, through each executor
  // path on a fresh device and cache.
  const auto batch_elapsed = [](const gpu::ApplyTaskShape& shape,
                                const gpu::BatchConfig& cfg) {
    std::vector<gpu::GpuTaskDesc> batch(60);
    for (auto& task : batch) {
      task.shape = shape;
      for (std::uint64_t b = 0; b < 300; ++b) task.h_block_ids.push_back(b);
    }
    gpu::GpuDevice dev(gpu::DeviceSpec::tesla_m2090(), 8);
    gpu::DeviceCache cache(dev.spec().memory_bytes);
    return gpu::run_apply_batch(dev, &cache, batch, cfg, SimTime::zero())
        .elapsed()
        .sec();
  };
  const gpu::BatchConfig batched;
  EXPECT_EQ(batch_elapsed(small, batched), 0x1.9d807ec8a3ec5p-7);
  gpu::BatchConfig naive;
  naive.batched = false;
  naive.pinned = false;
  naive.device_cache = false;
  EXPECT_EQ(batch_elapsed(small, naive), 0x1.1c1d8a4cd0e54p-5);
  gpu::BatchConfig naive_cublas = naive;
  naive_cublas.use_custom_kernel = false;
  EXPECT_EQ(batch_elapsed(small, naive_cublas), 0x1.358fe0fac8b16p-3);
  gpu::BatchConfig per_step;
  per_step.use_custom_kernel = false;
  EXPECT_EQ(batch_elapsed(small, per_step), 0x1.263c1b80d6adep-5);
  gpu::BatchConfig aggregate = per_step;
  aggregate.cublas_aggregate = true;
  EXPECT_EQ(batch_elapsed(small, aggregate), 0x1.08b5f8bc86755p-5);
  gpu::BatchConfig dynamic;
  dynamic.streams = 6;
  dynamic.gpu_rank_fraction = 0.33;
  dynamic.dynamic_parallelism = true;
  EXPECT_EQ(batch_elapsed(big, dynamic), 0x1.e5c85f20312d4p-2);

  // The node model in each mode on 1000 Table I tasks, and the Table I
  // workload on four nodes, static and stealing.
  const cluster::Workload w = apps::table1_workload();
  auto cfg = apps::titan_config();
  cfg.mode = cluster::ComputeMode::kCpuOnly;
  EXPECT_EQ(cluster::node_run_time(w, 1000, cfg).sec(), 0x1.3801844d013a9p-3);
  cfg.mode = cluster::ComputeMode::kGpuOnly;
  EXPECT_EQ(cluster::node_run_time(w, 1000, cfg).sec(), 0x1.adbb27be18e82p-3);
  cfg.mode = cluster::ComputeMode::kHybrid;
  cfg.cpu_compute_threads = 15;
  EXPECT_EQ(cluster::node_run_time(w, 1000, cfg).sec(), 0x1.b9c2216d7f017p-4);
  cfg.nodes = 4;
  const auto placement = cluster::locality_group_map(w.group_sizes, 4, 101);
  EXPECT_EQ(cluster::run_cluster_apply(w, placement.loads(w.group_sizes), cfg)
                .makespan.sec(),
            0x1.db975ee320b86p+2);
  EXPECT_EQ(cluster::run_cluster_apply_stealing(w, placement, {}, cfg)
                .result.makespan.sec(),
            0x1.750247b0a617cp+2);
}

}  // namespace
}  // namespace mh
