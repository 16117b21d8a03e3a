// Tests for src/clustersim: the CPU cost model, process maps, workload
// generators, and the cluster-level Apply simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <sstream>
#include <string>

#include "clustersim/cluster.hpp"
#include "clustersim/cpu_model.hpp"
#include "clustersim/process_map.hpp"
#include "clustersim/workload.hpp"
#include "common/diagnostics.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "runtime/dispatch.hpp"

namespace mh::cluster {
namespace {

const gpu::ApplyTaskShape kSmall3d{3, 10, 100};
const gpu::ApplyTaskShape kBig3d{3, 30, 100};
const gpu::ApplyTaskShape kTdse4d{4, 14, 100};

TEST(CpuModel, PerCoreRateDeclinesWithWorkingSet) {
  EXPECT_GT(per_core_rate(kSmall3d), per_core_rate(kBig3d));
  EXPECT_GT(per_core_rate(kSmall3d), per_core_rate(kTdse4d));
  // Small 3-D tensors run near the hand-tuned 6 GFLOPS/core figure.
  EXPECT_GT(per_core_rate(kSmall3d), 4.0e9);
  EXPECT_LE(per_core_rate(kSmall3d), 6.0e9);
}

TEST(CpuModel, TaskTimeScalesWithFlopsAndRankFraction) {
  const SimTime full = cpu_task_time(kSmall3d);
  EXPECT_GT(full.sec(), 0.0);
  const SimTime reduced = cpu_task_time(kSmall3d, 0.4);
  EXPECT_NEAR(reduced.sec(), 0.4 * full.sec(), 1e-15);
  EXPECT_THROW(cpu_task_time(kSmall3d, 0.0), Error);
  EXPECT_THROW(cpu_task_time(kSmall3d, 1.5), Error);
}

TEST(CpuModel, ThreadScalingIsSublinearButReal) {
  const double s1 = thread_speedup(kSmall3d, 1);
  const double s2 = thread_speedup(kSmall3d, 2);
  const double s16 = thread_speedup(kSmall3d, 16);
  EXPECT_NEAR(s1, 1.0, 1e-12);
  EXPECT_GT(s2, 1.7);
  EXPECT_LT(s2, 2.0 + 1e-12);
  EXPECT_GT(s16, 5.0);   // Table I: ~6.7x at 16 threads
  EXPECT_LT(s16, 9.0);
  EXPECT_GT(s16, thread_speedup(kSmall3d, 8));
}

TEST(CpuModel, LargeWorkingSetSaturatesAroundTenThreads) {
  // k = 30 working set overflows the aggregate L2 (Table V discussion).
  const double s10 = thread_speedup(kBig3d, 10);
  const double s16 = thread_speedup(kBig3d, 16);
  EXPECT_NEAR(s10, s16, 1e-12);  // no benefit past the saturation cap
  // The small shape keeps scaling to 16.
  EXPECT_GT(thread_speedup(kSmall3d, 16),
            thread_speedup(kSmall3d, 10));
}

TEST(CpuModel, BatchQuantizationPenalizesTinyBatches) {
  const SimTime t1 = cpu_batch_time(kSmall3d, 1, 16);
  const SimTime t16 = cpu_batch_time(kSmall3d, 16, 16);
  // One task on 16 threads still costs one full (contended) round: the
  // other 15 cores idle.
  EXPECT_NEAR(t1.sec(), t16.sec(), 1e-12);
  // Full batches amortize: 160 tasks = 10 rounds.
  const SimTime t160 = cpu_batch_time(kSmall3d, 160, 16);
  EXPECT_NEAR(t160.sec(), 10.0 * t16.sec(), 1e-12);
  EXPECT_DOUBLE_EQ(cpu_batch_time(kSmall3d, 0, 16).sec(), 0.0);
}

TEST(ProcessMap, EvenMapDistributesWithRemainder) {
  const NodeLoads loads = even_map(10, 4);
  EXPECT_EQ(loads.size(), 4u);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::size_t{0}), 10u);
  EXPECT_EQ(*std::max_element(loads.begin(), loads.end()), 3u);
  EXPECT_EQ(*std::min_element(loads.begin(), loads.end()), 2u);
  EXPECT_NEAR(imbalance(loads), 3.0 / 2.5, 1e-12);
}

TEST(ProcessMap, LocalityMapPreservesTotalsButIsUneven) {
  const auto groups = power_law_groups(10000, 24, 1.0, 42);
  const NodeLoads loads = locality_map(groups, 8, 7);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::size_t{0}), 10000u);
  EXPECT_GT(imbalance(loads), 1.1);  // visibly uneven
}

TEST(ProcessMap, FewGroupsStarveSomeNodes) {
  // 6 subtree groups on 8 nodes: at least two nodes get nothing — the
  // paper's "not enough work to distribute to 8 compute nodes".
  const std::vector<std::size_t> groups(6, 100);
  const NodeLoads loads = locality_map(groups, 8, 3);
  const std::size_t empty =
      static_cast<std::size_t>(std::count(loads.begin(), loads.end(), 0u));
  EXPECT_GE(empty, 2u);
}

TEST(ProcessMap, LptMapBeatsHashedLocalityOnImbalance) {
  const auto groups = power_law_groups(20000, 64, 1.0, 9);
  const NodeLoads hashed = locality_map(groups, 16, 9);
  const NodeLoads lpt = lpt_map(groups, 16);
  std::size_t total = 0;
  for (std::size_t l : lpt) total += l;
  EXPECT_EQ(total, 20000u);
  EXPECT_LT(imbalance(lpt), imbalance(hashed));
  // LPT is within 4/3 of optimal for identical machines (Graham's bound);
  // with one dominant group the bound is the group itself.
  const std::size_t biggest = *std::max_element(groups.begin(), groups.end());
  const double ideal = 20000.0 / 16.0;
  EXPECT_LE(imbalance(lpt),
            std::max(4.0 / 3.0 + 1e-9, static_cast<double>(biggest) / ideal));
}

TEST(ProcessMap, LptHandlesFewerGroupsThanNodes) {
  const std::vector<std::size_t> groups{100, 50, 25};
  const NodeLoads loads = lpt_map(groups, 8);
  EXPECT_EQ(*std::max_element(loads.begin(), loads.end()), 100u);
  EXPECT_EQ(std::count(loads.begin(), loads.end(), 0u), 5);
}

TEST(ProcessMap, ImbalanceOfUniformIsOne) {
  EXPECT_NEAR(imbalance(NodeLoads(5, 7)), 1.0, 1e-12);
  EXPECT_NEAR(imbalance(NodeLoads(3, 0)), 1.0, 1e-12);  // degenerate: all 0
}

TEST(Workload, PowerLawGroupsSumAndSkew) {
  const auto sizes = power_law_groups(5000, 40, 1.2, 11);
  EXPECT_EQ(sizes.size(), 40u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 5000u);
  for (std::size_t s : sizes) EXPECT_GE(s, 1u);
  // Heavier skew (smaller exponent) produces a bigger largest group.
  const auto heavy = power_law_groups(5000, 40, 0.6, 11);
  EXPECT_GT(*std::max_element(heavy.begin(), heavy.end()),
            *std::max_element(sizes.begin(), sizes.end()));
}

TEST(Workload, MakeWorkloadPopulatesFields) {
  const Workload w = make_workload("test", kSmall3d, 1000, 16, 1.0, 5);
  EXPECT_EQ(w.tasks, 1000u);
  EXPECT_EQ(w.group_sizes.size(), 16u);
  EXPECT_GT(w.unique_h_blocks, 0u);
  EXPECT_GT(w.gpu_bytes_per_task, 0.0);
  EXPECT_EQ(estimate_unique_blocks(100, 10, 4), 100u * 10u * 9u);
}

ClusterConfig base_config(std::size_t nodes, ComputeMode mode) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.mode = mode;
  cfg.gpu.cublas_aggregate = true;
  return cfg;
}

TEST(Cluster, CpuOnlyScalesWithNodesUnderEvenMap) {
  const Workload w = make_workload("c", kSmall3d, 20000, 64, 1.0, 1);
  const auto r2 = run_cluster_apply(w, even_map(w.tasks, 2),
                                    base_config(2, ComputeMode::kCpuOnly));
  const auto r8 = run_cluster_apply(w, even_map(w.tasks, 8),
                                    base_config(8, ComputeMode::kCpuOnly));
  ASSERT_TRUE(r2.feasible);
  ASSERT_TRUE(r8.feasible);
  const double speedup = r2.makespan / r8.makespan;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 4.5);
}

TEST(Cluster, HybridBeatsBothPureModes) {
  const Workload w = make_workload("h", kSmall3d, 6000, 64, 1.0, 2);
  const auto loads = even_map(w.tasks, 4);
  auto cpu_cfg = base_config(4, ComputeMode::kCpuOnly);
  auto gpu_cfg = base_config(4, ComputeMode::kGpuOnly);
  auto hyb_cfg = base_config(4, ComputeMode::kHybrid);
  hyb_cfg.cpu_compute_threads = 15;  // one core drives the GPU
  const auto cpu = run_cluster_apply(w, loads, cpu_cfg);
  const auto gpu = run_cluster_apply(w, loads, gpu_cfg);
  const auto hyb = run_cluster_apply(w, loads, hyb_cfg);
  ASSERT_TRUE(cpu.feasible && gpu.feasible && hyb.feasible);
  EXPECT_LT(hyb.makespan.sec(), cpu.makespan.sec());
  EXPECT_LT(hyb.makespan.sec(), gpu.makespan.sec());
}

TEST(Cluster, GpuMemoryFeasibilityGate) {
  Workload w = make_workload("m", kSmall3d, 100000, 64, 1.0, 3);
  w.gpu_bytes_per_task = 1e6;  // 100 GB total: far beyond one device
  auto cfg = base_config(1, ComputeMode::kGpuOnly);
  const auto r = run_cluster_apply(w, even_map(w.tasks, 1), cfg);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.note.find("GPU RAM"), std::string::npos);
  // Spreading over enough nodes makes it feasible again.
  auto cfg32 = base_config(32, ComputeMode::kGpuOnly);
  const auto r32 = run_cluster_apply(w, even_map(w.tasks, 32), cfg32);
  EXPECT_TRUE(r32.feasible);
  // CPU-only mode ignores the GPU limit.
  auto cpu_cfg = base_config(1, ComputeMode::kCpuOnly);
  EXPECT_TRUE(run_cluster_apply(w, even_map(w.tasks, 1), cpu_cfg).feasible);
}

TEST(Cluster, LocalityMapIsSlowerThanEvenMap) {
  const Workload w = make_workload("l", kSmall3d, 30000, 48, 0.8, 4);
  auto cfg = base_config(8, ComputeMode::kCpuOnly);
  const auto even = run_cluster_apply(w, even_map(w.tasks, 8), cfg);
  const auto local =
      run_cluster_apply(w, locality_map(w.group_sizes, 8, 4), cfg);
  EXPECT_GT(local.makespan.sec(), even.makespan.sec());
  EXPECT_GT(local.load_imbalance, even.load_imbalance);
}

TEST(Cluster, SaturationWhenGroupsRunOut) {
  // With only 8 subtree groups, going from 6 to 12 nodes barely helps —
  // Table V's flat 6 -> 8 node row.
  const Workload w = make_workload("s", kBig3d, 4000, 8, 1.0, 5);
  auto cfg6 = base_config(6, ComputeMode::kCpuOnly);
  auto cfg12 = base_config(12, ComputeMode::kCpuOnly);
  const auto r6 = run_cluster_apply(w, locality_map(w.group_sizes, 6, 9), cfg6);
  const auto r12 =
      run_cluster_apply(w, locality_map(w.group_sizes, 12, 9), cfg12);
  EXPECT_LT(r6.makespan / r12.makespan, 1.5);
}

TEST(Cluster, NodeRunTimeZeroTasksIsZero) {
  const Workload w = make_workload("z", kSmall3d, 100, 4, 1.0, 6);
  EXPECT_DOUBLE_EQ(
      node_run_time(w, 0, base_config(1, ComputeMode::kHybrid)).sec(), 0.0);
}

TEST(Cluster, CommunicationAddsToMakespan) {
  Workload w = make_workload("comm", kSmall3d, 10000, 32, 1.0, 7);
  auto cfg = base_config(4, ComputeMode::kCpuOnly);
  w.remote_fraction = 0.0;
  const auto quiet = run_cluster_apply(w, even_map(w.tasks, 4), cfg);
  w.remote_fraction = 0.5;
  const auto chatty = run_cluster_apply(w, even_map(w.tasks, 4), cfg);
  EXPECT_GT(chatty.makespan.sec(), quiet.makespan.sec());
  EXPECT_GT(chatty.slowest_node_comm.sec(), 0.0);
}

TEST(Cluster, HybridExplicitFractionMatchesOptimalFormula) {
  // With a fixed split k the per-batch time is max(m k, n (1-k)); sweep k
  // and verify the model's best is near k* = n/(m+n).
  const Workload w = make_workload("opt", kSmall3d, 600, 8, 1.0, 8);
  auto cfg = base_config(1, ComputeMode::kHybrid);
  cfg.cpu_compute_threads = 15;

  auto cpu_cfg = base_config(1, ComputeMode::kCpuOnly);
  cpu_cfg.cpu_compute_threads = 15;
  auto gpu_cfg = base_config(1, ComputeMode::kGpuOnly);
  const double m = node_run_time(w, w.tasks, cpu_cfg).sec();
  const double n = node_run_time(w, w.tasks, gpu_cfg).sec();
  const double kstar = rt::optimal_cpu_fraction(m, n);

  double best_k = -1.0, best_t = 1e300;
  for (double k = 0.05; k < 1.0; k += 0.05) {
    cfg.cpu_fraction = k;
    const double t = node_run_time(w, w.tasks, cfg).sec();
    if (t < best_t) {
      best_t = t;
      best_k = k;
    }
  }
  EXPECT_NEAR(best_k, kstar, 0.15);
}

TEST(Cluster, MergedMultiRankTraceFormsConnectedCausalDag) {
  // A 2-rank hybrid Apply run traced into one TraceSession per rank,
  // stitched with write_merged_chrome_trace, read back with the strict
  // parser, and analyzed: the causal DAG must stay connected per rank and
  // the critical path must be explained by (and not exceed) the makespan.
  const Workload w = make_workload("trace", kSmall3d, 600, 8, 1.0, 10);
  auto cfg = base_config(2, ComputeMode::kHybrid);
  cfg.cpu_compute_threads = 15;
  obs::TraceSession rank0, rank1;
  cfg.node_traces = {&rank0, &rank1};
  const auto result = run_cluster_apply(w, even_map(w.tasks, 2), cfg);
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(rank0.span_count(), 0u);
  EXPECT_GT(rank1.span_count(), 0u);

  std::stringstream ss;
  obs::write_merged_chrome_trace(ss, {{"rank0", &rank0}, {"rank1", &rank1}});
  obs::ReadTrace trace;
  std::string error;
  ASSERT_TRUE(obs::read_chrome_trace(ss, &trace, &error)) << error;
  EXPECT_EQ(trace.spans.size(), rank0.span_count() + rank1.span_count());

  // Every rank shows up as its own simulated-time Chrome process.
  bool saw_rank0 = false, saw_rank1 = false;
  for (const auto& [pid, name] : trace.process_names) {
    if (name.find("rank0") != std::string::npos) saw_rank0 = true;
    if (name.find("rank1") != std::string::npos) saw_rank1 = true;
  }
  EXPECT_TRUE(saw_rank0);
  EXPECT_TRUE(saw_rank1);

  // Flow starts and finishes pair up in the merged file too.
  std::map<std::uint64_t, int> starts, finishes;
  for (const obs::ReadFlow& f : trace.flows) {
    (f.start ? starts : finishes)[f.flow_id]++;
  }
  EXPECT_FALSE(starts.empty());
  EXPECT_EQ(starts, finishes);

  const obs::TraceAnalysis a = obs::analyze_trace(trace);
  EXPECT_TRUE(a.sim_domain);
  EXPECT_GT(a.causal_spans, 0u);
  // Each rank's chain is internally connected: the only extra causal
  // components are the standalone zero-length "probe" markers carrying the
  // m/n overlap-model measurements — no orphaned batch/phase spans.
  std::size_t probes = 0;
  for (const obs::ReadSpan& s : trace.spans) {
    if (s.name == "probe") ++probes;
  }
  EXPECT_EQ(probes, cfg.nodes);  // one auto-split probe per rank
  EXPECT_LE(a.connected_components, cfg.nodes + probes);
  // The critical path explains the makespan (attribution telescopes) and
  // never exceeds the simulated cluster makespan (1us slack for the
  // exporter's timestamp rounding).
  EXPECT_NEAR(a.critical.total_us(), a.makespan_us(),
              0.01 * a.makespan_us());
  EXPECT_LE(a.makespan_us(), result.makespan.sec() * 1e6 + 1.0);
  // Hybrid batches were recognized with a sane overlap model.
  ASSERT_FALSE(a.batches.empty());
  EXPECT_GT(a.overlap_efficiency, 0.5);
  EXPECT_LE(a.overlap_efficiency, 1.0 + 1e-9);
  // Straggler ranking covers both ranks' tracks, slowest first.
  ASSERT_GE(a.stragglers.size(), 2u);
  EXPECT_GE(a.stragglers.front().finish_us, a.stragglers.back().finish_us);
}

std::size_t sum_of(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

TEST(ProcessMap, MapsPreserveTotalTaskCount) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t nodes : {3u, 8u, 17u}) {
      const auto groups = power_law_groups(5000, 40, 1.2, seed);
      const std::size_t total = sum_of(groups);

      const NodeLoads even = even_map(total, nodes);
      EXPECT_EQ(sum_of(even), total);
      const auto [lo, hi] = std::minmax_element(even.begin(), even.end());
      EXPECT_LE(*hi - *lo, 1u);  // round-robin: within one task

      const NodeLoads loc = locality_map(groups, nodes, seed);
      EXPECT_EQ(sum_of(loc), total);
      EXPECT_GE(imbalance(loc), 1.0);

      const NodeLoads lpt = lpt_map(groups, nodes);
      EXPECT_EQ(sum_of(lpt), total);
      EXPECT_GE(imbalance(lpt), 1.0);
      // LPT bound: the worst node carries at most ideal + largest group.
      const std::size_t largest =
          *std::max_element(groups.begin(), groups.end());
      const double ideal =
          static_cast<double>(total) / static_cast<double>(nodes);
      EXPECT_LE(static_cast<double>(
                    *std::max_element(lpt.begin(), lpt.end())),
                ideal + static_cast<double>(largest));
      // LPT never balances worse than the locality hash.
      EXPECT_LE(imbalance(lpt), imbalance(loc) + 1e-12);
    }
  }
}

TEST(ProcessMap, LptHeapMatchesReferenceScan) {
  // The min-heap rewrite must reproduce the original first-minimum
  // linear-scan assignment exactly (ties break on the lowest node index).
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    const auto groups = power_law_groups(9000, 64, 1.6, seed);
    const std::size_t nodes = 7;
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return groups[a] > groups[b];
              });
    NodeLoads ref_loads(nodes, 0);
    std::vector<std::size_t> ref_node(groups.size());
    for (const std::size_t g : order) {
      const auto least =
          std::min_element(ref_loads.begin(), ref_loads.end());
      ref_node[g] = static_cast<std::size_t>(least - ref_loads.begin());
      *least += groups[g];
    }
    const GroupMap map = lpt_group_map(groups, nodes);
    EXPECT_EQ(map.node_of, ref_node);
    EXPECT_EQ(map.loads(groups), ref_loads);
  }
}

TEST(Cluster, EmptyScheduleIsMarkedExplicitly) {
  const Workload w = make_workload("empty", kSmall3d, 100, 4, 1.0, 6);
  const auto r = run_cluster_apply(w, NodeLoads(4, 0),
                                   base_config(4, ComputeMode::kCpuOnly));
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.empty);
  EXPECT_EQ(r.note, "empty schedule: no tasks");
  EXPECT_DOUBLE_EQ(r.makespan.sec(), 0.0);
  EXPECT_DOUBLE_EQ(r.load_imbalance, 1.0);
  ASSERT_EQ(r.node_times.size(), 4u);
  for (const SimTime t : r.node_times) EXPECT_DOUBLE_EQ(t.sec(), 0.0);

  // A run with work is not marked.
  const auto busy = run_cluster_apply(w, even_map(w.tasks, 4),
                                      base_config(4, ComputeMode::kCpuOnly));
  EXPECT_FALSE(busy.empty);
  EXPECT_TRUE(busy.note.empty());

  // The steal-enabled scheduler marks the same condition.
  Workload wz = w;
  wz.tasks = 0;
  wz.group_sizes.assign(4, 0);
  GroupMap gm;
  gm.nodes = 4;
  gm.node_of = {0, 1, 2, 3};
  const auto rz = run_cluster_apply_stealing(
      wz, gm, {}, base_config(4, ComputeMode::kCpuOnly));
  EXPECT_TRUE(rz.result.empty);
  EXPECT_EQ(rz.result.note, "empty schedule: no tasks");
  EXPECT_EQ(rz.steals.steals, 0u);
}

TEST(Cluster, EmptyRankEmitsNoOrphanCommSpan) {
  // Regression: a rank with zero tasks used to be eligible for a comm
  // span chained to parent 0 at t=0 — an orphan component in the merged
  // causal DAG. An idle rank must contribute no spans at all.
  const Workload w = make_workload("orphan", kSmall3d, 600, 8, 1.0, 10);
  auto cfg = base_config(3, ComputeMode::kHybrid);
  cfg.cpu_compute_threads = 15;
  obs::TraceSession r0, r1, r2;
  cfg.node_traces = {&r0, &r1, &r2};
  const NodeLoads loads = {400, 200, 0};  // rank 2 has nothing to do
  const auto result = run_cluster_apply(w, loads, cfg);
  ASSERT_TRUE(result.feasible);
  EXPECT_FALSE(result.empty);
  EXPECT_DOUBLE_EQ(result.node_times[2].sec(), 0.0);
  EXPECT_EQ(r2.span_count(), 0u);

  std::stringstream ss;
  obs::write_merged_chrome_trace(
      ss, {{"rank0", &r0}, {"rank1", &r1}, {"rank2", &r2}});
  obs::ReadTrace trace;
  std::string error;
  ASSERT_TRUE(obs::read_chrome_trace(ss, &trace, &error)) << error;
  std::size_t comm_spans = 0, probes = 0;
  for (const obs::ReadSpan& s : trace.spans) {
    if (s.name == "probe") ++probes;
    if (s.name != "comm") continue;
    ++comm_spans;
    EXPECT_GT(s.dur_us, 0.0);  // no zero-length comm stubs
  }
  EXPECT_EQ(comm_spans, 2u);  // one per rank that did work
  EXPECT_EQ(probes, 2u);      // idle rank never probed either
  const obs::TraceAnalysis a = obs::analyze_trace(trace);
  // Two working ranks' chains plus their probe markers — the empty rank
  // adds no orphan component.
  EXPECT_LE(a.connected_components, 2u + probes);
}

TEST(ClusterSteal, SkewedRunBeatsStaticLocalityMap) {
  const Workload w = make_workload("steal", kSmall3d, 20000, 48, 1.8, 11);
  const auto cfg = base_config(16, ComputeMode::kCpuOnly);
  const GroupMap gm = locality_group_map(w.group_sizes, 16);
  const auto st = run_cluster_apply(w, gm.loads(w.group_sizes), cfg);
  ASSERT_TRUE(st.feasible);
  ASSERT_GT(st.load_imbalance, 1.2);  // the premise: a real straggler

  const auto dyn = run_cluster_apply_stealing(w, gm, {}, cfg);
  ASSERT_TRUE(dyn.result.feasible);
  EXPECT_FALSE(dyn.result.empty);
  EXPECT_EQ(sum_of(dyn.executed), w.tasks);  // nothing lost or duplicated
  EXPECT_GT(dyn.steals.steals, 0u);
  EXPECT_GE(dyn.steals.attempts, dyn.steals.steals);
  EXPECT_GT(dyn.steals.migrated_tasks, 0u);
  EXPECT_LT(dyn.result.makespan.sec(), st.makespan.sec());
  EXPECT_LT(dyn.result.load_imbalance, st.load_imbalance);

  // The discrete-event schedule is deterministic.
  const auto again = run_cluster_apply_stealing(w, gm, {}, cfg);
  EXPECT_DOUBLE_EQ(again.result.makespan.sec(), dyn.result.makespan.sec());
  EXPECT_EQ(again.steals.steals, dyn.steals.steals);
  EXPECT_EQ(again.executed, dyn.executed);
}

TEST(ClusterSteal, BalancedOneGroupPerNodeRunIsTheStaticRun) {
  // Static load balancing is the no-steal case of the one scheduler: a
  // balanced placement of one group per node gives the steal scheduler
  // nothing profitable to move, so both entry points produce bitwise the
  // same result.
  Workload w = make_workload("equiv", kSmall3d, 2400, 4, 1.0, 12);
  w.group_sizes = even_map(w.tasks, 4);
  GroupMap gm;
  gm.nodes = 4;
  gm.node_of = {0, 1, 2, 3};
  for (const ComputeMode mode : {ComputeMode::kCpuOnly, ComputeMode::kHybrid}) {
    auto cfg = base_config(4, mode);
    cfg.cpu_compute_threads = 15;
    const ClusterResult st = run_cluster_apply(w, w.group_sizes, cfg);
    const StealScheduleResult dyn = run_cluster_apply_stealing(w, gm, {}, cfg);
    ASSERT_TRUE(st.feasible);
    ASSERT_TRUE(dyn.result.feasible);
    EXPECT_EQ(dyn.steals.steals, 0u);
    EXPECT_EQ(dyn.executed, w.group_sizes);
    EXPECT_EQ(dyn.result.makespan.sec(), st.makespan.sec());
    ASSERT_EQ(dyn.result.node_times.size(), st.node_times.size());
    for (std::size_t i = 0; i < st.node_times.size(); ++i) {
      EXPECT_EQ(dyn.result.node_times[i].sec(), st.node_times[i].sec());
    }
    EXPECT_EQ(dyn.result.load_imbalance, st.load_imbalance);
    EXPECT_EQ(dyn.result.slowest_node_comm.sec(), st.slowest_node_comm.sec());
    const NodeBreakdown& a = dyn.result.slowest_breakdown;
    const NodeBreakdown& b = st.slowest_breakdown;
    EXPECT_EQ(a.cpu_compute.sec(), b.cpu_compute.sec());
    EXPECT_EQ(a.host_data.sec(), b.host_data.sec());
    EXPECT_EQ(a.dispatch.sec(), b.dispatch.sec());
    EXPECT_EQ(a.transfers.sec(), b.transfers.sec());
    EXPECT_EQ(a.gpu_kernels.sec(), b.gpu_kernels.sec());
    EXPECT_EQ(a.comm.sec(), b.comm.sec());
  }
}

TEST(ClusterSteal, PolicyFromEnvKeepsDefaultsOnMalformedValues) {
  const StealPolicy defaults;
  ::setenv("MH_STEAL_VICTIM", "random", 1);
  StealPolicy p = StealPolicy::from_env();
  EXPECT_EQ(p.victim, StealPolicy::Victim::kRandom);
  // Unknown victim names, other case and trailing characters keep the
  // default, as an unset variable does.
  for (const char* bad : {"nearest", "Random", "random ", ""}) {
    ::setenv("MH_STEAL_VICTIM", bad, 1);
    p = StealPolicy::from_env();
    EXPECT_EQ(p.victim, defaults.victim) << '"' << bad << '"';
  }
  ::unsetenv("MH_STEAL_VICTIM");
}

TEST(ClusterSteal, LocalityBiasStealsOwnedGroupsCheaper) {
  const Workload w = make_workload("bias", kSmall3d, 20000, 48, 1.8, 11);
  auto cfg = base_config(16, ComputeMode::kCpuOnly);
  cfg.interconnect_bandwidth = 2e8;  // make coefficient migration pricey
  const GroupMap gm = locality_group_map(w.group_sizes, 16);
  // Every group's coefficient home: a different rank than its placement
  // often enough that owned steals exist.
  std::vector<std::size_t> owner(w.group_sizes.size());
  for (std::size_t g = 0; g < owner.size(); ++g) owner[g] = g % 16;

  StealPolicy biased;
  const auto with_bias = run_cluster_apply_stealing(w, gm, owner, cfg, biased);
  StealPolicy random_pol;
  random_pol.victim = StealPolicy::Victim::kRandom;
  const auto no_bias =
      run_cluster_apply_stealing(w, gm, owner, cfg, random_pol);

  ASSERT_GT(with_bias.steals.steals, 0u);
  EXPECT_GT(with_bias.steals.owned_steals, 0u);
  // The biased policy moves cheaper bytes per migrated task: owned groups
  // ship descriptors, not coefficients.
  ASSERT_GT(no_bias.steals.migrated_tasks, 0u);
  const double biased_rate =
      with_bias.steals.migrated_bytes /
      static_cast<double>(with_bias.steals.migrated_tasks);
  const double random_rate = no_bias.steals.migrated_bytes /
                             static_cast<double>(no_bias.steals.migrated_tasks);
  EXPECT_LT(biased_rate, random_rate);
  EXPECT_LE(with_bias.result.makespan.sec(),
            no_bias.result.makespan.sec() * 1.001);
}

TEST(ClusterSteal, StealTraceFormsConnectedDagWithMigrationSpans) {
  const Workload w = make_workload("steal-trace", kSmall3d, 4000, 12, 1.8, 13);
  auto cfg = base_config(4, ComputeMode::kCpuOnly);
  obs::TraceSession r0, r1, r2, r3;
  cfg.node_traces = {&r0, &r1, &r2, &r3};
  const GroupMap gm = locality_group_map(w.group_sizes, 4);
  std::vector<std::size_t> owner(w.group_sizes.size());
  for (std::size_t g = 0; g < owner.size(); ++g) owner[g] = g % 4;
  const auto dyn = run_cluster_apply_stealing(w, gm, owner, cfg);
  ASSERT_TRUE(dyn.result.feasible);
  ASSERT_GT(dyn.steals.steals, 0u);

  std::stringstream ss;
  obs::write_merged_chrome_trace(
      ss, {{"rank0", &r0}, {"rank1", &r1}, {"rank2", &r2}, {"rank3", &r3}});
  obs::ReadTrace trace;
  std::string error;
  ASSERT_TRUE(obs::read_chrome_trace(ss, &trace, &error)) << error;
  std::size_t steal_spans = 0, migrate_spans = 0;
  for (const obs::ReadSpan& s : trace.spans) {
    if (s.name == "steal") ++steal_spans;
    if (s.name == "migrate") ++migrate_spans;
  }
  EXPECT_EQ(steal_spans, dyn.steals.steals);
  EXPECT_EQ(migrate_spans, dyn.steals.steals);

  const obs::TraceAnalysis a = obs::analyze_trace(trace);
  EXPECT_TRUE(a.sim_domain);
  // Steal/migrate spans chain into their thief's timeline: still at most
  // one causal component per rank (CPU-only: no probe markers).
  EXPECT_LE(a.connected_components, cfg.nodes);
  EXPECT_NEAR(a.critical.total_us(), a.makespan_us(),
              0.01 * a.makespan_us());
  EXPECT_LE(a.makespan_us(), dyn.result.makespan.sec() * 1e6 + 1.0);
}

TEST(Cluster, RejectsMismatchedLoadVector) {
  const Workload w = make_workload("bad", kSmall3d, 100, 4, 1.0, 9);
  EXPECT_THROW(
      run_cluster_apply(w, even_map(100, 3), base_config(4, ComputeMode::kCpuOnly)),
      Error);
}

}  // namespace
}  // namespace mh::cluster
