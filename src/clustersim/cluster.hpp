// Cluster-level simulation of a MADNESS Apply run (paper §III).
//
// Each node owns the tasks its process map assigned; within a node the run
// proceeds in batches of `batch_size` compute tasks flowing through the
// CPU-only, GPU-only, or hybrid path. One discrete-event scheduler runs
// every node's queue of whole subtree groups on per-node simulated clocks
// and adds each node's communication tail; the two entry points differ
// only in whether idle nodes may steal:
//
//   run_cluster_apply          — static load balancing, the no-steal run
//                                with one group per node: the cluster
//                                makespan is the slowest node plus its
//                                communication, mirroring the paper (its
//                                scaling limits come precisely from that).
//   run_cluster_apply_stealing — extension beyond the paper: idle nodes
//                                migrate whole subtree groups off
//                                stragglers, paying the steal round trip
//                                and the coefficient migration in simulated
//                                time, optionally biased by the DHT owner
//                                map so coefficient reuse stays local.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "clustersim/cpu_model.hpp"
#include "clustersim/process_map.hpp"
#include "clustersim/workload.hpp"
#include "common/sim_time.hpp"
#include "gpusim/gpu_executor.hpp"
#include "obs/trace.hpp"

namespace mh::obs {
class HealthPlane;
}

namespace mh::cluster {

struct NodeSpec {
  CpuSpec cpu = CpuSpec::titan_interlagos();
  gpu::DeviceSpec device = gpu::DeviceSpec::tesla_m2090();
  std::size_t gpu_streams = 6;

  /// A Titan XK6/XK7-style node: 16-core Interlagos + Tesla M2090.
  static NodeSpec titan() { return NodeSpec{}; }
};

enum class ComputeMode { kCpuOnly, kGpuOnly, kHybrid };

struct ClusterConfig {
  std::size_t nodes = 1;
  NodeSpec node;
  ComputeMode mode = ComputeMode::kHybrid;
  /// Worker threads for CPU compute (paper: 16 CPU-only; 15 in hybrid, one
  /// core driving the GPU as dispatcher).
  std::size_t cpu_compute_threads = 16;
  std::size_t batch_size = 60;
  bool rank_reduce = false;
  double rank_fraction = 1.0;  ///< kred/k flop scale when rank_reduce is on
  /// Hybrid split: fraction of each batch on the CPU; < 0 derives the
  /// optimal k* = n/(m+n) from the model's own rates (probe batch).
  double cpu_fraction = -1.0;
  gpu::BatchConfig gpu;  ///< kernel choice, streams etc. (streams overridden
                         ///< by node.gpu_streams)
  // Interconnect (Gemini-class; the paper reports no network bottleneck).
  double interconnect_bandwidth = 5e9;
  SimTime message_latency = SimTime::micros(2.0);

  /// Simulated-time span sink: per-node phase spans land on
  /// "node<i>/phases" tracks and device events on "node<i>/gpu/..."
  /// stream tracks. nullptr falls back to obs::TraceSession::current()
  /// (still off if that is null too). Non-owning.
  obs::TraceSession* trace = nullptr;

  /// Per-rank sessions: when non-empty, node i records into
  /// node_traces[i % size()] instead of `trace` — one TraceSession per
  /// simulated rank, stitched afterwards with
  /// obs::write_merged_chrome_trace. Non-owning.
  std::vector<obs::TraceSession*> node_traces;

  /// Live health plane on the simulated clock: when non-null the
  /// scheduler publishes per-node telemetry (queue depth, liveness,
  /// executed tasks, steal counters) after every executed group and runs
  /// one detector tick, so stragglers are flagged *while* the simulated
  /// run is in flight — not from the trace afterwards. Static runs publish
  /// too, though no caller sets it for them today. Non-owning.
  obs::HealthPlane* health = nullptr;
};

/// Where one node's wall time went (aggregated over its batches).
struct NodeBreakdown {
  SimTime cpu_compute;  ///< CPU worker compute (CPU-only & hybrid CPU share)
  SimTime host_data;    ///< preprocess + postprocess on data threads
  SimTime dispatch;     ///< dispatcher thread: staging + pointer tables
  SimTime transfers;    ///< PCIe in + out
  SimTime gpu_kernels;  ///< device kernel span
  SimTime comm;         ///< remote accumulations (and steal migrations)

  SimTime total() const noexcept {
    return cpu_compute + host_data + dispatch + transfers + gpu_kernels +
           comm;
  }
};

struct ClusterResult {
  bool feasible = true;
  /// True when the schedule contained no tasks at all: makespan 0 and
  /// load_imbalance 1.0 then mean "nothing ran", not "perfectly balanced"
  /// — bench sweeps must not gate on an empty schedule.
  bool empty = false;
  std::string note;  ///< set when infeasible or empty
  SimTime makespan;
  double load_imbalance = 1.0;
  SimTime slowest_node_comm;
  NodeBreakdown slowest_breakdown;  ///< phase profile of the slowest node
  std::vector<SimTime> node_times;
};

/// Simulate the run given per-node task loads (from a process map): the
/// no-steal scheduler run with node i holding one group of loads[i] tasks.
ClusterResult run_cluster_apply(const Workload& workload,
                                const NodeLoads& loads,
                                const ClusterConfig& config);

/// Time of one node processing `tasks` tasks under `config` (exposed for
/// single-node benches: Tables I and II); returns the elapsed duration.
/// `breakdown`, when non-null, receives the phase profile. `node_track`
/// names the node's trace tracks when a trace session is attached.
/// `last_span`, when non-null, receives the id of the node's final causal
/// span (0 if untraced) so follow-up spans — the scheduler's comm tail —
/// can chain to it. `start` offsets every recorded span on the simulated
/// clock and `chain_from` seeds the causal chain: the scheduler uses both
/// to run one node's groups back-to-back on a single connected per-rank
/// timeline.
SimTime node_run_time(const Workload& workload, std::size_t tasks,
                      const ClusterConfig& config,
                      NodeBreakdown* breakdown = nullptr,
                      const std::string& node_track = "node0",
                      std::uint64_t* last_span = nullptr,
                      SimTime start = SimTime::zero(),
                      std::uint64_t chain_from = 0);

/// Knobs of the steal-enabled scheduler.
struct StealPolicy {
  enum class Victim {
    kRandom,          ///< uniform random victim with queued work
    kLocalityBiased,  ///< prefer groups whose anchor the thief owns
  };
  Victim victim = Victim::kLocalityBiased;
  /// Migration byte fraction charged when the thief already owns the
  /// group's anchor coefficients in the DHT: only task descriptors cross
  /// the wire, the coefficient blocks are already local.
  double owned_bytes_fraction = 0.05;

  /// Defaults overridden from the environment: MH_STEAL_VICTIM
  /// ("random" | "locality") and MH_STEAL_OWNED_FRACTION (a fraction in
  /// [0, 1]). Unset or malformed values (another victim name, trailing
  /// characters, a fraction outside [0, 1]) keep the defaults.
  static StealPolicy from_env();
};

struct StealStats {
  std::size_t attempts = 0;      ///< steal requests issued
  std::size_t steals = 0;        ///< granted migrations
  std::size_t owned_steals = 0;  ///< thief already owned the coefficients
  std::size_t migrated_tasks = 0;
  double migrated_bytes = 0.0;
  SimTime migration_time;  ///< summed request + migration cost
};

struct StealScheduleResult {
  ClusterResult result;  ///< load_imbalance is the *achieved* balance
  StealStats steals;
  NodeLoads executed;  ///< tasks actually run per node, post-migration
};

/// Steal-enabled run. Groups start where `placement` put them; whenever a
/// node drains its queue it asks a victim for one whole group, and the
/// migration is granted when the thief finishes the group before the
/// victim would drain its remaining queue — shortening the victim's
/// projected finish — even after paying the request round trip plus the
/// coefficient transfer (group tasks x tensor bytes over
/// `interconnect_bandwidth`, plus latency) on the simulated clock.
/// `group_owner`, when non-empty, gives each group's coefficient home rank
/// (dht::owners_of over the group anchors): the locality-biased policy
/// steals owned groups first and pays only
/// `StealPolicy::owned_bytes_fraction` of the bytes for them. Steal and
/// migration spans land on the thief's "node<i>/phases" track, chained
/// into its causal span chain, so mh_trace_analyze attributes migration
/// cost like any other phase.
StealScheduleResult run_cluster_apply_stealing(
    const Workload& workload, const GroupMap& placement,
    const std::vector<std::size_t>& group_owner, const ClusterConfig& config,
    const StealPolicy& policy = {});

}  // namespace mh::cluster
