#include "clustersim/cluster.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>
#include <numeric>

#include "clustersim/cpu_model.hpp"
#include "common/diagnostics.hpp"
#include "common/hash.hpp"
#include "obs/health.hpp"
#include "runtime/dispatch.hpp"

namespace mh::cluster {
namespace {

// Steal scheduler constants. The cap on migrations (this many per group)
// is a determinism backstop, not a tuning knob; the seed drives the
// random-victim policy.
constexpr std::size_t kStealsPerGroup = 4;
constexpr std::uint64_t kStealSeed = 0x57ea1ULL;
// Migration byte fraction charged when the thief already owns the group's
// anchor coefficients in the DHT: only task descriptors cross the wire,
// the coefficient blocks are already local.
constexpr double kOwnedBytesFraction = 0.05;

// Every node's accelerator (paper §III).
const gpu::DeviceSpec kNodeDevice = gpu::DeviceSpec::tesla_m2090();

// Span sink for one node's phase track; a null session makes every call a
// no-op so the simulation paths need no guards. Spans carry causal
// identity: `link` names the preceding span and the batch task; the
// returned id lets the caller chain the next span.
struct NodeTracer {
  obs::TraceSession* session = nullptr;
  std::uint32_t phases = 0;

  std::uint64_t span(const char* name, obs::Category cat, SimTime start,
                     SimTime end, obs::TraceSession::SimLink link = {},
                     std::initializer_list<obs::SpanArg> args = {}) const {
    if (session != nullptr && end > start) {
      return session->record_sim_linked(phases, name, cat, start, end, link,
                                        args);
    }
    return 0;
  }
};

NodeTracer make_tracer(const ClusterConfig& config,
                       const std::string& node_track) {
  NodeTracer tracer;
  tracer.session = config.trace != nullptr ? config.trace
                                           : obs::TraceSession::current();
  if (tracer.session != nullptr) {
    tracer.phases = tracer.session->track(obs::ClockDomain::kSim,
                                          node_track + "/phases");
  }
  return tracer;
}

// Build the descriptor batch for `count` tasks, assigning still-untouched
// operator blocks (device-cache misses) to the earliest tasks.
std::vector<gpu::GpuTaskDesc> make_batch(const Workload& workload,
                                         std::size_t count,
                                         std::size_t& remaining_new_blocks) {
  std::vector<gpu::GpuTaskDesc> batch(count);
  const std::size_t touched = workload.shape.steps();
  for (auto& desc : batch) {
    desc.shape = workload.shape;
    desc.h_blocks_touched = touched;
    desc.h_blocks_new = std::min(touched, remaining_new_blocks);
    remaining_new_blocks -= desc.h_blocks_new;
  }
  return batch;
}

// GPU device-memory feasibility: input tree share + write-once cache.
bool gpu_fits(const Workload& workload, std::size_t tasks) {
  const double cache_bytes = static_cast<double>(workload.unique_h_blocks) *
                             workload.shape.h_block_bytes();
  const double data_bytes =
      static_cast<double>(tasks) * workload.gpu_bytes_per_task;
  return cache_bytes + data_bytes <= kNodeDevice.memory_bytes;
}

// Records the batch's phase spans and returns the id of the last one, so
// the next batch (or the comm tail) can chain to it. `link` seeds the
// chain: parent = preceding span, task = the batch's task id (0 lets the
// first recorded span start a task under its own id).
std::uint64_t record_batch(NodeBreakdown* bd, const NodeTracer& tracer,
                           const gpu::BatchTiming& timing,
                           obs::TraceSession::SimLink link = {}) {
  if (bd != nullptr) {
    bd->host_data += timing.host_prep + timing.host_post;
    bd->dispatch += timing.dispatch;
    bd->transfers += timing.transfer_in + timing.transfer_out;
    bd->gpu_kernels += timing.kernel_span;
  }
  // Phase spans laid out back-to-back in data-path order (Figure 3), each
  // chained to its predecessor; the device's own stream tracks carry the
  // exact per-kernel timing.
  std::uint64_t prev = link.parent;
  std::uint64_t task = link.task;
  const auto chain = [&](const char* name, obs::Category cat, SimTime s,
                         SimTime e) {
    const std::uint64_t id = tracer.span(name, cat, s, e, {prev, task});
    if (id != 0) {
      prev = id;
      if (task == 0) task = id;  // root span started the batch's task
    }
  };
  SimTime t = timing.start;
  chain("preprocess", obs::Category::kPreprocess, t, t + timing.host_prep);
  t += timing.host_prep;
  chain("dispatch", obs::Category::kBatchFlush, t, t + timing.dispatch);
  t += timing.dispatch;
  chain("h2d", obs::Category::kTransfer, t, t + timing.transfer_in);
  t += timing.transfer_in;
  chain("kernels", obs::Category::kGpuKernel, t, t + timing.kernel_span);
  t += timing.kernel_span;
  chain("d2h", obs::Category::kTransfer, t, t + timing.transfer_out);
  chain("postprocess", obs::Category::kPostprocess,
        timing.total_done - timing.host_post, timing.total_done);
  return prev;
}

// CPU time of `tasks` tasks on one node (the CPU-only node time, and the
// CPU share of a hybrid batch).
SimTime cpu_time(const Workload& workload, const ClusterConfig& config,
                 std::size_t tasks) {
  return cpu_batch_time(workload.shape, tasks, config.cpu_compute_threads,
                        config.rank_fraction);
}

// CPU-only (m) and GPU-only (n) times of one `probe`-task batch with a
// warm operator cache: the rates behind the k* split. n stays zero in
// CPU-only mode, where no device is probed.
struct ProbeTimes {
  SimTime m, n;
};

ProbeTimes probe_times(const Workload& workload, const ClusterConfig& config,
                       std::size_t probe) {
  ProbeTimes out{cpu_time(workload, config, probe), SimTime::zero()};
  if (config.mode != ComputeMode::kCpuOnly) {
    gpu::GpuDevice device(kNodeDevice, config.gpu.streams);
    std::size_t warm = 0;
    out.n = gpu::run_apply_batch(device, nullptr,
                                 make_batch(workload, probe, warm), config.gpu,
                                 SimTime::zero())
                .elapsed();
  }
  return out;
}

// The GPU/hybrid node time runs on an absolute clock from `start` and
// returns the end time; node_run_time converts back to a duration. The
// causal chain is seeded with `chain_from` so back-to-back invocations on
// one node (the steal scheduler runs one group per call) form a single
// connected per-rank timeline. A `cpu_fraction` of 0 is GPU-only: every
// batch goes whole to the device.
SimTime hybrid_node_time(const Workload& workload, std::size_t tasks,
                         const ClusterConfig& config, double cpu_fraction,
                         NodeBreakdown* breakdown, const NodeTracer& tracer,
                         const std::string& node_track,
                         std::uint64_t* last_span, SimTime start,
                         std::uint64_t chain_from) {
  gpu::GpuDevice device(kNodeDevice, config.gpu.streams);
  if (tracer.session != nullptr) {
    device.set_trace(tracer.session, node_track + "/gpu/");
  }

  // Split fraction: explicit, or k* = n/(m+n) from the model's own rates
  // measured on a probe batch (mirrors the paper: the developer knows the
  // relative CPU/GPU performance of the operator).
  double frac = cpu_fraction;
  double gpu_per_item_s = 0.0;  // probe GPU-only seconds per item
  if (frac < 0.0) {
    const std::size_t probe =
        std::min<std::size_t>(std::max<std::size_t>(tasks, 1), kBatchSize);
    const auto [m, n] = probe_times(workload, config, probe);
    frac = rt::optimal_cpu_fraction(m.sec(), n.sec());
    gpu_per_item_s = n.sec() / static_cast<double>(probe);
    if (tracer.session != nullptr) {
      // Zero-length marker carrying the measured full-batch CPU-only (m)
      // and GPU-only (n) times — the overlap-model analyzer compares every
      // batch's measured makespan against m·n/(m+n) built from these.
      tracer.session->record_sim_linked(
          tracer.phases, "probe", obs::Category::kOther, start, start, {},
          {{"m_us", m.us()},
           {"n_us", n.us()},
           {"items", static_cast<double>(probe)},
           {"frac", frac}});
    }
  }

  std::size_t remaining_new = workload.unique_h_blocks;
  SimTime t = start;
  std::size_t left = tasks;
  std::uint64_t prev_last = chain_from;
  while (left > 0) {
    const std::size_t count = std::min(left, kBatchSize);
    std::size_t ncpu = rt::cpu_share(count, frac);
    // Quantization-aware refinement (auto-split only): cpu_batch_time runs
    // in whole rounds of cpu_compute_threads items, so the continuous k*
    // can strand a mostly-idle final CPU round (e.g. 32 items on 10
    // threads = 4 rounds, the last one 80% empty). Snap ncpu to the
    // neighbouring round boundaries and keep whichever candidate the model
    // predicts finishes the batch soonest. An explicit cpu_fraction stays
    // untouched — it is the caller's ablation knob.
    if (gpu_per_item_s > 0.0 && config.cpu_compute_threads > 0) {
      const std::size_t threads = config.cpu_compute_threads;
      const auto predicted_bound = [&](std::size_t nc) {
        const double cpu_s =
            nc == 0 ? 0.0 : cpu_time(workload, config, nc).sec();
        return std::max(cpu_s,
                        gpu_per_item_s * static_cast<double>(count - nc));
      };
      std::size_t best = ncpu;
      const std::size_t down = ncpu - (ncpu % threads);
      for (const std::size_t cand : {down, down + threads}) {
        if (cand <= count && predicted_bound(cand) < predicted_bound(best)) {
          best = cand;
        }
      }
      ncpu = best;
    }
    const std::size_t ngpu = count - ncpu;
    const SimTime cpu_part = cpu_time(workload, config, ncpu);
    const SimTime cpu_done = t + cpu_part;
    if (breakdown != nullptr) breakdown->cpu_compute += cpu_part;
    // Both sides of the batch share one task id and chain causally to the
    // previous batch's last span (the barrier at t).
    const std::uint64_t task = obs::mint_span_id();
    std::uint64_t cpu_id = 0;
    if (ncpu > 0) {
      cpu_id = tracer.span("cpu-compute", obs::Category::kCpuCompute, t,
                           cpu_done, {prev_last, task},
                           {{"items", static_cast<double>(count)},
                            {"ncpu", static_cast<double>(ncpu)}});
    }
    SimTime gpu_done = t;
    std::uint64_t gpu_last = 0;
    if (ngpu > 0) {
      const auto batch = make_batch(workload, ngpu, remaining_new);
      device.set_trace_link({prev_last, task});
      const auto timing =
          gpu::run_apply_batch(device, nullptr, batch, config.gpu, t);
      gpu_last = record_batch(breakdown, tracer, timing, {prev_last, task});
      gpu_done = timing.total_done;
    }
    t = max(cpu_done, gpu_done);
    // The next batch chains to whichever side finished last; the earlier
    // side joins that barrier through an explicit edge (a single parent
    // field cannot express the two-into-one join).
    const std::uint64_t late = cpu_done >= gpu_done ? cpu_id : gpu_last;
    const std::uint64_t early = cpu_done >= gpu_done ? gpu_last : cpu_id;
    if (tracer.session != nullptr && late != 0 && early != 0) {
      tracer.session->add_edge(early, late);
    }
    prev_last = late != 0 ? late : early;
    left -= count;
  }
  if (last_span != nullptr) *last_span = prev_last;
  return t;
}

// Seconds per task under the node model — the steal scheduler's shared
// projection for both sides of a profitability check. Exact modulo batch
// quantization for CPU-only; probe-derived (warm operator cache) for GPU
// and hybrid, where the hybrid ideal per-batch time is m·n/(m+n) or the
// explicit split's max side.
double estimate_task_seconds(const Workload& workload,
                             const ClusterConfig& config) {
  const auto [m, n] = probe_times(workload, config, kBatchSize);
  double batch_s = m.sec();
  if (config.mode == ComputeMode::kGpuOnly) {
    batch_s = n.sec();
  } else if (config.mode == ComputeMode::kHybrid) {
    batch_s = config.cpu_fraction >= 0.0
                  ? rt::overlap_time(m.sec(), n.sec(), config.cpu_fraction)
                  : rt::optimal_overlap_time(m.sec(), n.sec());
  }
  return batch_s / static_cast<double>(kBatchSize);
}

// The one cluster loop: per-node FIFO queues of whole groups (sizes[g]
// tasks each, starting where `placement` put them) run on per-node
// simulated clocks, earliest clock first. A non-null `policy` lets drained
// nodes steal groups off stragglers; a null one is the paper's static
// load balancing, where each node simply runs its own queue. Every node
// then pays its remote-accumulation comm tail.
StealScheduleResult schedule(const Workload& workload,
                             const std::vector<std::size_t>& sizes,
                             const GroupMap& placement,
                             const std::vector<std::size_t>& group_owner,
                             const ClusterConfig& config,
                             const StealPolicy* policy) {
  MH_CHECK(config.nodes >= 1, "need at least one node");
  MH_CHECK(placement.nodes == config.nodes,
           "placement node count / cluster node count mismatch");
  MH_CHECK(placement.node_of.size() == sizes.size(),
           "placement / workload group count mismatch");
  MH_CHECK(group_owner.empty() || group_owner.size() == sizes.size(),
           "group owner / group count mismatch");

  StealScheduleResult out;
  ClusterResult& result = out.result;
  const std::size_t nodes = config.nodes;
  out.executed.assign(nodes, 0);
  const NodeLoads initial = placement.loads(sizes);
  result.load_imbalance = imbalance(initial);

  // An all-zero schedule is feasible but vacuous: makespan 0 and
  // imbalance 1.0 would read as a perfect run, so say what happened.
  if (std::accumulate(initial.begin(), initial.end(), std::size_t{0}) == 0) {
    result.empty = true;
    result.note = "empty schedule: no tasks";
    result.node_times.assign(nodes, SimTime::zero());
    return out;
  }

  // Feasibility against the worst *initial* load: stealing only moves work
  // off that node, so the static bound is the conservative one.
  if (config.mode != ComputeMode::kCpuOnly) {
    const std::size_t worst =
        *std::max_element(initial.begin(), initial.end());
    if (!gpu_fits(workload, worst)) {
      result.feasible = false;
      result.note = "data per node too large for the GPU RAM";
      return out;
    }
  }

  // Per-node discrete-event state: a FIFO queue of whole groups and a
  // local clock. Steal decisions compare clocks plus the shared per-task
  // estimate, so both sides of a profitability check use one yardstick.
  struct NodeState {
    std::deque<std::size_t> queue;
    SimTime t;
    std::size_t pending = 0;  // queued tasks
    NodeBreakdown breakdown;
    std::uint64_t chain = 0;  // last causal span on this node's track
    ClusterConfig cfg;
    std::string track;
    NodeTracer tracer;
  };
  std::vector<NodeState> ns(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    // Per-rank sessions, when provided, give every node its own
    // TraceSession (merged later with write_merged_chrome_trace).
    ns[i].cfg = config;
    if (!config.node_traces.empty()) {
      ns[i].cfg.trace = config.node_traces[i % config.node_traces.size()];
    }
    ns[i].track = "node" + std::to_string(i);
    ns[i].tracer = make_tracer(ns[i].cfg, ns[i].track);
  }
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    if (sizes[g] == 0) continue;  // empty groups neither run nor migrate
    NodeState& home = ns[placement.node_of[g]];
    home.queue.push_back(g);
    home.pending += sizes[g];
  }

  // Live health plane: per-node queue depth / progress and the steal
  // counters ship as delta-encoded snapshots on the simulated clock, once
  // at placement time and once after every executed group — the straggler
  // rule sees depths diverge from the cluster median while the run is
  // still in flight.
  std::unique_ptr<obs::ScenarioTelemetry> tel;
  double tick_time = 0.0;
  const auto publish_health = [&](double at) {
    if (config.health == nullptr) return;
    for (std::size_t i = 0; i < nodes; ++i) {
      tel->gauge(i, "mh_rank_alive", 1.0);
      tel->gauge(i, "mh_rank_queue_depth",
                 static_cast<double>(ns[i].pending));
      tel->counter(i, "mh_rank_tasks_executed",
                   static_cast<double>(out.executed[i]));
    }
    tel->counter(0, "mh_steal_requests",
                 static_cast<double>(out.steals.attempts));
    tel->counter(0, "mh_steal_grants",
                 static_cast<double>(out.steals.steals));
    tel->counter(0, "mh_steal_denials",
                 static_cast<double>(out.steals.attempts - out.steals.steals));
    // Node clocks run at their own pace; the detector tick advances on the
    // latest time observed so the alert timeline stays monotone.
    tick_time = std::max(tick_time, at);
    config.health->tick(tel->collect(tick_time), tick_time);
  };
  if (config.health != nullptr) {
    tel = std::make_unique<obs::ScenarioTelemetry>(nodes);
    publish_health(0.0);
  }

  const double msg_bytes = workload.shape.tensor_bytes();
  // Steal-only setup. A static run skips the estimate: its probe batch
  // would move the device occupancy gauge.
  const double est =
      policy != nullptr ? estimate_task_seconds(workload, config) : 0.0;
  const std::size_t cap = kStealsPerGroup * sizes.size();
  std::uint64_t rng = mix64(kStealSeed | 1);
  const auto next_rand = [&rng]() {
    rng = mix64(rng + 0x9e3779b97f4a7c15ULL);
    return rng;
  };

  const auto owned_by = [&](std::size_t g, std::size_t rank) {
    return !group_owner.empty() && group_owner[g] == rank;
  };

  // Bytes and cost of migrating group g (request round trip + transfer).
  // Owned groups ship descriptors only: their coefficient blocks are
  // already local to the thief.
  const auto steal_bytes = [&](std::size_t g, bool owned) {
    return static_cast<double>(sizes[g]) * msg_bytes *
           (owned ? kOwnedBytesFraction : 1.0);
  };
  const auto steal_cost = [&](std::size_t g, bool owned) {
    return SimTime::seconds(3.0 * kMessageLatency.sec() +
                            steal_bytes(g, owned) /
                                config.interconnect_bandwidth);
  };

  const auto attempt_steal = [&](std::size_t thief) -> bool {
    NodeState& me = ns[thief];
    std::size_t victim = nodes;
    std::size_t group = sizes.size();
    // A candidate is profitable when the thief finishes the group before
    // the victim would drain its whole queue — the migration then
    // shortens the victim's projected finish instead of shuffling work.
    const auto profitable = [&](std::size_t v, std::size_t g, bool owned) {
      const SimTime victim_done =
          ns[v].t +
          SimTime::seconds(est * static_cast<double>(ns[v].pending));
      return me.t + steal_cost(g, owned) +
                 SimTime::seconds(est * static_cast<double>(sizes[g])) <
             victim_done;
    };
    if (policy->victim == StealPolicy::Victim::kRandom) {
      std::vector<std::size_t> candidates;
      for (std::size_t v = 0; v < nodes; ++v) {
        if (v != thief && !ns[v].queue.empty()) candidates.push_back(v);
      }
      if (candidates.empty()) return false;
      victim = candidates[next_rand() % candidates.size()];
      group = ns[victim].queue.back();
    } else {
      // LPT-style selection: among every profitable (victim, group) pair,
      // take the group worth the most net simulated time to the thief —
      // compute gained minus migration cost. Big subtrees are the urgent
      // candidates (their steal window closes as soon as the victim's
      // FIFO reaches them, and moving one frees its victim to turn thief
      // in cascade), and the locality bias enters through the cost term —
      // owned groups ship descriptors instead of coefficients, so at
      // comparable size the owned group wins — rather than a hard
      // owned-first rule that would trade balance for locality.
      SimTime best = SimTime::seconds(-1e300);
      SimTime best_owned_net = SimTime::seconds(-1e300);
      std::size_t owned_victim = nodes;
      std::size_t owned_group = sizes.size();
      for (std::size_t v = 0; v < nodes; ++v) {
        if (v == thief || ns[v].queue.empty()) continue;
        for (const std::size_t g : ns[v].queue) {
          const bool owned = owned_by(g, thief);
          if (!profitable(v, g, owned)) continue;
          const SimTime net =
              SimTime::seconds(est * static_cast<double>(sizes[g])) -
              steal_cost(g, owned);
          if (net > best) {
            best = net;
            victim = v;
            group = g;
          }
          if (owned && net > best_owned_net) {
            best_owned_net = net;
            owned_victim = v;
            owned_group = g;
          }
        }
      }
      if (victim == nodes) return false;
      // Bounded owned preference: take the best owned candidate instead
      // of the overall best when it is worth at least half as much — the
      // descriptor-only migration is preferred, but never at more than a
      // 2x sacrifice in compute gained.
      if (owned_victim != nodes &&
          best_owned_net.sec() >= 0.5 * best.sec()) {
        victim = owned_victim;
        group = owned_group;
      }
    }
    ++out.steals.attempts;
    const bool owned = owned_by(group, thief);
    if (!profitable(victim, group, owned)) return false;

    // Commit: move the group and charge the migration on the thief's
    // clock. The request round trip (2 latencies) and the transfer itself
    // land as kComm spans chained into the thief's causal timeline, so
    // mh_trace_analyze attributes migration cost like any other phase.
    NodeState& vic = ns[victim];
    vic.queue.erase(std::find(vic.queue.begin(), vic.queue.end(), group));
    vic.pending -= sizes[group];
    const double bytes = steal_bytes(group, owned);
    const SimTime cost = steal_cost(group, owned);
    const SimTime request_done = me.t + kMessageLatency + kMessageLatency;
    const std::uint64_t req = me.tracer.span(
        "steal", obs::Category::kComm, me.t, request_done, {me.chain, 0},
        {{"victim", static_cast<double>(victim)},
         {"group", static_cast<double>(group)},
         {"tasks", static_cast<double>(sizes[group])}});
    const std::uint64_t mig = me.tracer.span(
        "migrate", obs::Category::kComm, request_done, me.t + cost,
        {req != 0 ? req : me.chain, 0},
        {{"bytes", bytes}, {"owned", owned ? 1.0 : 0.0}});
    if (mig != 0) {
      me.chain = mig;
    } else if (req != 0) {
      me.chain = req;
    }
    me.breakdown.comm += cost;
    me.t += cost;
    me.queue.push_back(group);
    me.pending += sizes[group];
    ++out.steals.steals;
    if (owned) ++out.steals.owned_steals;
    out.steals.migrated_tasks += sizes[group];
    out.steals.migrated_bytes += bytes;
    out.steals.migration_time += cost;
    return true;
  };

  while (true) {
    // Idle (drained) nodes steal before the next group runs, earliest
    // clock first; each success can unblock further steals, so loop until
    // no idle node finds a profitable migration.
    bool progress = policy != nullptr;
    while (progress && out.steals.steals < cap) {
      progress = false;
      std::vector<std::size_t> idle;
      for (std::size_t i = 0; i < nodes; ++i) {
        if (ns[i].queue.empty()) idle.push_back(i);
      }
      std::sort(idle.begin(), idle.end(),
                [&](std::size_t a, std::size_t b) {
                  if (ns[a].t != ns[b].t) return ns[a].t < ns[b].t;
                  return a < b;
                });
      for (const std::size_t i : idle) {
        if (attempt_steal(i)) {
          progress = true;
          break;
        }
      }
    }
    // Run the next queued group on the node with the earliest clock.
    std::size_t next = nodes;
    for (std::size_t i = 0; i < nodes; ++i) {
      if (!ns[i].queue.empty() && (next == nodes || ns[i].t < ns[next].t)) {
        next = i;
      }
    }
    if (next == nodes) break;
    NodeState& n = ns[next];
    const std::size_t g = n.queue.front();
    n.queue.pop_front();
    std::uint64_t last = 0;
    const SimTime dur = node_run_time(workload, sizes[g], n.cfg,
                                      &n.breakdown, n.track, &last, n.t,
                                      n.chain);
    if (last != 0) n.chain = last;
    n.t += dur;
    n.pending -= sizes[g];
    out.executed[next] += sizes[g];
    publish_health(n.t.sec());
  }

  // Comm tails and result assembly. Remote accumulations are
  // latency-dominated small messages, overlapped poorly with the tail of
  // the computation (conservatively additive). A node with no tasks sends
  // nothing: its comm span would be a parentless orphan on an empty rank.
  // load_imbalance reports the *achieved* balance (post-migration);
  // slowest_node_comm folds in any migration cost the slowest node paid
  // as a thief.
  result.load_imbalance = imbalance(out.executed);
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeState& n = ns[i];
    const std::size_t tasks = out.executed[i];
    SimTime total = n.t;
    if (tasks > 0) {
      const double msgs =
          static_cast<double>(tasks) * workload.remote_fraction;
      const SimTime comm =
          SimTime::seconds(msgs * (kMessageLatency.sec() +
                                   msg_bytes / config.interconnect_bandwidth));
      n.tracer.span("comm", obs::Category::kComm, n.t, n.t + comm,
                    {n.chain, 0});
      n.breakdown.comm += comm;
      total = n.t + comm;
    }
    result.node_times.push_back(total);
    if (total > result.makespan) {
      result.makespan = total;
      result.slowest_node_comm = n.breakdown.comm;
      result.slowest_breakdown = n.breakdown;
    }
  }
  publish_health(result.makespan.sec());
  return out;
}

}  // namespace

SimTime node_run_time(const Workload& workload, std::size_t tasks,
                      const ClusterConfig& config, NodeBreakdown* breakdown,
                      const std::string& node_track,
                      std::uint64_t* last_span, SimTime start,
                      std::uint64_t chain_from) {
  if (last_span != nullptr) *last_span = 0;
  if (tasks == 0) return SimTime::zero();
  const NodeTracer tracer = make_tracer(config, node_track);
  switch (config.mode) {
    case ComputeMode::kCpuOnly: {
      const SimTime t = cpu_time(workload, config, tasks);
      if (breakdown != nullptr) breakdown->cpu_compute += t;
      const std::uint64_t id =
          tracer.span("cpu-compute", obs::Category::kCpuCompute, start,
                      start + t, {chain_from, 0});
      if (last_span != nullptr) *last_span = id;
      return t;
    }
    case ComputeMode::kGpuOnly:
    case ComputeMode::kHybrid: {
      const double frac =
          config.mode == ComputeMode::kGpuOnly ? 0.0 : config.cpu_fraction;
      return hybrid_node_time(workload, tasks, config, frac, breakdown,
                              tracer, node_track, last_span, start,
                              chain_from) -
             start;
    }
  }
  MH_CHECK(false, "unknown compute mode");
  return SimTime::zero();
}

ClusterResult run_cluster_apply(const Workload& workload,
                                const NodeLoads& loads,
                                const ClusterConfig& config) {
  MH_CHECK(loads.size() == config.nodes, "load vector / node count mismatch");
  // Static load balancing is the no-steal run with one group per node.
  GroupMap one_per_node;
  one_per_node.nodes = config.nodes;
  one_per_node.node_of.resize(config.nodes);
  std::iota(one_per_node.node_of.begin(), one_per_node.node_of.end(),
            std::size_t{0});
  return schedule(workload, loads, one_per_node, {}, config, nullptr).result;
}

StealPolicy StealPolicy::from_env() {
  StealPolicy policy;
  if (const char* v = std::getenv("MH_STEAL_VICTIM")) {
    const std::string s(v);
    if (s == "random") {
      policy.victim = Victim::kRandom;
    } else if (s == "locality") {
      policy.victim = Victim::kLocalityBiased;
    }
  }
  return policy;
}

StealScheduleResult run_cluster_apply_stealing(
    const Workload& workload, const GroupMap& placement,
    const std::vector<std::size_t>& group_owner, const ClusterConfig& config,
    const StealPolicy& policy) {
  return schedule(workload, workload.group_sizes, placement, group_owner,
                  config, &policy);
}

}  // namespace mh::cluster
