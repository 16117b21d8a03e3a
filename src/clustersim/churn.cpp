#include "clustersim/churn.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/diagnostics.hpp"
#include "common/hash.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace mh::cluster {
namespace {

constexpr std::size_t kNoRank = std::numeric_limits<std::size_t>::max();
constexpr double kMessageHeaderBytes = 64.0;
// Per-task compute time on the simulated clock.
constexpr SimTime kTaskTime = SimTime::micros(50.0);

/// One entry of the exactly-once result ledger: a task's contribution
/// tensor, addressed to the target key it accumulates into.
struct TaskResult {
  mra::Key target;
  Tensor value;
};

struct TaskIdHash {
  std::size_t operator()(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>(mix64(id + 1));
  }
};

using Ledger = dht::ReplicatedStore<std::uint64_t, TaskResult, TaskIdHash>;

double tensor_bytes(const Tensor& t) {
  return static_cast<double>(t.size()) * 8.0 + kMessageHeaderBytes;
}

}  // namespace

ChurnResult run_churn_apply(const ops::SeparatedConvolution& op,
                            const mra::Function& f,
                            const ChurnConfig& config_in) {
  ChurnConfig config = config_in;
  // MH_TELEMETRY=1 arms an ambient plane on any churn run that didn't
  // install one explicitly; MH_DASHBOARD=path adds the live dashboard
  // file. The plane is an observer on the simulated clock, so arming it
  // from the environment cannot change the run's results.
  std::unique_ptr<obs::HealthPlane> env_plane;
  if (config.health == nullptr && obs::telemetry_enabled_from_env()) {
    obs::HealthPlane::Config env_cfg;
    env_cfg.ranks = config.ranks;
    env_cfg.dashboard_path = obs::dashboard_path_from_env();
    env_plane = std::make_unique<obs::HealthPlane>(env_cfg);
    config.health = env_plane.get();
  }
  MH_CHECK(config.ranks >= 1, "churn run needs at least one rank");
  MH_CHECK(op.params().ndim == f.params().ndim &&
               op.params().k == f.params().k,
           "operator/function parameter mismatch");
  MH_CHECK(std::is_sorted(config.events.begin(), config.events.end(),
                          [](const ChurnEvent& a, const ChurnEvent& b) {
                            return a.at < b.at;
                          }),
           "churn events must be chronological");
  fault::FaultInjector* faults =
      config.faults != nullptr ? config.faults : &fault::FaultInjector::global();
  obs::TraceSession* trace =
      config.trace != nullptr ? config.trace : obs::TraceSession::current();
  std::uint32_t recovery_track = 0;
  if (trace != nullptr) {
    recovery_track = trace->track(obs::ClockDomain::kSim, "churn/recovery");
  }

  // The full task set, fixed up front: task id = index. The result is a
  // pure function of this list, which is what makes churn invisible.
  const std::vector<ops::ApplyTask> tasks = ops::make_apply_tasks(op, f);
  const std::size_t ndim = f.params().ndim;

  ChurnStats stats;
  dht::ElasticFunction ef(f, config.ranks, config.subtree_level,
                          config.replication, config.seed);
  Ledger ledger(config.ranks, config.replication, config.seed,
                [](const std::uint64_t& id) { return mix64(id + 0x9e37u); });

  const double entry_bytes =
      tensor_bytes(Tensor::cube(ndim, f.params().k));
  const auto wire_time = [&config](double bytes, std::size_t messages) {
    return SimTime::seconds(bytes / config.interconnect_bandwidth) +
           config.message_latency * static_cast<double>(messages);
  };

  std::vector<SimTime> clocks(config.ranks);
  // Original rank id -> current store index (restarts compact the world,
  // re-adds may append); kNoRank while the rank is out of the world.
  std::vector<std::size_t> orig_to_cur(config.ranks);
  for (std::size_t r = 0; r < config.ranks; ++r) orig_to_cur[r] = r;

  std::vector<std::vector<std::uint64_t>> queues(config.ranks);
  for (std::uint64_t id = 0; id < tasks.size(); ++id) {
    queues[ef.owner(tasks[id].source)].push_back(id);
  }

  std::string last_checkpoint;
  std::size_t completed = 0;

  // Live health plane: per-rank lanes are keyed by *original* rank ids so
  // a kill/re-add pair flips one lane 1 -> 0 -> 1 even if restarts
  // renumber the world underneath. The minimum replica count is published
  // from the degraded store before repair runs, which is what lets the
  // replication-below-R alert fire inside the kill-to-repair window on
  // the simulated clock.
  std::unique_ptr<obs::ScenarioTelemetry> tel;
  double health_time = 0.0;
  const auto publish_health = [&](SimTime at) {
    if (config.health == nullptr) return;
    for (std::size_t orig = 0; orig < config.ranks; ++orig) {
      const std::size_t cur = orig_to_cur[orig];
      const bool alive =
          cur != kNoRank && cur < queues.size() && ef.store().alive(cur);
      tel->gauge(orig, "mh_rank_alive", alive ? 1.0 : 0.0);
      tel->gauge(orig, "mh_rank_queue_depth",
                 alive ? static_cast<double>(queues[cur].size()) : 0.0);
    }
    tel->gauge(0, "mh_replication_min_copies",
               static_cast<double>(
                   std::min(ef.store().min_copies(), ledger.min_copies())));
    tel->counter(0, "mh_churn_tasks_executed",
                 static_cast<double>(stats.tasks));
    health_time = std::max(health_time, at.sec());
    config.health->tick(tel->collect(health_time), health_time);
  };
  if (config.health != nullptr) {
    tel = std::make_unique<obs::ScenarioTelemetry>(config.ranks);
    publish_health(SimTime::zero());
  }

  const auto run_task = [&](std::size_t rank, std::uint64_t id) {
    if (ledger.contains(id)) return;  // exactly-once: a re-homed duplicate
    const ops::ApplyTask& task = tasks[id];
    const Tensor* source = ef.find(task.source);
    MH_CHECK(source != nullptr, "task source leaf has no live copy");
    Tensor value = ops::apply_task_compute(op, *source, task.source.level(),
                                           task.disp);
    const double bytes = tensor_bytes(value);
    clocks[rank] += kTaskTime;
    const auto holders = ledger.holders(id);
    std::size_t remote = holders.size();
    for (const std::size_t h : holders) remote -= (h == rank) ? 1 : 0;
    clocks[rank] += wire_time(bytes * static_cast<double>(remote), remote);
    ledger.put(rank, id, TaskResult{task.target, std::move(value)}, faults);
    ++stats.tasks;
    ++completed;
  };

  const auto rehome_queues = [&] {
    // Re-derive every queued task's home from the current owner. Collect
    // then redistribute so a mid-loop move is never visited twice.
    std::vector<std::uint64_t> moved;
    for (std::size_t r = 0; r < queues.size(); ++r) {
      std::vector<std::uint64_t> keep;
      for (const std::uint64_t id : queues[r]) {
        if (ef.owner(tasks[id].source) == r) {
          keep.push_back(id);
        } else {
          moved.push_back(id);
        }
      }
      queues[r] = std::move(keep);
    }
    std::sort(moved.begin(), moved.end());
    for (const std::uint64_t id : moved) {
      queues[ef.owner(tasks[id].source)].push_back(id);
    }
    return moved.size();
  };

  const auto take_checkpoint = [&](SimTime at) {
    std::ostringstream os;
    ef.checkpoint(os);
    last_checkpoint = os.str();
    ++stats.checkpoints;
    const SimTime cost =
        wire_time(static_cast<double>(last_checkpoint.size()), 1);
    for (std::size_t r = 0; r < clocks.size(); ++r) {
      if (ef.store().alive(r)) clocks[r] += cost;
    }
    if (trace != nullptr) {
      trace->record_sim(recovery_track, "checkpoint",
                        obs::Category::kRecovery, at, at + cost,
                        {{"bytes",
                          static_cast<double>(last_checkpoint.size())}});
    }
  };

  // Repair both stores after a membership change and charge the survivors
  // the recovery traffic as a collective phase starting at `at`.
  const auto repair_all = [&](SimTime at, const char* why) {
    const dht::RecoveryStats fn_rep = ef.repair();
    const dht::RecoveryStats led_rep = ledger.repair(entry_bytes);
    stats.promoted += fn_rep.copied + led_rep.copied;
    stats.dropped_replicas += fn_rep.dropped + led_rep.dropped;
    const double bytes = fn_rep.bytes + led_rep.bytes;
    const std::size_t messages = fn_rep.messages + led_rep.messages;
    stats.recovery_bytes += bytes;
    const SimTime cost = wire_time(bytes, messages);
    stats.recovery_time += cost;
    for (std::size_t r = 0; r < clocks.size(); ++r) {
      if (!ef.store().alive(r)) continue;
      clocks[r] = max(clocks[r], at) + cost;
    }
    if (trace != nullptr) {
      trace->record_sim(recovery_track, why, obs::Category::kRecovery, at,
                        at + cost, {{"bytes", bytes}});
    }
  };

  // Checkpoint restart: rebuild the function into a world resized to the
  // survivors, carry the surviving ledger entries over, and re-queue every
  // task the ledger does not cover.
  const auto restart_from_checkpoint = [&](SimTime at) {
    ++stats.restarts;
    std::vector<std::size_t> live_cur;
    for (std::size_t r = 0; r < ef.ranks(); ++r) {
      if (ef.store().alive(r)) live_cur.push_back(r);
    }
    MH_CHECK(!live_cur.empty(), "restart with no survivors");
    const std::size_t new_ranks = live_cur.size();

    std::istringstream is(last_checkpoint);
    dht::ElasticFunction restored =
        dht::ElasticFunction::restore(is, new_ranks, config.replication);

    Ledger new_ledger(new_ranks, config.replication, config.seed,
                      [](const std::uint64_t& id) {
                        return mix64(id + 0x9e37u);
                      });
    std::vector<std::uint64_t> surviving = ledger.keys();
    std::sort(surviving.begin(), surviving.end());
    double carried = 0.0;
    for (const std::uint64_t id : surviving) {
      const TaskResult* entry = ledger.find(id);
      new_ledger.put(/*from_rank=*/0, id, *entry);
      carried += tensor_bytes(entry->value);
    }

    // Compact rank numbering: survivor live_cur[i] becomes rank i.
    std::vector<SimTime> new_clocks(new_ranks);
    SimTime resume = at;
    for (const std::size_t r : live_cur) resume = max(resume, clocks[r]);
    const double restart_bytes =
        static_cast<double>(last_checkpoint.size()) + carried;
    const SimTime cost = wire_time(restart_bytes, new_ranks);
    stats.recovery_bytes += restart_bytes;
    stats.recovery_time += cost;
    for (std::size_t r = 0; r < new_ranks; ++r) {
      new_clocks[r] = resume + cost;
    }
    for (std::size_t orig = 0; orig < orig_to_cur.size(); ++orig) {
      const std::size_t cur = orig_to_cur[orig];
      orig_to_cur[orig] = kNoRank;
      if (cur == kNoRank || !ef.store().alive(cur)) continue;
      for (std::size_t i = 0; i < new_ranks; ++i) {
        if (live_cur[i] == cur) orig_to_cur[orig] = i;
      }
    }

    ef = std::move(restored);
    ledger = std::move(new_ledger);
    clocks = std::move(new_clocks);
    queues.assign(new_ranks, {});
    for (std::uint64_t id = 0; id < tasks.size(); ++id) {
      if (ledger.contains(id)) continue;
      queues[ef.owner(tasks[id].source)].push_back(id);
      ++stats.rehomed_tasks;
    }
    if (trace != nullptr) {
      trace->record_sim(recovery_track, "restart", obs::Category::kRecovery,
                        at, at + cost, {{"bytes", restart_bytes}});
    }
  };

  const auto apply_event = [&](const ChurnEvent& event) {
    const std::size_t cur = event.rank < orig_to_cur.size()
                                ? orig_to_cur[event.rank]
                                : kNoRank;
    if (event.kind == ChurnEvent::Kind::kKill) {
      MH_CHECK(cur != kNoRank && ef.store().alive(cur),
               "churn kill targets a rank that is not live");
      ++stats.kills;
      const std::size_t lost = ef.kill(cur);
      const auto ledger_report = ledger.kill(cur);
      std::vector<std::uint64_t> orphans = std::move(queues[cur]);
      queues[cur].clear();
      // Degraded-state tick: the store has lost copies but repair has not
      // run yet, so rank-death and replication-below-R fire here.
      publish_health(event.at);
      if (lost > 0) {
        stats.lost_leaves += lost;
        if (last_checkpoint.empty()) {
          // Unrecoverable: replication did not cover the loss and there is
          // no snapshot. Surface the typed error instead of limping on.
          throw fault::FaultError(
              fault::ErrorCode::kDataLost,
              "churn: rank " + std::to_string(event.rank) + " took " +
                  std::to_string(lost) +
                  " leaves with no surviving replica and no checkpoint "
                  "exists");
        }
        restart_from_checkpoint(event.at);
        publish_health(event.at);
        return;
      }
      repair_all(event.at, "promote_replicas");
      std::sort(orphans.begin(), orphans.end());
      for (const std::uint64_t id : orphans) {
        queues[ef.owner(tasks[id].source)].push_back(id);
      }
      stats.rehomed_tasks += orphans.size();
      // Ledger entries whose every copy sat on the dead rank: deterministic
      // re-execution restores them (same inputs, same bits).
      std::vector<std::uint64_t> lost_ids = ledger_report.lost;
      std::sort(lost_ids.begin(), lost_ids.end());
      for (const std::uint64_t id : lost_ids) {
        queues[ef.owner(tasks[id].source)].push_back(id);
        ++stats.reexecuted_tasks;
      }
      // Post-repair tick: replicas are back at full strength, so
      // replication-below-R resolves (the dead rank's lane stays down).
      publish_health(event.at);
    } else {
      ++stats.revives;
      std::size_t rank = cur;
      if (rank != kNoRank && !ef.store().alive(rank)) {
        ef.revive(rank);
        ledger.revive(rank);
        clocks[rank] = event.at;
      } else {
        // The slot was compacted away by a restart (or never existed):
        // rejoin as a fresh rank.
        MH_CHECK(cur == kNoRank, "churn re-add targets a live rank");
        rank = ef.add_rank();
        MH_CHECK(ledger.add_rank() == rank, "store rank counts diverged");
        clocks.push_back(event.at);
        queues.emplace_back();
        if (event.rank < orig_to_cur.size()) orig_to_cur[event.rank] = rank;
      }
      // repair() hands the rejoined rank exactly its rendezvous share —
      // and nothing else, so it never double-owns an entry.
      repair_all(event.at, "rebalance_rejoin");
      stats.rehomed_tasks += rehome_queues();
      // Rejoin tick: the revived rank's liveness lane flips back to 1 and
      // any rank-death alert on it resolves.
      publish_health(event.at);
    }
  };

  std::size_t next_event = 0;
  while (true) {
    // Next runnable rank: the live rank with work and the smallest clock.
    std::size_t run_rank = kNoRank;
    for (std::size_t r = 0; r < queues.size(); ++r) {
      if (!ef.store().alive(r) || queues[r].empty()) continue;
      if (run_rank == kNoRank || clocks[r] < clocks[run_rank]) run_rank = r;
    }
    if (run_rank == kNoRank) {
      // No work left; fire any remaining scripted events at their times.
      if (next_event >= config.events.size()) break;
      apply_event(config.events[next_event]);
      ++next_event;
      continue;
    }
    if (next_event < config.events.size() &&
        config.events[next_event].at <= clocks[run_rank]) {
      apply_event(config.events[next_event]);
      ++next_event;
      continue;  // membership changed; re-pick the runnable rank
    }
    const std::uint64_t id = queues[run_rank].front();
    queues[run_rank].erase(queues[run_rank].begin());
    run_task(run_rank, id);
    if (config.checkpoint_every > 0 && completed > 0 &&
        completed % config.checkpoint_every == 0) {
      take_checkpoint(clocks[run_rank]);
    }
    if (config.health != nullptr && config.telemetry_every > 0 &&
        completed % config.telemetry_every == 0) {
      publish_health(clocks[run_rank]);
    }
  }

  // Completeness scrub: write-through copies dropped by injected send
  // faults can leave a task with no surviving ledger entry. Re-execute
  // until the ledger covers the task set (deterministic, so the bits are
  // unaffected; bounded — each pass can only shrink the missing set unless
  // every re-put copy is dropped again).
  for (std::size_t pass = 0; pass < 64; ++pass) {
    std::vector<std::uint64_t> missing;
    for (std::uint64_t id = 0; id < tasks.size(); ++id) {
      if (!ledger.contains(id)) missing.push_back(id);
    }
    if (missing.empty()) break;
    MH_CHECK(pass + 1 < 64, "ledger scrub failed to converge");
    for (const std::uint64_t id : missing) {
      const std::size_t rank = ef.owner(tasks[id].source);
      run_task(rank, id);
      ++stats.reexecuted_tasks;
    }
  }

  for (const SimTime t : clocks) stats.makespan = max(stats.makespan, t);
  publish_health(stats.makespan);

  // Final reduction in ascending task-id order: the one order every churn
  // script shares. This is what makes the result bitwise-reproducible.
  mra::Function out(f.params());
  for (std::uint64_t id = 0; id < tasks.size(); ++id) {
    const TaskResult* entry = ledger.find(id);
    MH_CHECK(entry != nullptr, "ledger incomplete after scrub");
    out.accumulate(entry->target, entry->value);
  }
  out.sum_down();

  auto& reg = obs::MetricsRegistry::global();
  reg.counter("mh_recovery_promotions_total",
              "replica copies re-created by repair")
      .inc(static_cast<double>(stats.promoted));
  reg.counter("mh_recovery_rehomed_tasks_total",
              "queued tasks moved off dead or onto rejoined ranks")
      .inc(static_cast<double>(stats.rehomed_tasks));
  reg.counter("mh_recovery_reexecuted_total",
              "tasks re-executed after result loss")
      .inc(static_cast<double>(stats.reexecuted_tasks));
  reg.counter("mh_recovery_checkpoints_total", "function snapshots taken")
      .inc(static_cast<double>(stats.checkpoints));
  reg.counter("mh_recovery_restarts_total",
              "checkpoint restarts into a resized world")
      .inc(static_cast<double>(stats.restarts));
  reg.counter("mh_recovery_bytes_total",
              "bytes of repair, restart, and carried-ledger traffic")
      .inc(stats.recovery_bytes);

  return ChurnResult{std::move(out), stats};
}

}  // namespace mh::cluster
