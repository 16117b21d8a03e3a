// Node churn over a distributed Apply: kill and re-add ranks mid-run and
// still produce the bitwise-identical result.
//
// The scenario the elastic-recovery subsystem exists for. A reconstructed
// function is scattered R-way replicated (dht::ElasticFunction) over
// simulated ranks; every Apply task runs on the rank owning its source leaf
// on a discrete-event simulated clock; results land in a replicated
// exactly-once ledger keyed by task id. Scripted churn events fire between
// task executions: a kill drops a rank (its shard, its ledger copies, its
// queued tasks), survivors promote replicas and absorb the orphaned tasks;
// a re-add brings the rank back empty and repair() re-balances onto it.
// When replication cannot cover a loss (R = 1), the run restarts from the
// last checkpoint into a world resized to the survivors.
//
// Bitwise determinism holds by construction, not by luck: each task's
// tensor is a deterministic function of its (source, displacement) alone,
// the ledger deduplicates re-executions, and the final reduction
// accumulates results in ascending task-id order — so the result depends
// only on the task set, never on execution order, churn, or injected
// message faults (dropped replica copies self-heal through repair and a
// final completeness scrub). The churn chaos CI tier asserts exactly this:
// run_churn_apply with kills == run_churn_apply without, to the bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "dht/elastic.hpp"
#include "fault/fault.hpp"
#include "mra/function.hpp"
#include "obs/trace.hpp"
#include "ops/apply.hpp"

namespace mh::obs {
class HealthPlane;
}

namespace mh::cluster {

struct ChurnEvent {
  enum class Kind {
    kKill,  ///< rank dies: shard lost, queue orphaned, survivors recover
    kAdd,   ///< a previously killed rank rejoins empty (repair re-balances)
  };
  Kind kind = Kind::kKill;
  SimTime at;        ///< simulated time the event fires
  std::size_t rank;  ///< target rank (original numbering)
};

struct ChurnConfig {
  std::size_t ranks = 8;
  int subtree_level = 2;     ///< replica co-location level (subtree anchors)
  std::size_t replication = 2;
  std::uint64_t seed = 0;    ///< placement seed (rendezvous orders)
  std::vector<ChurnEvent> events;  ///< chronological churn script
  /// Snapshot the function every N completed tasks (0 = never). The R=1
  /// restart path needs at least one checkpoint to recover a lost shard.
  std::size_t checkpoint_every = 0;
  /// Fault injector consulted per remote ledger copy (site `send`);
  /// nullptr means the process injector configured from MH_FAULTS.
  fault::FaultInjector* faults = nullptr;
  /// Simulated-time span sink for recovery spans; nullptr falls back to
  /// obs::TraceSession::current(). Non-owning.
  obs::TraceSession* trace = nullptr;
  /// Live health plane on the simulated clock: when non-null the scenario
  /// publishes per-rank liveness and queue depth plus the stores' minimum
  /// replica count — once at start, around every churn event (after the
  /// kill degrades the store, again after repair), and every
  /// `telemetry_every` completed tasks — so a kill fires rank-death and
  /// replication-below-R alerts *between* the kill and its repair, and
  /// both resolve on the recovery path. Non-owning.
  obs::HealthPlane* health = nullptr;
  std::size_t telemetry_every = 16;
};

struct ChurnStats {
  std::size_t tasks = 0;        ///< task executions (including re-runs)
  std::size_t kills = 0;
  std::size_t revives = 0;
  std::size_t promoted = 0;     ///< replica copies re-created by repair
  std::size_t dropped_replicas = 0;  ///< surplus copies released by repair
  std::size_t rehomed_tasks = 0;     ///< queued tasks moved off dead ranks
  std::size_t reexecuted_tasks = 0;  ///< re-runs (lost or dropped results)
  std::size_t checkpoints = 0;
  std::size_t restarts = 0;          ///< checkpoint restarts (resized world)
  std::size_t lost_leaves = 0;       ///< leaves that lost every replica
  double recovery_bytes = 0.0;       ///< repair + restart traffic
  SimTime recovery_time;             ///< simulated time spent recovering
  SimTime makespan;
};

struct ChurnResult {
  mra::Function result;
  ChurnStats stats;
};

/// Apply `op` to `f` under the churn script in `config`. The returned
/// function is bitwise-identical for any churn script that completes —
/// including an empty one, which is the fault-free reference. Throws a
/// typed fault::FaultError (kDataLost) when a loss is unrecoverable: every
/// replica of a leaf died and no checkpoint was taken.
ChurnResult run_churn_apply(const ops::SeparatedConvolution& op,
                            const mra::Function& f, const ChurnConfig& config);

}  // namespace mh::cluster
