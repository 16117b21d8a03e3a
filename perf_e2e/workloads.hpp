// The four real-arithmetic workloads of the end-to-end Apply benchmark.
//
//   coulomb_d3      the examples/coulomb_smoothing input through serial
//                   ops::apply (d=3, k=5, Coulomb fit with M=35 terms);
//   tdse_d4         the examples/tdse_mini packet at k=10: three smoothing
//                   propagation steps (d=4, M=1) from the projected packet;
//   coulomb_world2  the coulomb_d3 input scattered over two ranks by a
//                   subtree owner map, applied by world::world_apply;
//   coulomb_hybrid  the coulomb_d3 input through rt::BatchingEngine: the
//                   CPU side runs rank-reduced ops::apply_task_compute, the
//                   "GPU" side one linalg::batch_fused_apply per batch.
//
// A workload is set up (projection, operator, block-cache fill, scatter),
// then runs one operation at a time. Every operation is checked against
// the serial full-rank reference computed once after set-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mra/function.hpp"
#include "obs/trace.hpp"
#include "ops/apply.hpp"

namespace mh::dht {
class DistributedFunction;
class SubtreeOwnerMap;
}  // namespace mh::dht

namespace mh::world {
class World;
}  // namespace mh::world

namespace mh::perf {

class HybridApply;
struct TracedPass;

enum class WorkloadKind { kCoulombD3, kTdseD4, kCoulombWorld2, kCoulombHybrid };

std::optional<WorkloadKind> parse_workload(std::string_view name);

/// What one operation produced.
struct OpOut {
  mra::Function out;
  std::vector<ops::ApplyStats> steps;  ///< one entry per Apply in the op
  std::vector<double> mass;            ///< tdse_d4: integral after each step
};

struct SetupTimes {
  double total_s = 0.0;
  double project_s = 0.0;
  double scatter_s = 0.0;
};

class Workload {
 public:
  Workload(WorkloadKind kind, std::uint64_t seed);
  ~Workload();

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One full set-up: project the input, build the operator, fill its
  /// block cache and, for coulomb_world2, scatter the input and start the
  /// World. With `keep` it replaces the state operations run on; without,
  /// it is only timed and then discarded (outside the timed interval).
  SetupTimes setup(bool keep);

  /// After the last set-up, untimed: the serial full-rank reference and a
  /// warm-up operation, so timed operations see warm caches.
  void prepare();

  /// One operation; tracing off unless traced() passes its `pass`.
  OpOut run(TracedPass* pass = nullptr);

  /// Does `op` match the reference? On failure `why` says how.
  bool check(const OpOut& op, std::string* why) const;

  /// One traced operation recording spans into `session`. Fills the
  /// per-layer values it can measure into `layer` (seconds, counts and
  /// ratios keyed by metric name). Returns whether the traced result passed
  /// its checks (for coulomb_d3 and tdse_d4: bitwise equal to ops::apply).
  bool traced(obs::TraceSession& session, std::map<std::string, double>& layer,
              std::string* why);

  std::size_t ndim() const noexcept { return fp_.ndim; }
  std::size_t k() const noexcept { return fp_.k; }
  /// Threads an operation keeps busy: the two World ranks, or the hybrid's
  /// CPU-pool and GPU-driver threads; otherwise one.
  std::size_t threads() const noexcept {
    return kind_ == WorkloadKind::kCoulombWorld2 ||
                   kind_ == WorkloadKind::kCoulombHybrid
               ? 2
               : 1;
  }

  /// Problem sizes of one operation (d, k, M, leaves, tasks, GEMMs, GFLOP).
  std::map<std::string, double> sizes() const;

 private:
  /// ops::apply of the input (tdse_d4: three propagation steps) — the
  /// coulomb_d3/tdse_d4 operation and every workload's reference; with
  /// `pass` set, its traced replay instead.
  OpOut serial(TracedPass* pass) const;

  WorkloadKind kind_;
  mra::FunctionParams fp_;
  mra::ScalarFn input_fn_;
  mra::Function input_;
  std::unique_ptr<ops::SeparatedConvolution> op_;
  ops::ApplyOptions cpu_opts_;  ///< rank reduction on the hybrid CPU side
  // coulomb_world2 (destroyed world first: its threads read the others).
  std::unique_ptr<dht::SubtreeOwnerMap> owners_;
  std::unique_ptr<dht::DistributedFunction> scattered_;
  std::unique_ptr<world::World> world_;
  // coulomb_hybrid
  std::unique_ptr<HybridApply> hybrid_;
  // Reference (serial, full rank) and its probe values.
  OpOut ref_;
  std::vector<double> ref_probes_;
};

}  // namespace mh::perf
