#include "clustersim/cpu_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/diagnostics.hpp"

namespace mh::cluster {
namespace {

// The node's CPU, the only one the paper runs (§III): 16 cores at the
// hand-tuned mtxmq rate on Interlagos, the aggregate L2 per node and the
// effective cache share per core, the thread-scaling efficiency loss per
// thread, and the thread cap once the L2 overflows.
constexpr std::size_t kCores = 16;
constexpr double kPeakFlopsPerCore = 6.0e9;
constexpr double kL2Bytes = 16.0 * 1024 * 1024;
constexpr double kPerCoreCacheBytes = 1.0 * 1024 * 1024;
constexpr double kContention = 0.08;
constexpr std::size_t kMemorySaturationThreads = 10;

}  // namespace

double task_working_set_bytes(const gpu::ApplyTaskShape& shape) {
  // Source, result, and one ping-pong temporary, plus the h blocks of all
  // terms streamed during the task.
  return 3.0 * shape.tensor_bytes() +
         static_cast<double>(shape.terms) * shape.h_block_bytes();
}

double per_core_rate(const gpu::ApplyTaskShape& shape) {
  // Rate declines as the per-task working set outgrows the per-core cache
  // share (paper: "for higher-dimensional tensors the CPU implementation is
  // less efficient, since tensors overflow L2").
  const double ws = task_working_set_bytes(shape);
  return kPeakFlopsPerCore / (1.0 + ws / kPerCoreCacheBytes);
}

SimTime cpu_task_time(const gpu::ApplyTaskShape& shape, double rank_fraction) {
  MH_CHECK(rank_fraction > 0.0 && rank_fraction <= 1.0,
           "rank fraction out of (0, 1]");
  return SimTime::seconds(shape.flops() * rank_fraction /
                          per_core_rate(shape));
}

double thread_speedup(const gpu::ApplyTaskShape& shape, std::size_t threads) {
  MH_CHECK(threads >= 1, "need at least one thread");
  std::size_t effective = std::min(threads, kCores);
  // Memory saturation: once the aggregate working set of concurrently
  // running tasks exceeds L2, extra threads stop helping.
  const double ws = task_working_set_bytes(shape);
  if (ws * static_cast<double>(kCores) > kL2Bytes) {
    effective = std::min(effective, kMemorySaturationThreads);
  }
  const double t = static_cast<double>(effective);
  return t / (1.0 + kContention * (t - 1.0));
}

SimTime cpu_batch_time(const gpu::ApplyTaskShape& shape, std::size_t tasks,
                       std::size_t threads, double rank_fraction) {
  if (tasks == 0) return SimTime::zero();
  const SimTime per_task = cpu_task_time(shape, rank_fraction);
  const double speedup = thread_speedup(shape, threads);
  const auto concurrency = static_cast<double>(std::min(threads, kCores));
  // Tasks execute in rounds of `concurrency`; each round's wall time is one
  // task slowed by the contention/saturation factor concurrency/speedup.
  // A partial last round leaves cores idle — the underutilization that makes
  // small per-node batches (Tables V-VI) beat the "optimal" overlap formula.
  const double rounds = std::ceil(static_cast<double>(tasks) / concurrency);
  return per_task * (rounds * concurrency / speedup);
}

}  // namespace mh::cluster
