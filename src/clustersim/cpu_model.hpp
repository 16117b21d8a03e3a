// Cost model of one Titan compute node's CPU side: a 16-core AMD Opteron
// 6200 (Interlagos) at 2 GHz with 16 MB aggregate L2 (paper §III).
//
// Three effects the paper's tables hinge on are modeled explicitly:
//   1. per-core GEMM rate: ~6 GFLOPS for small 3-D tensors (paper §II-C),
//      declining once a task's working set spills per-core cache;
//   2. thread scaling: sub-linear with a contention coefficient, and
//      saturating around 10 threads when the aggregate working set exceeds
//      the 16 MB L2 (Table V/VI discussion);
//   3. batch quantization: a batch of b tasks on t worker threads takes
//      ceil(b/t) task-rounds — with small per-node batches this
//      underutilization is what makes the hybrid runs beat the "optimal"
//      overlap prediction in Tables V and VI.
#pragma once

#include <cstddef>

#include "common/sim_time.hpp"
#include "gpusim/kernels.hpp"  // ApplyTaskShape

namespace mh::cluster {

/// Approximate per-task working set: source + result + temporaries plus the
/// operator blocks streamed through the caches.
double task_working_set_bytes(const gpu::ApplyTaskShape& shape);

/// Effective per-core flop rate for this task shape (cache-decline model).
double per_core_rate(const gpu::ApplyTaskShape& shape);

/// One task on one core. `rank_fraction` scales flops for the paper's §II-D
/// rank reduction (kred/k, 1.0 = full rank).
SimTime cpu_task_time(const gpu::ApplyTaskShape& shape,
                      double rank_fraction = 1.0);

/// Parallel speedup of `threads` workers on this shape: contention-limited
/// and L2-saturation-capped.
double thread_speedup(const gpu::ApplyTaskShape& shape, std::size_t threads);

/// A batch of `tasks` independent tasks on `threads` workers, including the
/// ceil-quantization of task rounds.
SimTime cpu_batch_time(const gpu::ApplyTaskShape& shape, std::size_t tasks,
                       std::size_t threads, double rank_fraction = 1.0);

}  // namespace mh::cluster
