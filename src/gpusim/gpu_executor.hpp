// Batch-level orchestration of Apply compute tasks on the simulated GPU —
// the executable model of the paper's Figure 3 data path:
//
//   preprocess (CPU data threads, parallel)
//     -> dispatcher gathers inputs into pre-locked pinned slabs (serial)
//     -> one aggregated H2D transfer per batch (+ h-block cache misses)
//     -> kernels round-robin over CUDA streams (custom fused or
//        cuBLAS-like per-step kernels)
//     -> aggregated D2H transfer of results
//     -> postprocess (CPU data threads, parallel)
//
// The `batched` switch degrades this to the naive port the paper argues
// against: per-task pageable transfers and per-task kernel launches, no
// aggregation — used by the ablation benches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_time.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_cache.hpp"
#include "gpusim/kernels.hpp"

namespace mh::gpu {

/// One compute task as the executor sees it. h-block reuse can be given
/// either explicitly (block ids, deduplicated against the device cache) or
/// statistically (counts), whichever the caller can afford to materialize.
struct GpuTaskDesc {
  ApplyTaskShape shape;
  /// Explicit operator-block ids this task needs (size d*terms or fewer).
  std::vector<std::uint64_t> h_block_ids;
  /// Statistical alternative when ids are omitted: how many blocks the task
  /// touches and how many of those are not yet device-resident.
  std::size_t h_blocks_touched = 0;
  std::size_t h_blocks_new = 0;
};

struct BatchConfig {
  std::size_t streams = 5;
  bool use_custom_kernel = true;
  bool batched = true;       ///< paper's aggregation vs naive per-task port
  bool pinned = true;        ///< staged through pre-locked pinned slabs
  bool device_cache = true;  ///< write-once h cache on the device
  /// Book a batched cuBLAS-like batch as one analytic span instead of one
  /// event per GEMM step (cluster-scale runs).
  bool cublas_aggregate = false;

  /// Rank reduction on the GPU (paper §II-D), kred/k with 1.0 = full rank:
  /// without dynamic parallelism it changes nothing (SMs reserved at
  /// launch); with it (the paper's §VI future work, Kepler) steps shrink by
  /// this fraction and the kernel reserves only the SMs the reduced tiles
  /// need.
  double gpu_rank_fraction = 1.0;
  bool dynamic_parallelism = false;
};

struct BatchTiming {
  SimTime start;
  SimTime total_done;     ///< when results are postprocessed
  SimTime host_prep;      ///< parallel preprocess wall time
  SimTime dispatch;       ///< serial dispatcher wall time
  SimTime transfer_in;    ///< aggregated input + h-miss transfer wall time
  SimTime kernel_span;    ///< first-launch to last-completion
  SimTime transfer_out;
  SimTime host_post;      ///< parallel postprocess wall time
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  double flops = 0.0;

  SimTime elapsed() const noexcept { return total_done - start; }
};

/// Execute one batch starting at `start`; returns its timing breakdown.
/// `cache` may be null when config.device_cache is false. A pure cost
/// model: it never fails (faults are injected at the BatchingEngine's GPU
/// attempt, not here).
BatchTiming run_apply_batch(GpuDevice& device, DeviceCache* cache,
                            std::span<const GpuTaskDesc> tasks,
                            const BatchConfig& config, SimTime start);

}  // namespace mh::gpu
