#include "gpusim/gpu_executor.hpp"

#include <algorithm>

#include "common/diagnostics.hpp"
#include "obs/metrics.hpp"

namespace mh::gpu {
namespace {

// Host-side (CPU) data handling: the paper's "CPU threads for data access"
// running preprocess/postprocess (their count, bytes/s per thread and cost
// per task), and the single dispatcher thread that rearranges and batches
// data for the GPU (§III-A; cost per batch and staging bytes/s).
constexpr std::size_t kDataThreads = 12;
constexpr double kHostDataRate = 150e6;
constexpr SimTime kHostTaskOverhead = SimTime::micros(30.0);
constexpr SimTime kDispatchPerBatch = SimTime::millis(0.2);
constexpr double kDispatchRate = 150e6;
// Dispatcher cost per multiplication step: assembling the kernel's h-block
// pointer tables (hundreds of pointers per kernel, §III-A "the dispatcher
// CPU thread has to rearrange and batch data for the GPU").
constexpr SimTime kDispatchPerStep = SimTime::micros(0.15);

// Resolve a task's h-block transfer needs against the device cache.
// Returns {touched, missed} block counts.
std::pair<std::size_t, std::size_t> resolve_blocks(DeviceCache* cache,
                                                   const GpuTaskDesc& task,
                                                   bool cache_enabled) {
  if (!task.h_block_ids.empty()) {
    std::size_t missed = 0;
    if (cache_enabled && cache != nullptr) {
      for (std::uint64_t id : task.h_block_ids) {
        if (!cache->lookup_or_insert(id, task.shape.h_block_bytes())) ++missed;
      }
    } else {
      missed = task.h_block_ids.size();  // no cache: everything re-transfers
    }
    return {task.h_block_ids.size(), missed};
  }
  const std::size_t touched = task.h_blocks_touched;
  const std::size_t missed =
      cache_enabled ? std::min(task.h_blocks_new, touched) : touched;
  return {touched, missed};
}

// Enqueue the compute kernels of one task; returns completion time.
SimTime enqueue_task_kernels(GpuDevice& device, const GpuTaskDesc& task,
                             std::size_t stream, const BatchConfig& config,
                             SimTime ready) {
  const ApplyTaskShape& shape = task.shape;
  if (config.use_custom_kernel) {
    const double fraction = config.gpu_rank_fraction;
    if (config.dynamic_parallelism && fraction < 1.0) {
      return device.enqueue_kernel(
          stream, custom_sms_required_reduced(shape, fraction),
          custom_task_duration_reduced(device.spec(), shape, fraction,
                                       /*dynamic_parallelism=*/true),
          ready);
    }
    return device.enqueue_kernel(stream, custom_sms_required(shape),
                                 custom_task_duration(device.spec(), shape),
                                 ready);
  }
  const SimTime step =
      cublas_step_duration(device.spec(), shape.rows(), shape.k);
  SimTime done = ready;
  for (std::size_t s = 0; s < shape.steps(); ++s) {
    done = device.enqueue_kernel(stream, device.spec().num_sms, step, done);
  }
  return done;
}

}  // namespace

BatchTiming run_apply_batch(GpuDevice& device, DeviceCache* cache,
                            std::span<const GpuTaskDesc> tasks,
                            const BatchConfig& config, SimTime start) {
  MH_CHECK(!tasks.empty(), "empty batch");
  MH_CHECK(config.streams >= 1 && config.streams <= device.num_streams(),
           "stream count exceeds device streams");

  BatchTiming timing;
  timing.start = start;

  double in_bytes = 0.0, out_bytes = 0.0, miss_bytes = 0.0;
  std::vector<std::size_t> task_missed(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const GpuTaskDesc& task = tasks[i];
    in_bytes += task.shape.tensor_bytes();
    out_bytes += task.shape.tensor_bytes();
    timing.flops += task.shape.flops();
    const auto [touched, missed] =
        resolve_blocks(cache, task, config.device_cache);
    timing.cache_hits += touched - missed;
    timing.cache_misses += missed;
    task_missed[i] = missed;
    miss_bytes += static_cast<double>(missed) * task.shape.h_block_bytes();
  }

  // --- Preprocess: data threads fetch operands and hash inputs (parallel).
  SimTime prep = SimTime::zero();
  for (const GpuTaskDesc& task : tasks) {
    prep += kHostTaskOverhead +
            SimTime::seconds(task.shape.tensor_bytes() / kHostDataRate);
  }
  prep = prep / static_cast<double>(kDataThreads);
  timing.host_prep = prep;
  SimTime t = start + prep;

  if (config.batched) {
    // --- Dispatcher gathers the whole batch into the pinned slabs and
    // assembles every kernel's h-pointer tables (serial: one thread).
    std::size_t total_steps = 0;
    for (const GpuTaskDesc& task : tasks) total_steps += task.shape.steps();
    const SimTime dispatch_done =
        t + kDispatchPerBatch + SimTime::seconds(in_bytes / kDispatchRate) +
        kDispatchPerStep * static_cast<double>(total_steps);
    timing.dispatch = dispatch_done - t;
    t = dispatch_done;

    // --- One aggregated input transfer + one h-miss transfer.
    const SimTime in_start = t;
    SimTime xfer = device.enqueue_transfer(0, in_bytes, config.pinned, t);
    if (miss_bytes > 0.0) {
      xfer = device.enqueue_transfer(0, miss_bytes, config.pinned, xfer);
    }
    timing.transfer_in = xfer - in_start;

    // --- Kernels round-robin over streams, all gated on the batch transfer.
    SimTime kernels_done = xfer;
    if (!config.use_custom_kernel && config.cublas_aggregate) {
      // Analytic batch span for per-step cuBLAS kernels (cluster scale —
      // one event per batch instead of one per GEMM). All-SM kernels
      // serialize on the SMs; each stream's feeding thread serializes its
      // own launches, which hide behind other streams' compute. The span is
      // whichever bound binds.
      SimTime sm_bound = SimTime::zero();
      std::vector<SimTime> stream_launch(config.streams, SimTime::zero());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto& shape = tasks[i].shape;
        const SimTime step =
            cublas_step_duration(device.spec(), shape.rows(), shape.k);
        sm_bound += step * static_cast<double>(shape.steps());
        stream_launch[i % config.streams] +=
            kKernelLaunchOverhead * static_cast<double>(shape.steps());
      }
      SimTime launch_bound = SimTime::zero();
      for (SimTime s : stream_launch) launch_bound = max(launch_bound, s);
      const SimTime span = max(sm_bound, launch_bound);
      // Book the span as one synthetic all-SM kernel so device stats and
      // stream state stay consistent.
      kernels_done = device.enqueue_kernel(
          0, device.spec().num_sms,
          max(span - kKernelLaunchOverhead, SimTime::zero()),
          xfer);
    } else if (!config.use_custom_kernel && !config.cublas_aggregate) {
      // Per-step cuBLAS kernels: interleave steps across tasks so that
      // concurrent streams keep the SM queue fed (launch overheads of one
      // stream hide behind another stream's compute, as on real hardware).
      std::vector<SimTime> ready(tasks.size(), xfer);
      std::size_t remaining = 0;
      for (const GpuTaskDesc& t2 : tasks) remaining += t2.shape.steps();
      std::vector<std::size_t> left(tasks.size());
      for (std::size_t i = 0; i < tasks.size(); ++i)
        left[i] = tasks[i].shape.steps();
      while (remaining > 0) {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          if (left[i] == 0) continue;
          const std::size_t stream = i % config.streams;
          const SimTime step = cublas_step_duration(
              device.spec(), tasks[i].shape.rows(), tasks[i].shape.k);
          ready[i] = device.enqueue_kernel(stream, device.spec().num_sms,
                                           step, ready[i]);
          --left[i];
          --remaining;
          kernels_done = max(kernels_done, ready[i]);
        }
      }
    } else {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const std::size_t stream = i % config.streams;
        kernels_done = max(kernels_done,
                           enqueue_task_kernels(device, tasks[i], stream,
                                                config, xfer));
      }
    }
    timing.kernel_span = kernels_done - xfer;

    // --- One aggregated output transfer.
    const SimTime out_done =
        device.enqueue_transfer(0, out_bytes, config.pinned, kernels_done,
                                /*to_device=*/false);
    timing.transfer_out = out_done - kernels_done;
    t = out_done;
  } else {
    // --- Naive port: per-task pageable transfer -> kernel -> transfer.
    // No aggregation, no pinned staging, h blocks ride along every task.
    SimTime last = t;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const GpuTaskDesc& task = tasks[i];
      const std::size_t stream = i % config.streams;
      const double task_in =
          task.shape.tensor_bytes() +
          static_cast<double>(task_missed[i]) * task.shape.h_block_bytes();
      SimTime ready = device.enqueue_transfer(stream, task_in, config.pinned, t);
      ready = enqueue_task_kernels(device, task, stream, config, ready);
      ready = device.enqueue_transfer(stream, task.shape.tensor_bytes(),
                                      config.pinned, ready,
                                      /*to_device=*/false);
      last = max(last, ready);
    }
    timing.transfer_in = SimTime::zero();
    timing.kernel_span = last - t;
    timing.transfer_out = SimTime::zero();
    t = last;
  }

  // --- Postprocess: data threads accumulate results into the tree.
  SimTime post = SimTime::zero();
  for (const GpuTaskDesc& task : tasks) {
    post += kHostTaskOverhead +
            SimTime::seconds(task.shape.tensor_bytes() / kHostDataRate);
  }
  post = post / static_cast<double>(kDataThreads);
  timing.host_post = post;
  timing.total_done = t + post;

  // Publish the device's cumulative SM occupancy after each batch; a
  // sampler tick between batches then reads the latest level.
  static obs::Gauge& occupancy_gauge = obs::MetricsRegistry::global().gauge(
      "mh_gpusim_stream_occupancy",
      "busy fraction of SM-time on the device that ran the last batch");
  occupancy_gauge.set(device.occupancy());
  return timing;
}

}  // namespace mh::gpu
