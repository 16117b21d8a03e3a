// Shared machinery for Figures 5 and 6: GFLOPS of a batch of
// (k^{d-1}, k) x (k, k) matrix multiplications on the simulated GTX 480,
// custom fused kernel (cu_mtxm_kernel) vs per-GEMM cuBLAS launches.
#pragma once

#include <cstddef>

#include "gpusim/device.hpp"
#include "gpusim/gpu_executor.hpp"
#include "gpusim/kernels.hpp"

namespace mh::bench {

struct FigPoint {
  double custom_gflops = 0.0;
  double cublas_gflops = 0.0;
};

/// Time a batch of `count` multiplications of shape (k^{d-1}, k) x (k, k).
/// The custom path fuses the batch into `streams` kernels (task
/// parallelism across CUDA streams, §II-C); the cuBLAS path launches one
/// DGEMM per multiplication round-robin over the same streams.
inline FigPoint measure_batched_gemm(std::size_t ndim, std::size_t k,
                                     std::size_t count, std::size_t streams) {
  const gpu::DeviceSpec spec = gpu::DeviceSpec::gtx480();

  // Flops of the whole batch.
  gpu::ApplyTaskShape unit{ndim, k, 1};
  const double flops =
      static_cast<double>(count) * unit.flops_per_step();

  FigPoint point;

  // Custom: split count into `streams` fused kernels as evenly as terms
  // allow (each kernel embeds steps = ndim * terms multiplications).
  {
    gpu::GpuDevice dev(spec, streams);
    const std::size_t per_kernel = count / streams;
    const std::size_t terms = (per_kernel + ndim - 1) / ndim;
    gpu::ApplyTaskShape shape{ndim, k, terms > 0 ? terms : 1};
    // Scale the duration so exactly `count` multiplications are charged.
    const SimTime full = gpu::custom_task_duration(spec, shape);
    const SimTime per_step = full / static_cast<double>(shape.steps());
    SimTime done = SimTime::zero();
    std::size_t remaining = count;
    for (std::size_t s = 0; s < streams && remaining > 0; ++s) {
      const std::size_t steps =
          (s + 1 == streams) ? remaining
                             : std::min(remaining, per_kernel > 0 ? per_kernel
                                                                  : count);
      done = max(done, dev.enqueue_kernel(
                           s, gpu::custom_sms_required(shape),
                           per_step * static_cast<double>(steps),
                           SimTime::zero()));
      remaining -= steps;
    }
    point.custom_gflops = flops / done.sec() / 1e9;
  }

  // cuBLAS: one launch per multiplication, round-robin over streams.
  {
    gpu::GpuDevice dev(spec, streams);
    const SimTime step = gpu::cublas_step_duration(spec, unit.rows(), k);
    std::vector<SimTime> ready(streams, SimTime::zero());
    SimTime done = SimTime::zero();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t s = i % streams;
      ready[s] = dev.enqueue_kernel(s, spec.num_sms, step, ready[s]);
      done = max(done, ready[s]);
    }
    point.cublas_gflops = flops / done.sec() / 1e9;
  }
  return point;
}

}  // namespace mh::bench
