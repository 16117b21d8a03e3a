// Cost models (simulated time) of the two GPU kernel implementations of
// the paper's Apply compute task. The simulated GPU only charges time: the
// numerics of every path, "GPU" side included, run through ops/linalg's
// batch_fused_apply on the host.
//
//   CustomFused  — the paper's custom CUDA kernel (§II-C): one kernel per
//                  task, 2-3 SMs reserved for its whole duration, all
//                  M x d multiplication steps embedded in the kernel with an
//                  inter-block barrier (Xiao-Feng) between steps. Shared-
//                  memory locality makes small-k steps fast; streams provide
//                  task parallelism across kernels.
//   CublasLike   — the traditional approach: one DGEMM kernel launch per
//                  multiplication step, each tiled across all SMs. Pays the
//                  launch overhead per step and loses inter-step locality,
//                  but tiles large matrices well (the k = 20+ regime where
//                  the paper switches to cuBLAS).
#pragma once

#include <cstddef>

#include "common/sim_time.hpp"
#include "gpusim/device.hpp"

namespace mh::gpu {

/// Shape of one Apply compute task: a d-dimensional k^d tensor transformed
/// by `terms` separated terms (M), i.e. steps = d * terms multiplications of
/// (k^{d-1}, k) x (k, k).
struct ApplyTaskShape {
  std::size_t ndim = 3;
  std::size_t k = 10;
  std::size_t terms = 100;

  std::size_t rows() const noexcept {
    std::size_t r = 1;
    for (std::size_t i = 1; i < ndim; ++i) r *= k;
    return r;
  }
  std::size_t steps() const noexcept { return ndim * terms; }
  double flops_per_step() const noexcept {
    return 2.0 * static_cast<double>(rows()) * static_cast<double>(k) *
           static_cast<double>(k);
  }
  double flops() const noexcept {
    return static_cast<double>(steps()) * flops_per_step();
  }
  double tensor_bytes() const noexcept {
    return static_cast<double>(rows()) * static_cast<double>(k) * 8.0;
  }
  double h_block_bytes() const noexcept {
    return static_cast<double>(k) * static_cast<double>(k) * 8.0;
  }
};

// Calibration constants of the kernel cost models that tests read; the
// rest live in kernels.cpp. They are tuned so the paper's comparative
// shapes (Tables I-VI, Figures 5-6) reproduce; see DESIGN.md §5 and
// EXPERIMENTS.md.

/// Inter-block barrier cost per step of the custom fused kernel.
inline constexpr SimTime kBarrierCost = SimTime::micros(1.2);
/// Shared memory per SM: once the custom kernel's working set (two tensor
/// tiles + one h block) spills past sms * this, efficiency degrades
/// quadratically — the regime where the paper switches to cuBLAS (4-D,
/// large k).
inline constexpr double kSharedMemBytes = 48.0 * 1024.0;
/// Asymptotic tiling efficiency of the cuBLAS-like per-step kernels.
inline constexpr double kCublasEffMax = 0.075;

/// SMs the custom kernel must reserve: 2 for small tensors, 3 once the
/// working set outgrows one SM's shared memory + register budget (§II-C).
std::size_t custom_sms_required(const ApplyTaskShape& shape);

/// Duration of the custom fused kernel body (excludes launch overhead,
/// which GpuDevice charges per kernel).
SimTime custom_task_duration(const DeviceSpec& spec,
                             const ApplyTaskShape& shape);

/// --- CUDA 5 dynamic parallelism (the paper's §II-D / §VI future work) ---
/// Rank reduction shrinks each multiplication to a kred x kred corner, but
/// on Fermi the 2-3 SMs are reserved at kernel launch, so nothing is
/// gained. With Kepler's device-side subkernel launches the kernel can size
/// every step to the *reduced* working set: fewer SMs reserved (often one)
/// and step flops scaled by rank_fraction = kred/k, at the cost of a small
/// device-side launch per step.

/// SMs required when every step runs at the reduced working set.
std::size_t custom_sms_required_reduced(const ApplyTaskShape& shape,
                                        double rank_fraction);

/// Duration of the custom kernel under rank reduction. With
/// dynamic_parallelism false this equals the full-rank duration exactly
/// (resources reserved at launch — the paper's §II-D observation); with it
/// true, steps shrink by rank_fraction plus a per-step device-side launch.
SimTime custom_task_duration_reduced(const DeviceSpec& spec,
                                     const ApplyTaskShape& shape,
                                     double rank_fraction,
                                     bool dynamic_parallelism);

/// Duration of ONE cuBLAS-like DGEMM step (excludes launch overhead).
SimTime cublas_step_duration(const DeviceSpec& spec, std::size_t rows,
                             std::size_t k);

/// Efficiency curves (exposed for tests and figure benches). The custom
/// efficiency depends on the whole shape: tiles that spill shared memory
/// pay a quadratic penalty.
double custom_step_efficiency(const ApplyTaskShape& shape);
double cublas_gemm_efficiency(double flops_per_gemm);

}  // namespace mh::gpu
