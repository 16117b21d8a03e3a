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

/// Calibration constants of the kernel cost models. Defaults are tuned so
/// the paper's comparative shapes (Tables I-VI, Figures 5-6) reproduce; see
/// DESIGN.md §5 and EXPERIMENTS.md.
struct KernelTuning {
  // Custom fused kernel.
  double custom_eff0 = 0.55;        ///< step efficiency as k -> 0
  double custom_eff_kscale = 45.0;  ///< eff = eff0 / (1 + (k/kscale)^2)
  SimTime barrier_cost = SimTime::micros(1.2);  ///< inter-block barrier/step
  /// Shared memory per SM: once the working set (two tensor tiles + one h
  /// block) spills past sms * this, efficiency degrades quadratically —
  /// the regime where the paper switches to cuBLAS (4-D, large k).
  double shared_mem_bytes = 48.0 * 1024.0;
  /// Floor rate of a fully spilled kernel instance (global-memory-bound
  /// streaming): the quadratic penalty bottoms out here.
  double custom_spill_floor_flops = 2.0e9;
  // cuBLAS-like per-step kernels (calibrated to ~20 GFLOPS at the k=10
  // batched DGEMM shape and ~44 GFLOPS asymptotically on the M2090 —
  // the small-matrix regime, far under the card's large-GEMM peak).
  double cublas_eff_max = 0.075;      ///< asymptotic tiling efficiency
  double cublas_halfwork = 2.5e4;     ///< flops/GEMM at half efficiency
  SimTime cublas_min_kernel = SimTime::micros(1.0);  ///< per-kernel floor
  /// Device-side subkernel launch cost (Kepler dynamic parallelism),
  /// roughly an order cheaper than a host launch.
  SimTime device_launch_overhead = SimTime::micros(0.8);
};

/// SMs the custom kernel must reserve: 2 for small tensors, 3 once the
/// working set outgrows one SM's shared memory + register budget (§II-C).
std::size_t custom_sms_required(const ApplyTaskShape& shape);

/// Duration of the custom fused kernel body (excludes launch overhead,
/// which GpuDevice charges per kernel).
SimTime custom_task_duration(const DeviceSpec& spec,
                             const ApplyTaskShape& shape,
                             const KernelTuning& tuning);

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
                                     const KernelTuning& tuning,
                                     double rank_fraction,
                                     bool dynamic_parallelism);

/// Duration of ONE cuBLAS-like DGEMM step (excludes launch overhead).
SimTime cublas_step_duration(const DeviceSpec& spec, std::size_t rows,
                             std::size_t k, const KernelTuning& tuning);

/// Efficiency curves (exposed for tests and figure benches). The custom
/// efficiency depends on the whole shape: tiles that spill shared memory
/// pay a quadratic penalty.
double custom_step_efficiency(const ApplyTaskShape& shape,
                              const KernelTuning& tuning);
double cublas_gemm_efficiency(double flops_per_gemm,
                              const KernelTuning& tuning);

}  // namespace mh::gpu
