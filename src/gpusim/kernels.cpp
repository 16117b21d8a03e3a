#include "gpusim/kernels.hpp"

#include <algorithm>

#include "common/diagnostics.hpp"

namespace mh::gpu {
namespace {

// Custom fused kernel: step efficiency eff0 / (1 + (k/kscale)^2), and the
// floor rate of a fully spilled kernel instance (global-memory-bound
// streaming), where the quadratic spill penalty bottoms out.
constexpr double kCustomEff0 = 0.55;
constexpr double kCustomEffKscale = 45.0;
constexpr double kCustomSpillFloorFlops = 2.0e9;
// cuBLAS-like per-step kernels, calibrated to ~20 GFLOPS at the k=10
// batched DGEMM shape and ~44 GFLOPS asymptotically on the M2090 (the
// small-matrix regime, far under the card's large-GEMM peak): the flops
// per GEMM at half of kCublasEffMax, and a per-kernel floor.
constexpr double kCublasHalfwork = 2.5e4;
constexpr SimTime kCublasMinKernel = SimTime::micros(1.0);
// Device-side subkernel launch cost (Kepler dynamic parallelism), roughly
// an order cheaper than a host launch.
constexpr SimTime kDeviceLaunchOverhead = SimTime::micros(0.8);

}  // namespace

std::size_t custom_sms_required(const ApplyTaskShape& shape) {
  // Working set per step: source tile + result tile + one h block, resident
  // in shared memory/registers. Small tensors fit two SMs' worth; beyond
  // that the kernel spreads over 3 SMs (paper: "two or three thread
  // blocks", each owning an SM).
  const double bytes = 2.0 * shape.tensor_bytes() + shape.h_block_bytes();
  return bytes <= 12.0 * 1024.0 ? 2 : 3;
}

double custom_step_efficiency(const ApplyTaskShape& shape) {
  const double x = static_cast<double>(shape.k) / kCustomEffKscale;
  double eff = kCustomEff0 / (1.0 + x * x);
  // Shared-memory spill: once the tiles outgrow the reserved SMs' shared
  // memory, every step streams through global memory and the locality
  // advantage collapses quadratically (this is where cuBLAS takes over —
  // large k in Figure 5, and all of the 4-D shapes in Figure 6 / Table VI).
  const double ws = 2.0 * shape.tensor_bytes() + shape.h_block_bytes();
  const double budget = static_cast<double>(custom_sms_required(shape)) *
                        kSharedMemBytes;
  if (ws > budget) {
    const double r = budget / ws;
    eff *= r * r;
  }
  return eff;
}

double cublas_gemm_efficiency(double flops_per_gemm) {
  return kCublasEffMax * flops_per_gemm / (flops_per_gemm + kCublasHalfwork);
}

SimTime custom_task_duration(const DeviceSpec& spec,
                             const ApplyTaskShape& shape) {
  const std::size_t sms = custom_sms_required(shape);
  const double eff = custom_step_efficiency(shape);
  const double step_rate =
      std::max(static_cast<double>(sms) * spec.flops_per_sm * eff,
               kCustomSpillFloorFlops);
  const SimTime per_step =
      SimTime::seconds(shape.flops_per_step() / step_rate) + kBarrierCost;
  return per_step * static_cast<double>(shape.steps());
}

std::size_t custom_sms_required_reduced(const ApplyTaskShape& shape,
                                        double rank_fraction) {
  MH_CHECK(rank_fraction > 0.0 && rank_fraction <= 1.0,
           "rank fraction out of (0, 1]");
  // The reduced step tiles are kred wide in the contraction direction:
  // source tile rows x kred, result tile unchanged... conservatively scale
  // the streamed tile by the fraction. Small reduced steps fit one SM.
  const double bytes =
      (2.0 * shape.tensor_bytes() + shape.h_block_bytes()) * rank_fraction;
  if (bytes <= 6.0 * 1024.0) return 1;
  return bytes <= 12.0 * 1024.0 ? 2 : 3;
}

SimTime custom_task_duration_reduced(const DeviceSpec& spec,
                                     const ApplyTaskShape& shape,
                                     double rank_fraction,
                                     bool dynamic_parallelism) {
  MH_CHECK(rank_fraction > 0.0 && rank_fraction <= 1.0,
           "rank fraction out of (0, 1]");
  if (!dynamic_parallelism) {
    // Fermi: SMs and schedule are fixed at launch; shrinking the GEMMs
    // frees nothing (paper §II-D: "the GPU gains nothing").
    return custom_task_duration(spec, shape);
  }
  const std::size_t sms = custom_sms_required_reduced(shape, rank_fraction);
  const double eff = custom_step_efficiency(shape);
  const double step_rate =
      std::max(static_cast<double>(sms) * spec.flops_per_sm * eff,
               kCustomSpillFloorFlops);
  const SimTime per_step =
      SimTime::seconds(shape.flops_per_step() * rank_fraction / step_rate) +
      kBarrierCost + kDeviceLaunchOverhead;
  return per_step * static_cast<double>(shape.steps());
}

SimTime cublas_step_duration(const DeviceSpec& spec, std::size_t rows,
                             std::size_t k) {
  const double flops = 2.0 * static_cast<double>(rows) *
                       static_cast<double>(k) * static_cast<double>(k);
  const double eff = cublas_gemm_efficiency(flops);
  const double rate =
      static_cast<double>(spec.num_sms) * spec.flops_per_sm * eff;
  return max(kCublasMinKernel, SimTime::seconds(flops / rate));
}

}  // namespace mh::gpu
