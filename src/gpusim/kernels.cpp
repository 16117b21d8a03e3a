#include "gpusim/kernels.hpp"

#include <algorithm>

#include "common/diagnostics.hpp"

namespace mh::gpu {

std::size_t custom_sms_required(const ApplyTaskShape& shape) {
  // Working set per step: source tile + result tile + one h block, resident
  // in shared memory/registers. Small tensors fit two SMs' worth; beyond
  // that the kernel spreads over 3 SMs (paper: "two or three thread
  // blocks", each owning an SM).
  const double bytes = 2.0 * shape.tensor_bytes() + shape.h_block_bytes();
  return bytes <= 12.0 * 1024.0 ? 2 : 3;
}

double custom_step_efficiency(const ApplyTaskShape& shape,
                              const KernelTuning& tuning) {
  const double x = static_cast<double>(shape.k) / tuning.custom_eff_kscale;
  double eff = tuning.custom_eff0 / (1.0 + x * x);
  // Shared-memory spill: once the tiles outgrow the reserved SMs' shared
  // memory, every step streams through global memory and the locality
  // advantage collapses quadratically (this is where cuBLAS takes over —
  // large k in Figure 5, and all of the 4-D shapes in Figure 6 / Table VI).
  const double ws = 2.0 * shape.tensor_bytes() + shape.h_block_bytes();
  const double budget = static_cast<double>(custom_sms_required(shape)) *
                        tuning.shared_mem_bytes;
  if (ws > budget) {
    const double r = budget / ws;
    eff *= r * r;
  }
  return eff;
}

double cublas_gemm_efficiency(double flops_per_gemm,
                              const KernelTuning& tuning) {
  return tuning.cublas_eff_max * flops_per_gemm /
         (flops_per_gemm + tuning.cublas_halfwork);
}

SimTime custom_task_duration(const DeviceSpec& spec,
                             const ApplyTaskShape& shape,
                             const KernelTuning& tuning) {
  const std::size_t sms = custom_sms_required(shape);
  const double eff = custom_step_efficiency(shape, tuning);
  const double step_rate =
      std::max(static_cast<double>(sms) * spec.flops_per_sm * eff,
               tuning.custom_spill_floor_flops);
  const SimTime per_step =
      SimTime::seconds(shape.flops_per_step() / step_rate) +
      tuning.barrier_cost;
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
                                     const KernelTuning& tuning,
                                     double rank_fraction,
                                     bool dynamic_parallelism) {
  MH_CHECK(rank_fraction > 0.0 && rank_fraction <= 1.0,
           "rank fraction out of (0, 1]");
  if (!dynamic_parallelism) {
    // Fermi: SMs and schedule are fixed at launch; shrinking the GEMMs
    // frees nothing (paper §II-D: "the GPU gains nothing").
    return custom_task_duration(spec, shape, tuning);
  }
  const std::size_t sms = custom_sms_required_reduced(shape, rank_fraction);
  const double eff = custom_step_efficiency(shape, tuning);
  const double step_rate =
      std::max(static_cast<double>(sms) * spec.flops_per_sm * eff,
               tuning.custom_spill_floor_flops);
  const SimTime per_step =
      SimTime::seconds(shape.flops_per_step() * rank_fraction / step_rate) +
      tuning.barrier_cost + tuning.device_launch_overhead;
  return per_step * static_cast<double>(shape.steps());
}

SimTime cublas_step_duration(const DeviceSpec& spec, std::size_t rows,
                             std::size_t k, const KernelTuning& tuning) {
  const double flops = 2.0 * static_cast<double>(rows) *
                       static_cast<double>(k) * static_cast<double>(k);
  const double eff = cublas_gemm_efficiency(flops, tuning);
  const double rate =
      static_cast<double>(spec.num_sms) * spec.flops_per_sm * eff;
  return max(tuning.cublas_min_kernel, SimTime::seconds(flops / rate));
}

Tensor cublas_like_compute(const Tensor& source,
                           std::span<const MatrixView> mats,
                           std::span<const double> coeffs) {
  const std::size_t d = source.ndim();
  MH_CHECK(!coeffs.empty() && mats.size() == coeffs.size() * d,
           "need d matrices per term");
  Tensor result = source;
  result.zero();
  for (std::size_t mu = 0; mu < coeffs.size(); ++mu) {
    // One inner_first per step, each allocating its own temporary — the
    // global-memory round trip of a per-GEMM kernel sequence.
    Tensor t = source;
    for (std::size_t mode = 0; mode < d; ++mode) {
      t = inner_first(t, mats[mu * d + mode]);
    }
    result.gaxpy(1.0, t, coeffs[mu]);
  }
  return result;
}

Tensor custom_fused_compute(const Tensor& source,
                            std::span<const MatrixView> mats,
                            std::span<const double> coeffs) {
  const std::size_t d = source.ndim();
  MH_CHECK(!coeffs.empty() && mats.size() == coeffs.size() * d,
           "need d matrices per term");
  // The whole M*d chain runs as one fused packed pass through linalg's
  // batch-GEMM engine: workspace buffers reused across all terms
  // (the "resident in shared memory" organization), per-term scaled
  // accumulation as the kernel epilogue.
  Tensor result = source;
  result.zero();
  fused_apply_accumulate(source, mats, coeffs, {}, result);
  return result;
}

}  // namespace mh::gpu
