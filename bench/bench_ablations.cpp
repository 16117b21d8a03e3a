// Ablation benches for the design choices DESIGN.md calls out:
//   1. asynchronous batching vs the naive per-task GPU port (§II);
//   2. pre-locked pinned staging vs pageable transfers (§II-A);
//   3. the write-once device cache for h blocks (§II-B);
//   4. rank reduction on the CPU vs on the GPU (§II-D);
//   5. GPU rank reduction under dynamic parallelism (§VI future work);
//   6. the hybrid split sweep around k* = n/(m+n) (§II-A);
//   7. leaf-level vs nonstandard-form Apply (real numerics).
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <numbers>
#include <vector>

#include "bench_common.hpp"
#include "bench_harness.hpp"
#include "clustersim/cpu_model.hpp"
#include "common/rng.hpp"
#include "gpusim/device_cache.hpp"
#include "gpusim/gpu_executor.hpp"
#include "mra/function.hpp"
#include "ops/apply.hpp"
#include "ops/nonstandard.hpp"
#include "runtime/dispatch.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

std::vector<gpu::GpuTaskDesc> shared_block_batch(std::size_t n,
                                                 gpu::ApplyTaskShape shape,
                                                 std::size_t blocks) {
  std::vector<gpu::GpuTaskDesc> batch(n);
  for (auto& d : batch) {
    d.shape = shape;
    for (std::size_t b = 0; b < blocks; ++b) d.h_block_ids.push_back(7000 + b);
  }
  return batch;
}

double batch_seconds(const std::vector<gpu::GpuTaskDesc>& batch,
                     gpu::BatchConfig cfg) {
  gpu::GpuDevice dev(gpu::DeviceSpec::tesla_m2090(), 8);
  gpu::DeviceCache cache(dev.spec().memory_bytes);
  return gpu::run_apply_batch(dev, &cache, batch, cfg, SimTime::zero())
      .elapsed()
      .sec();
}

void ablate_batching(Harness& h) {
  print_header("Ablation 1 — asynchronous batching vs naive per-task port");
  const auto batch = shared_block_batch(60, {3, 10, 100}, 300);
  TextTable t({"configuration", "batch time (ms)", "speedup"});
  gpu::BatchConfig batched;
  batched.streams = 5;
  const double b = batch_seconds(batch, batched);
  gpu::BatchConfig naive = batched;
  naive.batched = false;
  naive.pinned = false;
  naive.device_cache = false;
  const double n = batch_seconds(batch, naive);
  t.add_row({"batched + pinned + device cache", fmt(b * 1e3), "1.0"});
  t.add_row({"naive per-task port", fmt(n * 1e3), fmt(n / b, 2) + "x slower"});
  t.print(std::cout);
  h.scalar("batched_ms", b * 1e3, "ms");
  h.scalar("naive_ms", n * 1e3, "ms");
}

void ablate_pagelock(Harness& h) {
  print_header("Ablation 2 — pinned staging vs pageable transfers");
  const auto batch = shared_block_batch(60, {3, 20, 100}, 300);
  TextTable t({"transfer mode", "transfer-in time (ms)", "batch time (ms)"});
  for (const bool pinned : {true, false}) {
    gpu::BatchConfig cfg;
    cfg.pinned = pinned;
    gpu::GpuDevice dev(gpu::DeviceSpec::tesla_m2090(), 8);
    gpu::DeviceCache cache(dev.spec().memory_bytes);
    const auto r = gpu::run_apply_batch(dev, &cache, batch, cfg,
                                        SimTime::zero());
    t.add_row({pinned ? "page-locked (pre-locked pool)" : "pageable",
               fmt(r.transfer_in.ms(), 3), fmt(r.elapsed().ms())});
    h.scalar(pinned ? "pinned_transfer_in_ms" : "pageable_transfer_in_ms",
             r.transfer_in.ms(), "ms");
  }
  t.print(std::cout);
  print_footnote(
      "paper: page-locking at least doubles transfer speed; locking is done "
      "once on large buffers (0.5 ms lock / 2 ms unlock vs ~1 ms kernels).");
}

void ablate_device_cache(Harness& h) {
  print_header("Ablation 3 — write-once device cache for h blocks");
  TextTable t({"device cache", "misses", "hits", "transfer-in (ms)",
               "batch (ms)"});
  const auto batch = shared_block_batch(60, {3, 10, 100}, 300);
  for (const bool enabled : {true, false}) {
    gpu::BatchConfig cfg;
    cfg.device_cache = enabled;
    gpu::GpuDevice dev(gpu::DeviceSpec::tesla_m2090(), 8);
    gpu::DeviceCache cache(dev.spec().memory_bytes);
    const auto r = gpu::run_apply_batch(dev, enabled ? &cache : nullptr,
                                        batch, cfg, SimTime::zero());
    t.add_row({enabled ? "on" : "off", std::to_string(r.cache_misses),
               std::to_string(r.cache_hits), fmt(r.transfer_in.ms(), 2),
               fmt(r.elapsed().ms())});
    h.scalar(enabled ? "cache_on_batch_ms" : "cache_off_batch_ms",
             r.elapsed().ms(), "ms");
  }
  t.print(std::cout);
}

void ablate_rank_reduction(Harness& h) {
  print_header("Ablation 4 — rank reduction: CPU vs GPU (paper §II-D)");
  const gpu::ApplyTaskShape shape{3, 30, 100};
  const double rank_fraction = 0.33;  // kred/k for the k=30 operator

  TextTable t({"configuration", "time per 60-task batch (ms)", "gain"});
  const double cpu_full = cluster::cpu_batch_time(shape, 60, 16).sec() * 1e3;
  const double cpu_rr =
      cluster::cpu_batch_time(shape, 60, 16, rank_fraction).sec() * 1e3;
  t.add_row({"CPU, full rank", fmt(cpu_full), "1.0"});
  t.add_row({"CPU, rank reduced", fmt(cpu_rr),
             fmt(cpu_full / cpu_rr, 2) + "x faster"});
  h.scalar("cpu_full_rank_ms", cpu_full, "ms");
  h.scalar("cpu_rank_reduced_ms", cpu_rr, "ms");

  // GPU: SMs are reserved at launch; shrinking the GEMMs does not release
  // them, so the kernel duration is bounded by the reserved resources and
  // the (unchanged) barrier/step count. We model this faithfully: the GPU
  // kernel time does not scale with the rank fraction at all.
  const auto batch = shared_block_batch(60, shape, 300);
  gpu::BatchConfig cfg;
  const double gpu_full = batch_seconds(batch, cfg) * 1e3;
  t.add_row({"GPU, full rank", fmt(gpu_full), "1.0"});
  t.add_row({"GPU, rank reduced", fmt(gpu_full),
             "1.0x (SMs reserved at launch: no gain)"});
  t.print(std::cout);
  h.scalar("gpu_full_rank_ms", gpu_full, "ms");
  print_footnote(
      "paper: rank reduction cuts CPU work up to ~2.5-3x but 'did not have "
      "a noticeable effect' on the GPU.");
}

void ablate_dynamic_parallelism(Harness& h) {
  print_header(
      "Ablation 5 — GPU rank reduction via dynamic parallelism (the "
      "paper's §VI future work, projected)");
  const auto batch = shared_block_batch(60, {3, 30, 100}, 300);
  TextTable t({"GPU configuration", "batch time (ms)", "vs baseline"});
  gpu::BatchConfig base;
  base.streams = 6;
  const double baseline = batch_seconds(batch, base) * 1e3;
  t.add_row({"full rank (Fermi)", fmt(baseline), "1.00"});

  gpu::BatchConfig fermi_rr = base;
  fermi_rr.gpu_rank_fraction = 0.33;
  const double f = batch_seconds(batch, fermi_rr) * 1e3;
  t.add_row({"rank reduced, no dyn. parallelism (Fermi)", fmt(f),
             fmt(baseline / f, 2) + "x"});

  gpu::BatchConfig kepler = fermi_rr;
  kepler.dynamic_parallelism = true;
  const double kk = batch_seconds(batch, kepler) * 1e3;
  t.add_row({"rank reduced + dyn. parallelism (Kepler)", fmt(kk),
             fmt(baseline / kk, 2) + "x"});
  t.print(std::cout);
  h.scalar("fermi_full_rank_ms", baseline, "ms");
  h.scalar("kepler_dyn_parallelism_ms", kk, "ms");
  print_footnote(
      "paper §VI: 'The dynamic parallelism featured in the future CUDA 5 "
      "release could help alleviate some of the rank reduction issues on "
      "GPUs.' — this is that projection on the simulated device.");
}

void ablate_split(Harness& h) {
  print_header(
      "Ablation 6 — hybrid split sweep: minimum at k* = n/(m+n)");
  const double m = 24.3, n = 24.7;  // Table I's 10-thread / 5-stream rates
  const double kstar = rt::optimal_cpu_fraction(m, n);
  TextTable t({"CPU fraction k", "max(m k, n (1-k)) (s)"});
  for (double k = 0.0; k <= 1.0001; k += h.quick() ? 0.25 : 0.1) {
    t.add_row({fmt(k, 2), fmt(rt::overlap_time(m, n, k), 1)});
  }
  t.add_row({"k* = " + fmt(kstar, 3), fmt(rt::optimal_overlap_time(m, n), 1)});
  t.print(std::cout);
  h.scalar("kstar", kstar, "fraction", Direction::kHigherIsBetter,
           /*gate=*/true);
  h.scalar("optimal_overlap_s", rt::optimal_overlap_time(m, n), "s");
}

void ablate_nonstandard_form(Harness& h) {
  print_header(
      "Ablation 7 — leaf-level vs nonstandard-form Apply (real numerics, "
      "adaptive 1-D tree, broad kernel)");
  // A narrow feature forces deep adaptive refinement; a broad kernel makes
  // the cross-level coupling that the leaf-level shortcut misses.
  const double c = 0.3, wf = 0.02, wk = 0.15;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 6;
  fp.thresh = 1e-7;
  fp.initial_level = 2;
  auto f_fn = [&](std::span<const double> x) {
    const double u = (x[0] - c) / wf;
    return std::exp(-u * u);
  };
  mra::Function f = mra::Function::project(f_fn, fp);

  ops::SeparatedConvolution::Params op_p;
  op_p.ndim = 1;
  op_p.k = 6;
  op_p.thresh = 1e-10;
  op_p.max_disp = 10;
  ops::SeparatedConvolution op(op_p, ops::single_gaussian(wk));

  ops::ApplyStats leaf_stats, ns_stats;
  mra::Function leaf = ops::apply(op, f, {}, &leaf_stats);
  mra::Function nsr = ops::apply_nonstandard(op, f, &ns_stats);

  const double weff2 = wk * wk + wf * wf;
  const double amp =
      std::sqrt(std::numbers::pi) * wk * wf / std::sqrt(weff2);
  Rng rng(h.seed_or(91));
  double leaf_err = 0.0, ns_err = 0.0;
  for (int i = 0; i < 60; ++i) {
    const double x[1] = {rng.uniform(0.05, 0.95)};
    const double expect = amp * std::exp(-(x[0] - c) * (x[0] - c) / weff2);
    leaf_err = std::max(leaf_err, std::abs(leaf.eval(x) - expect));
    ns_err = std::max(ns_err, std::abs(nsr.eval(x) - expect));
  }

  auto sci = [](double v) {
    std::ostringstream os;
    os << std::scientific << std::setprecision(2) << v;
    return os.str();
  };
  TextTable t({"apply form", "max error / peak", "tasks", "small GEMMs"});
  t.add_row({"leaf-level (Algorithms 1-2)", sci(leaf_err / amp),
             std::to_string(leaf_stats.tasks),
             std::to_string(leaf_stats.gemms)});
  t.add_row({"nonstandard form (2k blocks)", sci(ns_err / amp),
             std::to_string(ns_stats.tasks), std::to_string(ns_stats.gemms)});
  t.print(std::cout);
  h.scalar("leaf_rel_err", leaf_err / amp, "fraction");
  h.scalar("ns_rel_err", ns_err / amp, "fraction");
  h.scalar("ns_gemms", static_cast<double>(ns_stats.gemms), "count");
  print_footnote(
      "the leaf-level shortcut needs a displacement band as wide as the\n"
      "kernel reach measured in *leaf-level* boxes (hundreds here), while\n"
      "the NS form covers the same reach with O(1) displacements per level\n"
      "of 2k x 2k blocks — the paper's 'fixed dimension 10 to 28' matrices.");
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("ablations", argc, argv);
  ablate_batching(h);
  ablate_pagelock(h);
  ablate_device_cache(h);
  ablate_rank_reduction(h);
  ablate_dynamic_parallelism(h);
  ablate_split(h);
  ablate_nonstandard_form(h);
  return h.finish();
}
