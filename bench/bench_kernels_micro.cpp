// Real wall-clock microbenchmarks of the host-side compute kernels: the
// mTxm GEMM pattern, the mode-wise tensor transform of Formula 1, and a
// full Apply compute task. These measure THIS machine, not the simulated
// Titan node; they validate that the kernels behave sanely (e.g. flops
// scale as expected) and give the repository an honest native baseline.
//
// Results are recorded through the shared bench harness (warmup + repeats,
// median/p95/CoV); GFLOPS scalars are derived from the median. Wall-clock
// numbers are machine-dependent, so nothing here gates CI.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "bench_harness.hpp"
#include "common/rng.hpp"
#include "gpusim/kernels.hpp"
#include "linalg/batch_gemm.hpp"
#include "linalg/gemm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"
#include "tensor/transform.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

// Repeat `body` enough times per sample that one sample is comfortably
// above timer resolution, then record seconds-per-iteration.
void record(Harness& h, TextTable& t, const std::string& name,
            double flops_per_iter, const std::function<void()>& body) {
  const std::size_t inner = h.quick() ? 8 : 32;
  const SampleSummary s = h.measure(name, [&] {
    for (std::size_t i = 0; i < inner; ++i) body();
  });
  const double sec_per_iter = s.p50 / static_cast<double>(inner);
  const double gflops = flops_per_iter / sec_per_iter / 1e9;
  t.add_row({name, fmt(sec_per_iter * 1e6, 2), fmt(gflops, 2),
             fmt(s.cov * 100.0, 1) + "%"});
  h.scalar(name + "_gflops", gflops, "GFLOPS", Direction::kHigherIsBetter,
           /*gate=*/false);
}

int run(int argc, char** argv) {
  Harness h("kernels_micro", argc, argv);
  print_header(
      "Host kernel microbenchmarks — native wall clock on THIS machine");
  std::cout << "packed GEMM dispatch: "
            << (linalg::packed_kernels_use_avx2() ? "AVX2 microkernel"
                                                  : "portable tile")
            << "\n\n";
  TextTable t({"kernel", "us/iter (p50)", "GFLOPS", "CoV"});

  // mTxm: the (k^2, k) x (k, k) GEMM pattern. mTxm routes through the
  // packed batch-GEMM engine; the _ref rows time the legacy scalar kernel
  // it replaced (kept as the bitwise reference), for context.
  for (const std::size_t k :
       h.quick() ? std::vector<std::size_t>{10, 20}
                 : std::vector<std::size_t>{10, 14, 20, 28}) {
    const std::size_t rows = k * k;
    Rng rng(h.seed_or(1));
    std::vector<double> a(k * rows), b(k * k), c(rows * k, 0.0);
    for (auto& x : a) x = rng.uniform(-1.0, 1.0);
    for (auto& x : b) x = rng.uniform(-1.0, 1.0);
    record(h, t, "mTxm_k" + std::to_string(k),
           linalg::gemm_flops(rows, k, k), [&, rows, k] {
             linalg::mTxm(rows, k, k, c.data(), a.data(), b.data());
           });
    record(h, t, "mTxm_ref_k" + std::to_string(k),
           linalg::gemm_flops(rows, k, k), [&, rows, k] {
             linalg::mTxm_ref(rows, k, k, c.data(), a.data(), b.data());
           });
  }

  // The benchmark inputs' narrow shapes, whose k leaves 1 (k = 5) or 2
  // (k = 10) columns past the 4-wide tiles for the column-vector tail: the
  // Coulomb (k^2, k) x (k, k) at k = 5 and the 4-D TDSE (k^3, k) x (k, k)
  // at k = 10.
  for (const auto& [name, rows, k] :
       {std::tuple<const char*, std::size_t, std::size_t>{"mTxm_k5", 25, 5},
        {"mTxm_4d_k10", 1000, 10}}) {
    Rng rng(h.seed_or(2));
    std::vector<double> a(k * rows), b(k * k), c(rows * k, 0.0);
    for (auto& x : a) x = rng.uniform(-1.0, 1.0);
    for (auto& x : b) x = rng.uniform(-1.0, 1.0);
    record(h, t, name, linalg::gemm_flops(rows, k, k), [&, rows, k] {
      linalg::mTxm(rows, k, k, c.data(), a.data(), b.data());
    });
  }

  // Batched whole-task fusion: distinct Apply tasks (nothing to share)
  // through one shared workspace — the aggregated call the batching
  // runtime's cpu_chunk path issues per pool task.
  for (const std::size_t k : h.quick() ? std::vector<std::size_t>{10, 20}
                                       : std::vector<std::size_t>{10, 20}) {
    const std::size_t d = 3, terms = 8, nitems = 4;
    const std::size_t size = k * k * k;
    Rng rng(h.seed_or(3));
    std::vector<std::vector<double>> srcs(nitems,
                                          std::vector<double>(size));
    std::vector<std::vector<double>> results(nitems,
                                             std::vector<double>(size, 0.0));
    std::vector<double> hblocks(nitems * terms * d * k * k);
    std::vector<double> coeffs(terms, 1.0);
    for (auto& s : srcs)
      for (auto& x : s) x = rng.uniform(-1.0, 1.0);
    for (auto& x : hblocks) x = rng.uniform(-1.0, 1.0);
    std::vector<std::vector<linalg::GemmMat>> mats(nitems);
    std::vector<linalg::FusedApplyItem> items(nitems);
    for (std::size_t i = 0; i < nitems; ++i) {
      for (std::size_t j = 0; j < terms * d; ++j) {
        mats[i].push_back(linalg::GemmMat{
            hblocks.data() + (i * terms * d + j) * k * k, k, k});
      }
      items[i].src = srcs[i].data();
      items[i].mats = {mats[i].data(), mats[i].size()};
      items[i].coeffs = {coeffs.data(), coeffs.size()};
      items[i].result = results[i].data();
    }
    const double flops =
        static_cast<double>(nitems) * gpu::ApplyTaskShape{d, k, terms}.flops();
    linalg::GemmWorkspace ws;
    record(h, t, "batch_fused_k" + std::to_string(k), flops, [&] {
      linalg::batch_fused_apply(d, k, items, ws);
    });
  }

  // One source leaf's tasks in one batch: the blocks of every displacement
  // in [-reach,reach]^d, drawn per term from a (2*reach+1)-block table as
  // an operator's are, so the engine shares mode-prefix GEMMs between
  // items and takes each prefix node's last-mode children in one fan-out
  // call. GFLOPS counts the logical tasks * M * d work, so sharing shows
  // as a higher rate. The d = 3 rows at k = 5 and k = 10 are the Coulomb
  // input's and a TDSE-order shape; the d = 4, k = 10, M = 1 row (81
  // tasks) is the tdse_d4 input's.
  for (const auto& [name, d, k, terms, reach] :
       {std::tuple<const char*, std::size_t, std::size_t, std::size_t,
                   std::size_t>{"batch_fused_leaf_k10", 3, 10, 8, 2},
        {"batch_fused_leaf_k5", 3, 5, 8, 2},
        {"batch_fused_leaf_4d_k10", 4, 10, 1, 1}}) {
    const std::size_t width = 2 * reach + 1;
    std::size_t size = 1, nitems = 1;
    for (std::size_t m = 0; m < d; ++m) {
      size *= k;
      nitems *= width;
    }
    Rng rng(h.seed_or(6));
    std::vector<double> src(size);
    std::vector<double> hblocks(terms * width * k * k);
    std::vector<double> coeffs(terms, 1.0);
    for (auto& x : src) x = rng.uniform(-1.0, 1.0);
    for (auto& x : hblocks) x = rng.uniform(-1.0, 1.0);
    std::vector<std::vector<double>> results(nitems,
                                             std::vector<double>(size, 0.0));
    std::vector<std::vector<linalg::GemmMat>> mats(nitems);
    std::vector<linalg::FusedApplyItem> items(nitems);
    for (std::size_t i = 0; i < nitems; ++i) {
      for (std::size_t mu = 0; mu < terms; ++mu) {
        for (std::size_t m = 0, rest = i; m < d; ++m, rest /= width) {
          mats[i].push_back(linalg::GemmMat{
              hblocks.data() + (mu * width + rest % width) * k * k, k, k});
        }
      }
      items[i].src = src.data();
      items[i].mats = {mats[i].data(), mats[i].size()};
      items[i].coeffs = {coeffs.data(), coeffs.size()};
      items[i].result = results[i].data();
    }
    const double flops =
        static_cast<double>(nitems) * gpu::ApplyTaskShape{d, k, terms}.flops();
    linalg::GemmWorkspace ws;
    record(h, t, name, flops, [&] {
      linalg::batch_fused_apply(d, k, items, ws);
    });
  }

  // Mode-wise tensor transform, 3-D and 4-D.
  for (const auto& [d, ks] :
       {std::pair<std::size_t, std::vector<std::size_t>>{
            3, h.quick() ? std::vector<std::size_t>{10}
                         : std::vector<std::size_t>{10, 20, 30}},
        {4, h.quick() ? std::vector<std::size_t>{10}
                      : std::vector<std::size_t>{10, 14}}}) {
    for (const std::size_t k : ks) {
      Rng rng(h.seed_or(2));
      Tensor src = Tensor::cube(d, k);
      for (auto& x : src.flat()) x = rng.uniform(-1.0, 1.0);
      std::vector<double> c(k * k);
      for (auto& x : c) x = rng.uniform(-1.0, 1.0);
      const MatrixView cv(c.data(), k, k);
      record(h, t,
             "transform" + std::to_string(d) + "d_k" + std::to_string(k),
             transform_flops(d, k), [&] {
               Tensor r = transform(src, cv);
               (void)r;
             });
    }
  }

  // One full Apply compute task at reduced rank count (M = 16).
  for (const std::size_t k : h.quick() ? std::vector<std::size_t>{10}
                                       : std::vector<std::size_t>{10, 20}) {
    const std::size_t d = 3, terms = 16;
    Rng rng(h.seed_or(4));
    Tensor source = Tensor::cube(d, k);
    for (auto& x : source.flat()) x = rng.uniform(-1.0, 1.0);
    std::vector<std::vector<double>> mats(terms * d,
                                          std::vector<double>(k * k));
    std::vector<MatrixView> views;
    for (auto& m : mats) {
      for (auto& x : m) x = rng.uniform(-1.0, 1.0);
      views.emplace_back(m.data(), k, k);
    }
    std::vector<double> coeffs(terms, 1.0);
    const gpu::ApplyTaskShape shape{d, k, terms};
    record(h, t, "fused_task_k" + std::to_string(k), shape.flops(), [&] {
      Tensor r = gpu::custom_fused_compute(source, views, coeffs);
      (void)r;
    });
  }

  // Flight-recorder overhead: the packed mTxm k=10 loop, bare vs with one
  // recorded span per task-sized block of work (~16 GEMMs, tens of µs —
  // the granularity the runtime actually wraps spans around) into a
  // bounded ring-buffer session. The recorded path pays span mint +
  // lock-free append, and — once the smallest ring fills — the chunk
  // recycle path too. The ratio gates the "<3% median overhead" promise of
  // always-on recording (the CI gate allows wall-clock jitter on top).
  //
  // Off/on run as interleaved pairs, as in bench_telemetry: two
  // back-to-back measure() blocks fold the host's slow drift (frequency
  // scaling, cache state) straight into the ratio, and at this cost scale
  // that drift is larger than the effect. The per-pair ratio cancels it;
  // the gated value is the median pairwise ratio.
  {
    const std::size_t k = 10, rows = k * k;
    Rng rng(h.seed_or(5));
    std::vector<double> a(k * rows), b(k * k), c(rows * k, 0.0);
    for (auto& x : a) x = rng.uniform(-1.0, 1.0);
    for (auto& x : b) x = rng.uniform(-1.0, 1.0);
    const std::size_t per_span = 16;
    const std::size_t blocks = h.quick() ? 128 : 512;
    obs::FlightRecorder rec({.path = "",
                             .spans_per_thread = 1024,
                             .install_as_current = false,
                             .dump_at_exit = false,
                             .dump_on_fault = false});
    obs::TraceSession& s = rec.session();
    const auto off = [&] {
      for (std::size_t blk = 0; blk < blocks; ++blk) {
        for (std::size_t i = 0; i < per_span; ++i) {
          linalg::mTxm(rows, k, k, c.data(), a.data(), b.data());
        }
      }
    };
    const auto on = [&] {
      for (std::size_t blk = 0; blk < blocks; ++blk) {
        obs::ScopedSpan span(&s, "task", obs::Category::kCpuCompute);
        for (std::size_t i = 0; i < per_span; ++i) {
          linalg::mTxm(rows, k, k, c.data(), a.data(), b.data());
        }
      }
    };
    const auto seconds = [](const auto& body) {
      const auto t0 = std::chrono::steady_clock::now();
      body();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    for (int i = 0; i < h.warmup(); ++i) {
      off();
      on();
    }
    const int pairs = std::max(h.repeats(), 5);
    std::vector<double> off_s, on_s, pair_ratio;
    for (int i = 0; i < pairs; ++i) {
      off_s.push_back(seconds(off));
      on_s.push_back(seconds(on));
      pair_ratio.push_back(off_s.back() > 0.0 ? on_s.back() / off_s.back()
                                              : 1.0);
    }
    h.summary("mTxm_k10_recorder_off", off_s, "s");
    h.summary("mTxm_k10_recorder_on", on_s, "s");
    std::sort(pair_ratio.begin(), pair_ratio.end());
    const double ratio = pair_ratio[pair_ratio.size() / 2];
    t.add_row({"flight_recorder_overhead", fmt(ratio, 4) + "x",
               fmt((ratio - 1.0) * 100.0, 2) + "%",
               fmt(static_cast<double>(s.dropped_spans()), 0) + " dropped"});
    h.scalar("flight_recorder_overhead_ratio", ratio, "x",
             Direction::kLowerIsBetter, /*gate=*/true);
    if (ratio > 1.03) {
      std::cout << "note: flight-recorder overhead " << fmt(ratio, 4)
                << "x exceeds the 3% design target on this host\n";
    }
  }

  t.print(std::cout);
  print_footnote(
      "native wall clock: numbers vary with the host; recorded ungated.");
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
