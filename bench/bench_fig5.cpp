// Reproduces Figure 5: GFLOPS of batches of 60 matrix multiplications of
// shape (k^2, k) x (k, k) — the 3-D tensor-product pattern — on a GeForce
// GTX 480, custom fused kernel (cu_mtxm_kernel) vs cuBLAS.
//
// The paper's figure is an image (absolute values unavailable); the shape
// criteria it supports in the text are: the custom kernel wins by ~2.2x for
// small k and the advantage erodes toward parity as k approaches 28.
#include <iostream>

#include "bench_common.hpp"
#include "bench_figs.hpp"
#include "bench_harness.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

int run(int argc, char** argv) {
  Harness h("fig5", argc, argv);
  print_header(
      "Figure 5 — batched (k^2, k) x (k, k) multiplications, batch of 60, "
      "GTX 480, GFLOPS (higher is better)");

  TextTable t({"k", "cu_mtxm_kernel (GFLOPS)", "cuBLAS (GFLOPS)", "ratio"});
  for (std::size_t k = 10; k <= 28; k += 2) {
    if (h.quick() && k != 10 && k != 28) continue;
    const FigPoint p = measure_batched_gemm(3, k, 60, 5);
    t.add_row({std::to_string(k), fmt(p.custom_gflops, 1),
               fmt(p.cublas_gflops, 1),
               fmt(p.custom_gflops / p.cublas_gflops, 2)});
    std::string prefix = "k";
    prefix += std::to_string(k);
    h.scalar(prefix + "_custom_gflops", p.custom_gflops, "GFLOPS",
             Direction::kHigherIsBetter);
    h.scalar(prefix + "_cublas_gflops", p.cublas_gflops, "GFLOPS",
             Direction::kHigherIsBetter);
  }
  t.print(std::cout);
  print_footnote(
      "paper (text): custom kernel ~2.2x faster than cuBLAS for small "
      "matrices; advantage shrinks as k grows toward 28.");
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
