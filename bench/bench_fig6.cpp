// Reproduces Figure 6: GFLOPS of batches of 20 matrix multiplications of
// shape (k^3, k) x (k, k) — the 4-D tensor-product pattern — on a GeForce
// GTX 480, custom fused kernel vs cuBLAS.
//
// 4-D tiles spill the custom kernel's shared-memory budget even at small k,
// which is why the paper's TDSE application (Table VI) uses cuBLAS: cuBLAS
// should overtake the custom kernel at much smaller k than in Figure 5.
#include <iostream>

#include "bench_common.hpp"
#include "bench_figs.hpp"
#include "bench_harness.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

int run(int argc, char** argv) {
  Harness h("fig6", argc, argv);
  print_header(
      "Figure 6 — batched (k^3, k) x (k, k) multiplications, batch of 20, "
      "GTX 480, GFLOPS (higher is better)");

  TextTable t({"k", "cu_mtxm_kernel (GFLOPS)", "cuBLAS (GFLOPS)", "ratio"});
  for (std::size_t k = 10; k <= 28; k += 2) {
    if (h.quick() && k != 10 && k != 28) continue;
    const FigPoint p = measure_batched_gemm(4, k, 20, 5);
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
      "paper (text): for the larger 4-D tensors cuBLAS is the regime of "
      "choice (Table VI uses it); the custom kernel's shared-memory "
      "advantage is gone.");
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
