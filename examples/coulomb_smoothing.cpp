// Domain example: a laptop-scale version of the paper's Coulomb application.
//
// A "molecular density" (sum of Gaussian sites) is projected on [0,1]^3 and
// convolved with the separated Gaussian-sum fit of 1/r — the same operator
// structure the paper runs on Titan (Formula 1): every task multiplies one
// k^3 tensor by M per-dimension h matrices. Rank reduction (paper §II-D) is
// demonstrated on the CPU path.
#include <cstdio>

#include "apps/coulomb.hpp"
#include "linalg/batch_gemm.hpp"
#include "mra/function.hpp"
#include "ops/apply.hpp"

int main() {
  using namespace mh;

  // Two "atoms" of different widths.
  std::vector<apps::GaussianSite> sites;
  sites.push_back({{0.42, 0.5, 0.5}, 0.12, 1.0});
  sites.push_back({{0.62, 0.5, 0.5}, 0.08, 0.7});
  const mra::ScalarFn density = apps::gaussian_mixture(sites);

  mra::FunctionParams params;
  params.ndim = 3;
  params.k = 5;
  params.thresh = 5e-4;
  params.initial_level = 1;
  params.max_level = 5;

  mra::Function rho = mra::Function::project(density, params);
  std::printf("density: %zu nodes, %zu leaves, depth %d, charge = %.6f\n",
              rho.num_nodes(), rho.num_leaves(), rho.max_depth(),
              rho.integral());

  // The Coulomb operator: 1/r as a sum of Gaussians (paper: M ~ 100 terms;
  // the loose fit here gives a few dozen, enough for a laptop demo).
  const auto op = apps::make_coulomb_operator(/*ndim=*/3, params.k,
                                              /*eps=*/1e-3, /*max_disp=*/2,
                                              /*screen_thresh=*/1e-3);
  std::printf("coulomb fit: M = %zu separated terms\n", op.rank());

  // ApplyStats counts the logical tasks * M * d GEMMs. The engine computes
  // fewer prefix nodes, since each leaf's tasks share their mode-prefix
  // intermediates, and runs fewer kernel calls still, since the last-mode
  // children of one prefix node are one fan-out call: it packs the prefix
  // intermediate once, reads the children's blocks in place and adds each
  // scaled product into its task's result from registers. Kernel calls also
  // count sum_down's d slab transforms per interior node of the result
  // that holds nonzero coefficients (all-zero ones are skipped).
  ops::ApplyStats full;
  const linalg::BatchGemmStats& engine = linalg::thread_workspace().stats();
  linalg::BatchGemmStats before = engine;
  mra::Function v = ops::apply(op, rho, {}, &full);
  std::size_t nodes = engine.prefix_nodes - before.prefix_nodes;
  std::size_t calls = engine.packed_gemms - before.packed_gemms;
  const auto pct = [&](std::size_t n) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(full.gemms);
  };
  std::printf(
      "apply (full rank):   %zu tasks, %zu GEMMs (%zu prefix nodes, %.1f%%; "
      "%zu kernel calls, %.1f%%), %.1f Mflops, |V| = %.4f\n",
      full.tasks, full.gemms, nodes, pct(nodes), calls, pct(calls),
      full.flops / 1e6, v.norm2());

  ops::ApplyOptions rr;
  rr.rank_reduce = true;
  rr.rank_tol = 1e-5;
  ops::ApplyStats reduced;
  before = engine;
  mra::Function v2 = ops::apply(op, rho, rr, &reduced);
  nodes = engine.prefix_nodes - before.prefix_nodes;
  calls = engine.packed_gemms - before.packed_gemms;
  std::printf(
      "apply (rank reduced): %zu GEMMs shortened of %zu (%zu prefix nodes, "
      "%zu kernel calls); |V| = %.4f, deviation %.2e\n",
      reduced.rank_reduced_gemms, reduced.gemms, nodes, calls, v2.norm2(),
      std::abs(v.norm2() - v2.norm2()));

  // The potential at the midpoint between the atoms.
  const double probe[3] = {0.52, 0.5, 0.5};
  std::printf("V(0.52, 0.5, 0.5) = %.6f\n", v.eval(probe));

  // Electrostatic self-energy E = <rho, V> via the compressed-form inner
  // product (exact in the multiwavelet basis).
  mra::Function rho_c = rho;
  rho_c.compress();
  v.compress();
  std::printf("self-energy <rho, V> = %.6f\n", mra::inner(rho_c, v));
  v.reconstruct();
  std::printf("operator cache: %zu misses, %zu hits (h blocks reused %.1fx)\n",
              op.cache_stats().misses, op.cache_stats().hits,
              op.cache_stats().misses
                  ? static_cast<double>(op.cache_stats().hits) /
                        static_cast<double>(op.cache_stats().misses)
                  : 0.0);
  return 0;
}
