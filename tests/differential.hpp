// Seeded random Apply inputs for the differential tier (test_world,
// test_elastic): an adaptive tree, a Gaussian-sum kernel and the options
// and placement a second Apply path may use. The same seed gives the same
// case on every platform (mh::Rng), so a failing case is named by its seed
// alone and re-runs from it.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mra/function.hpp"
#include "ops/apply.hpp"

namespace mh {

struct DifferentialCase {
  mra::Function f;
  ops::SeparatedConvolution::Params params;
  ops::SeparatedKernel kernel;
  ops::ApplyOptions opts;
  std::size_t ranks = 1;
  bool subtree = false;
};

// An adaptive tree tiling [0,1]^d: every box below the root refines with
// probability `refine` down to `max_level`. Leaves are random, all zero or
// signed zeros.
inline mra::Function random_tree(Rng& rng, std::size_t d, std::size_t k,
                                 int max_level, double refine) {
  mra::FunctionParams p;
  p.ndim = d;
  p.k = k;
  std::vector<std::pair<mra::Key, Tensor>> leaves;
  std::function<void(const mra::Key&)> grow = [&](const mra::Key& key) {
    if (key.level() < max_level &&
        (key.level() == 0 || rng.next_double() < refine)) {
      for (std::size_t c = 0; c < key.num_children(); ++c) grow(key.child(c));
      return;
    }
    Tensor t = Tensor::cube(d, k);
    const std::uint64_t kind = rng.below(8);
    for (double& x : t.flat()) {
      x = kind == 0 ? 0.0 : kind == 1 ? -0.0 : rng.uniform(-1.0, 1.0);
    }
    leaves.emplace_back(key, std::move(t));
  };
  grow(mra::Key::root(d));
  return mra::Function::from_leaves(p, leaves);
}

/// The case's input (tree and operator), led by its seed.
inline std::string describe(std::uint64_t seed, const DifferentialCase& c) {
  std::ostringstream os;
  os << "seed " << seed << ": d=" << c.params.ndim << " k=" << c.params.k;
  os << " leaves=" << c.f.num_leaves() << " terms=" << c.kernel.rank();
  os << " max_disp=" << c.params.max_disp;
  os << (c.params.periodic ? " periodic" : " free");
  return os.str();
}

inline DifferentialCase draw_case(std::uint64_t seed) {
  Rng rng(seed);
  DifferentialCase c;
  const std::size_t d = 1 + rng.below(3);
  const std::size_t k = 3 + rng.below(5);
  // Deep enough for mixed leaf levels, shallow enough for a fast d = 3.
  const int max_level = d == 1 ? 6 : d == 2 ? 3 : 2;
  c.f = random_tree(rng, d, k, max_level, d == 1 ? 0.7 : 0.5);
  c.params.ndim = d;
  c.params.k = k;
  c.params.thresh = 1e-8;
  c.params.max_disp = 1 + static_cast<std::int64_t>(rng.below(4));
  c.params.periodic = rng.below(2) == 1;
  const std::size_t terms = 1 + rng.below(4);
  for (std::size_t mu = 0; mu < terms; ++mu) {
    const double width = rng.uniform(0.03, 0.4);
    c.kernel.terms.push_back({rng.uniform(0.1, 2.0), 1.0 / (width * width)});
  }
  c.opts.rank_reduce = rng.below(2) == 1;
  if (c.opts.rank_reduce) c.opts.rank_tol = std::pow(10.0, rng.uniform(-8, -3));
  c.ranks = 1 + rng.below(3);
  c.subtree = rng.below(2) == 1;
  return c;
}

}  // namespace mh
