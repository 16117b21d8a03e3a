// Frozen host-speed yardstick for apply_rel and setup_s.
//
// A scalar first-index contraction chain over about 1 MB of k^d tensors —
// the shape of one Apply task's transform chain, written out with plain
// loops in this benchmark's own code (nothing from src/ is linked into it).
// Its code and compile flags must not change: apply_rel is the ratio of an
// operation's wall time to this kernel's, run right before and right after
// the operation, and setup_s is scaled by it the same way, so a change here
// would silently rescale both metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace mh::perf {

class RefKernel {
 public:
  /// Buffers for d-dimensional tensors of extent k; `sweeps` passes over
  /// the whole 1 MB set make one timed run.
  RefKernel(std::size_t d, std::size_t k, std::size_t sweeps);

  /// Run the kernel once; returns its wall seconds.
  double run();

  /// Floating-point operations of one run (a multiply and an add per term).
  double flops() const noexcept {
    return 2.0 * static_cast<double>(sweeps_ * tensors_ * d_ * ping_.size() *
                                      k_);
  }

 private:
  std::size_t d_;
  std::size_t k_;
  std::size_t sweeps_;
  std::size_t tensors_;
  std::vector<double> src_;
  std::vector<double> mat_;
  std::vector<double> ping_;
  std::vector<double> pong_;
  double sink_ = 0.0;
};

}  // namespace mh::perf
