// Bitwise tree equality for the tests that hold two Apply paths to the
// same bits.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "mra/function.hpp"

namespace mh {

/// memcmp over every node: the same keys, the same tree structure and the
/// same coefficient bits.
inline ::testing::AssertionResult bitwise_equal(const mra::Function& a,
                                                const mra::Function& b) {
  if (a.num_nodes() != b.num_nodes())
    return ::testing::AssertionFailure() << "node counts differ";
  for (const auto& [key, node] : a.nodes()) {
    const auto it = b.nodes().find(key);
    if (it == b.nodes().end())
      return ::testing::AssertionFailure() << "no node at " << key;
    const Tensor& x = node.coeffs;
    const Tensor& y = it->second.coeffs;
    if (node.has_children != it->second.has_children ||
        x.size() != y.size() ||
        (x.size() != 0 &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)) {
      return ::testing::AssertionFailure() << "node " << key << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mh
