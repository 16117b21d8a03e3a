// Seeded byte-level mutation for the adversarial sweeps (test_obs,
// test_elastic, test_fault): a valid document is given one to three edits,
// each a truncation, a bit flip, a splice (a slice of the document pasted
// elsewhere) or the sweep's own domain edit. The same seed gives the same
// document on every platform (mh::Rng), so a failing case is named by its
// seed alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.hpp"

namespace mh {

/// `doc` after one to three seeded edits. `domain_edit(out, rng)` is the
/// sweep's own edit of the document so far; it draws from the mutation's
/// `rng` (whose below(0) is 0) and may leave `out` as it is. Each draw is
/// its own statement, so the draws' order, and with it the document a
/// seed gives, does not depend on the compiler.
template <class DomainEdit>
std::string mutate(std::string doc, std::uint64_t seed,
                   const DomainEdit& domain_edit) {
  Rng rng(seed);
  const std::size_t edits = 1 + rng.below(3);
  for (std::size_t e = 0; e < edits && !doc.empty(); ++e) {
    switch (rng.below(4)) {
      case 0:  // truncation
        doc.resize(rng.below(doc.size()));
        break;
      case 1: {  // bit flip
        const std::size_t at = rng.below(doc.size());
        doc[at] ^= static_cast<char>(1u << rng.below(8));
        break;
      }
      case 2: {  // splice
        const std::size_t from = rng.below(doc.size());
        const std::string slice = doc.substr(from, 1 + rng.below(64));
        doc.insert(rng.below(doc.size() + 1), slice);
        break;
      }
      default:
        domain_edit(doc, rng);
        break;
    }
  }
  return doc;
}

}  // namespace mh
