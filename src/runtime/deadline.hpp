// Deadline-aware flush policy — when to dispatch a partial batch so its
// most urgent member still meets its latency deadline.
//
// Pure size/timer flushing (batching.hpp's cadence) optimizes throughput:
// a batch waits its whole window even when a request in it is about to
// blow its SLO. The serving discipline instead flushes at the
// *last responsible moment*:
//
//   flush_at = first_due - service_estimate - margin
//
// where first_due is the earliest deadline among the batch's items: keep
// aggregating (amortizing dispatch overhead over more items) right up
// until service could no longer finish by it, with `margin` absorbing
// estimate error. Expressed over plain
// double timestamps (seconds on an arbitrary epoch); serve::ServeFrontEnd
// evaluates it on the simulated clock, and the tail-latency claims CI
// gates are made about this exact arithmetic.
#pragma once

namespace mh::rt {

/// The latest time a batch holding an item due at `first_due` can be
/// dispatched and still (by estimate) meet it.
inline double deadline_flush_at(double first_due, double service_estimate,
                                double margin) noexcept {
  return first_due - service_estimate - margin;
}

/// True once `now` has reached the last responsible moment.
inline bool deadline_flush_due(double now, double first_due,
                               double service_estimate,
                               double margin) noexcept {
  return now >= deadline_flush_at(first_due, service_estimate, margin);
}

}  // namespace mh::rt
