// Deterministic fault injection for the hybrid runtime.
//
// On Titan-scale machines the failures the paper's dispatcher quietly
// assumes away — a kernel launch that errors, a dropped message to a
// remote rank — are routine. This module injects exactly those events,
// reproducibly, at the places the running system consults it: the
// BatchingEngine's GPU attempt (gpu_kernel), and remote sends in World,
// the replicated DHT, churn and serve (send). The resilience machinery
// above it (BatchingEngine retries + circuit breaker + CPU fallback, World
// send retries) can then be regression-tested like any other code path.
//
// A FaultInjector holds one rule per *site* (the place in the runtime an
// event can fail). Each site keeps its own event counter and its own
// xoshiro stream seeded from (seed, the site's fixed salt), so the
// decision sequence for a site depends only on the seed, the rule, and how
// many events that site has seen — never on wall time, thread interleaving
// or the other site. Rules trigger by
//   - exact ordinals  (at=3,7   — the 3rd and 7th event fail),
//   - a fixed cadence (every=4  — every 4th event fails),
//   - probability     (p=0.05   — each event fails with probability 0.05).
//
// Configuration is programmatic (set_rule) or textual via the MH_FAULTS
// environment variable, parsed into the process-wide global() injector:
//
//   MH_FAULTS="gpu_kernel:p=0.5,at=1;send:every=7;seed=42"
//
// spec     := entry (';' entry)*
// entry    := 'seed=' uint | site ':' field (',' field)*
// site     := 'gpu_kernel' | 'send'
// field    := 'p=' float in [0,1] | 'at=' uint (repeatable, 1-based)
//           | 'every=' uint
//
// Injected faults surface as FaultError, an exception carrying a typed
// ErrorCode, and are counted in mh_fault_injected_total{site=...} so every
// chaos run is visible in the metrics export. The unarmed fast path is one
// relaxed atomic load — leaving the hooks compiled in costs nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace mh::fault {

/// Places in the runtime where an event can be made to fail.
enum class FaultSite : std::uint8_t {
  kGpuKernel = 0,  ///< a GPU kernel launch/execution
  kSend,           ///< a remote active-message send
};
inline constexpr std::size_t kFaultSiteCount = 2;

/// Spec name of a site ("gpu_kernel" or "send").
const char* site_name(FaultSite site) noexcept;

/// Typed error codes for fault-induced failures. The first is raised when
/// the BatchingEngine's GPU attempt draws an injected fault (site
/// gpu_kernel); the rest are produced by the resilience layer when it
/// gives up (retries exhausted, rank declared dead, every replica of a DHT
/// entry lost with the ranks that held it). A failed send is retried or
/// ends in kRankDead, so it has no code of its own.
enum class ErrorCode : std::uint8_t {
  kGpuKernelFailed = 0,
  kGpuRetriesExhausted,  ///< GPU batch failed every attempt, no CPU fallback
  kRankDead,             ///< remote sends to the rank failed permanently
  kDataLost,             ///< every replica of a DHT entry is on a dead rank
};
const char* error_code_name(ErrorCode code) noexcept;

/// The typed exception every injected (or derived) fault surfaces as.
/// Callers can dispatch on code() instead of string-matching what().
/// Construction notifies the flight recorder (obs/flight_recorder.hpp):
/// when MH_FLIGHT_RECORDER is armed, the first FaultError of the process
/// dumps the ring buffer so the failure's lead-up is captured even if the
/// error is later absorbed by a retry or the circuit breaker.
class FaultError : public std::runtime_error {
 public:
  FaultError(ErrorCode code, const std::string& what);
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// When the events of one site fail. Triggers compose: an event fails if it
/// matches `at`, or the `every` cadence, or the probability draw.
struct SiteRule {
  double probability = 0.0;        ///< per-event failure probability
  std::vector<std::uint64_t> at;   ///< exact 1-based event ordinals
  std::uint64_t every = 0;         ///< every Nth event fails (0 = off)
};

/// Retry delay in milliseconds before re-attempt `attempt` (0-based):
/// min(first_ms * 2^attempt, cap_ms) * (1 + 0.25 u), u in [0, 1) drawn from
/// the caller-owned `rng`. The jitter decorrelates retries while staying
/// reproducible under the rng's seed. The BatchingEngine's GPU retries and
/// World's remote sends both back off through this one formula.
double backoff_ms(double first_ms, double cap_ms, std::size_t attempt,
                  Rng& rng) noexcept;

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0x5eedULL);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The process injector, configured once from MH_FAULTS (unarmed when
  /// the variable is unset). Runtime objects default to this instance. A
  /// malformed MH_FAULTS prints one stderr line naming the spec and exits
  /// the process with status 2.
  static FaultInjector& global();

  /// Parse a spec string (grammar above) into this injector; replaces any
  /// existing rules. Throws std::invalid_argument with the offending token
  /// on a grammar error.
  void configure(const std::string& spec);

  /// Install (or replace) the rule for one site. Resets the site's event
  /// counter and reseeds its RNG stream so runs stay reproducible.
  void set_rule(FaultSite site, SiteRule rule);

  /// Reseed and reset every site's counters; keeps rules.
  void reset(std::uint64_t seed);
  /// Remove every rule (disarm).
  void clear();

  /// True if any site has a rule. One relaxed load — the hot-path guard.
  bool armed() const noexcept {
    return any_armed_.load(std::memory_order_relaxed);
  }
  bool armed(FaultSite site) const noexcept {
    return site_state(site).armed.load(std::memory_order_relaxed);
  }

  /// Consult the injector for the next event at `site`: counts the event
  /// and returns true when it must fail. Thread-safe; deterministic given
  /// the seed and the site's event order.
  bool should_fail(FaultSite site);

  struct SiteStats {
    std::uint64_t events = 0;    ///< events consulted
    std::uint64_t injected = 0;  ///< events selected to fail
  };
  SiteStats stats(FaultSite site) const;

 private:
  struct SiteState {
    SiteRule rule;
    Rng rng{0};
    std::uint64_t events = 0;
    std::uint64_t injected = 0;
    std::atomic<bool> armed{false};
    obs::Counter* injected_counter = nullptr;  ///< registered on arming
  };

  SiteState& site_state(FaultSite site) noexcept {
    return sites_[static_cast<std::size_t>(site)];
  }
  const SiteState& site_state(FaultSite site) const noexcept {
    return sites_[static_cast<std::size_t>(site)];
  }
  void reseed_locked(SiteState& state, FaultSite site);
  void install_rule_locked(FaultSite site, SiteRule rule);
  void refresh_armed_locked();

  mutable std::mutex mu_;
  std::uint64_t seed_;
  std::array<SiteState, kFaultSiteCount> sites_;
  std::atomic<bool> any_armed_{false};
};

}  // namespace mh::fault
