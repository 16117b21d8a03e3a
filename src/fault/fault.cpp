#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/hash.hpp"
#include "obs/flight_recorder.hpp"

namespace mh::fault {

FaultError::FaultError(ErrorCode code, const std::string& what)
    : std::runtime_error(what), code_(code) {
  // Black-box hook: the first FaultError of the process dumps the armed
  // flight recorder (no-op when MH_FLIGHT_RECORDER is unset).
  obs::FlightRecorder::note_failure(error_code_name(code), what.c_str());
}

namespace {

constexpr std::array<const char*, kFaultSiteCount> kSiteNames = {
    "gpu_kernel", "send"};

// Each site's decision stream is seeded from (seed, salt). A salt belongs
// to its site, not to the site's index, so a seeded spec keeps injecting
// the same events at a site when other sites are added or removed
// (FaultInjector.KeptSiteStreamsArePinned holds both streams).
constexpr std::array<std::uint64_t, kFaultSiteCount> kSiteSalts = {1, 5};

[[noreturn]] void bad_spec(const std::string& token, const char* why) {
  throw std::invalid_argument("MH_FAULTS: " + std::string(why) + " in '" +
                              token + "'");
}

std::uint64_t parse_uint(const std::string& token, const std::string& value) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    bad_spec(token, "expected an unsigned integer");
  }
  try {
    return std::stoull(value);
  } catch (const std::out_of_range&) {
    bad_spec(token, "unsigned integer out of range");
  }
}

double parse_prob(const std::string& token, const std::string& value) {
  std::size_t used = 0;
  double p = 0.0;
  try {
    p = std::stod(value, &used);
  } catch (const std::exception&) {
    bad_spec(token, "expected a probability");
  }
  if (used != value.size() || !(p >= 0.0 && p <= 1.0)) {
    bad_spec(token, "probability must be in [0, 1]");
  }
  return p;
}

}  // namespace

const char* site_name(FaultSite site) noexcept {
  return kSiteNames[static_cast<std::size_t>(site)];
}

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kGpuKernelFailed: return "gpu_kernel_failed";
    case ErrorCode::kGpuRetriesExhausted: return "gpu_retries_exhausted";
    case ErrorCode::kRankDead: return "rank_dead";
    case ErrorCode::kDataLost: return "data_lost";
  }
  return "unknown";
}

double backoff_ms(double first_ms, double cap_ms, std::size_t attempt,
                  Rng& rng) noexcept {
  const double base =
      std::min(first_ms * std::pow(2.0, static_cast<double>(attempt)), cap_ms);
  return base * (1.0 + 0.25 * rng.next_double());
}

FaultInjector::FaultInjector(std::uint64_t seed) : seed_(seed) {
  std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    reseed_locked(sites_[i], static_cast<FaultSite>(i));
  }
}

FaultInjector& FaultInjector::global() {
  try {
    static FaultInjector* instance = [] {
      auto injector = std::make_unique<FaultInjector>();
      if (const char* spec = std::getenv("MH_FAULTS"); spec != nullptr) {
        injector->configure(spec);
      }
      // Arm the flight recorder alongside the injector: any binary that
      // honors MH_FAULTS (benches, examples, embedders) then also honors
      // MH_FLIGHT_RECORDER, and the recorder is armed before the first
      // injected FaultError can fire. No-op when the env var is unset.
      obs::FlightRecorder::arm_from_env();
      return injector.release();
    }();
    return *instance;
  } catch (const std::invalid_argument& e) {
    // A malformed MH_FAULTS is a usage error of whichever binary reads it
    // first: one line naming the spec, then the usage exit status. Caught
    // outside the static's initializer, which the exception abandons, so
    // no exit handler meets an initialization still in progress.
    const char* spec = std::getenv("MH_FAULTS");
    std::fprintf(stderr, "%s (MH_FAULTS=\"%s\")\n", e.what(),
                 spec != nullptr ? spec : "");
    std::exit(2);
  }
}

void FaultInjector::reseed_locked(SiteState& state, FaultSite site) {
  // One independent stream per site: decisions at one site never perturb
  // another site's sequence.
  state.rng =
      Rng(hash_combine(seed_, kSiteSalts[static_cast<std::size_t>(site)]));
  state.events = 0;
  state.injected = 0;
}

void FaultInjector::refresh_armed_locked() {
  bool any = false;
  for (auto& state : sites_) {
    const SiteRule& r = state.rule;
    const bool armed =
        r.probability > 0.0 || !r.at.empty() || r.every > 0;
    state.armed.store(armed, std::memory_order_relaxed);
    any = any || armed;
  }
  any_armed_.store(any, std::memory_order_relaxed);
}

void FaultInjector::install_rule_locked(FaultSite site, SiteRule rule) {
  SiteState& state = site_state(site);
  state.rule = std::move(rule);
  std::sort(state.rule.at.begin(), state.rule.at.end());
  reseed_locked(state, site);
  // Registered on first installation, so a site no rule ever named exports
  // no series.
  if (state.injected_counter == nullptr) {
    state.injected_counter = &obs::MetricsRegistry::global().counter(
        "mh_fault_injected_total", "faults injected by site",
        {{"site", site_name(site)}});
  }
}

void FaultInjector::set_rule(FaultSite site, SiteRule rule) {
  std::scoped_lock lock(mu_);
  install_rule_locked(site, std::move(rule));
  refresh_armed_locked();
}

void FaultInjector::reset(std::uint64_t seed) {
  std::scoped_lock lock(mu_);
  seed_ = seed;
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    reseed_locked(sites_[i], static_cast<FaultSite>(i));
  }
}

void FaultInjector::clear() {
  std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    sites_[i].rule = SiteRule{};
    reseed_locked(sites_[i], static_cast<FaultSite>(i));
  }
  refresh_armed_locked();
}

void FaultInjector::configure(const std::string& spec) {
  // Parse into staging rules first so a mid-spec error leaves this
  // injector unchanged.
  std::array<SiteRule, kFaultSiteCount> rules;
  std::array<bool, kFaultSiteCount> present{};
  std::uint64_t seed = seed_;

  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace.
    const auto first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    entry = entry.substr(first, entry.find_last_not_of(" \t") - first + 1);

    if (entry.rfind("seed=", 0) == 0) {
      seed = parse_uint(entry, entry.substr(5));
      continue;
    }
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      bad_spec(entry, "expected '<site>:<field>,...' or 'seed=<n>'");
    }
    const std::string name = entry.substr(0, colon);
    std::size_t site_index = kFaultSiteCount;
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
      if (name == kSiteNames[i]) site_index = i;
    }
    if (site_index == kFaultSiteCount) bad_spec(entry, "unknown fault site");
    SiteRule& rule = rules[site_index];
    present[site_index] = true;

    std::size_t fpos = colon + 1;
    while (fpos <= entry.size()) {
      std::size_t fend = entry.find(',', fpos);
      if (fend == std::string::npos) fend = entry.size();
      const std::string field = entry.substr(fpos, fend - fpos);
      fpos = fend + 1;
      if (field.empty()) bad_spec(entry, "empty field");
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) bad_spec(field, "expected 'key=value'");
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "p") {
        rule.probability = parse_prob(field, value);
      } else if (key == "at") {
        rule.at.push_back(parse_uint(field, value));
      } else if (key == "every") {
        rule.every = parse_uint(field, value);
        if (rule.every == 0) bad_spec(field, "every must be >= 1");
      } else {
        bad_spec(field, "unknown field (p|at|every)");
      }
    }
  }

  std::scoped_lock lock(mu_);
  seed_ = seed;
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    if (present[i]) {
      install_rule_locked(site, std::move(rules[i]));
    } else {
      sites_[i].rule = SiteRule{};
      reseed_locked(sites_[i], site);
    }
  }
  refresh_armed_locked();
}

bool FaultInjector::should_fail(FaultSite site) {
  if (!armed(site)) return false;
  std::scoped_lock lock(mu_);
  SiteState& state = site_state(site);
  const std::uint64_t event = ++state.events;
  const SiteRule& rule = state.rule;
  bool fail = std::binary_search(rule.at.begin(), rule.at.end(), event);
  if (!fail && rule.every > 0 && event % rule.every == 0) fail = true;
  if (!fail && rule.probability > 0.0 &&
      state.rng.next_double() < rule.probability) {
    fail = true;
  }
  if (fail) {
    ++state.injected;
    if (state.injected_counter != nullptr) state.injected_counter->inc();
  }
  return fail;
}

FaultInjector::SiteStats FaultInjector::stats(FaultSite site) const {
  std::scoped_lock lock(mu_);
  const SiteState& state = site_state(site);
  return {state.events, state.injected};
}

}  // namespace mh::fault
