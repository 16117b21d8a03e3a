// Chaos tests for src/fault and the resilience layer it drives: the
// injector's deterministic decision streams and MH_FAULTS grammar (with a
// seeded mutation sweep over it), the shared retry backoff, the
// BatchingEngine's retry + circuit breaker + CPU fallback, World send
// retries and dead-rank reporting, and the end-to-end Apply acceptance run
// under a 100% GPU-kernel fault rate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/coulomb.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "mra/function.hpp"
#include "mutate.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "ops/apply.hpp"
#include "runtime/batching.hpp"
#include "world/world.hpp"

// Provided by the sanitizer runtimes; null in a build without them.
extern "C" void __sanitizer_set_death_callback(void (*callback)())
    __attribute__((weak));

namespace mh {
namespace {

using namespace std::chrono_literals;
using fault::ErrorCode;
using fault::FaultError;
using fault::FaultInjector;
using fault::FaultSite;
using fault::SiteRule;

SiteRule prob_rule(double p) {
  SiteRule rule;
  rule.probability = p;
  return rule;
}

SiteRule at_rule(std::vector<std::uint64_t> at) {
  SiteRule rule;
  rule.at = std::move(at);
  return rule;
}

// ---------------------------------------------------------------------------
// FaultInjector semantics.
// ---------------------------------------------------------------------------

TEST(FaultInjector, UnarmedInjectsNothing) {
  FaultInjector fi(1);
  EXPECT_FALSE(fi.armed());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fi.should_fail(FaultSite::kSend));
  // Unarmed consults do not even count events (fast path).
  EXPECT_EQ(fi.stats(FaultSite::kSend).events, 0u);
}

TEST(FaultInjector, AtTriggersFireOnExactOrdinals) {
  FaultInjector fi(1);
  fi.set_rule(FaultSite::kGpuKernel, at_rule({7, 3}));
  std::vector<int> failed;
  for (int event = 1; event <= 10; ++event) {
    if (fi.should_fail(FaultSite::kGpuKernel)) failed.push_back(event);
  }
  EXPECT_EQ(failed, (std::vector<int>{3, 7}));
  EXPECT_EQ(fi.stats(FaultSite::kGpuKernel).events, 10u);
  EXPECT_EQ(fi.stats(FaultSite::kGpuKernel).injected, 2u);
}

TEST(FaultInjector, EveryCadenceIsExact) {
  FaultInjector fi(1);
  SiteRule rule;
  rule.every = 4;
  fi.set_rule(FaultSite::kSend, rule);
  int injected = 0;
  for (int event = 1; event <= 12; ++event) {
    const bool fail = fi.should_fail(FaultSite::kSend);
    EXPECT_EQ(fail, event % 4 == 0) << "event " << event;
    injected += fail ? 1 : 0;
  }
  EXPECT_EQ(injected, 3);
}

TEST(FaultInjector, ProbabilityStreamIsDeterministicPerSeed) {
  const auto sequence = [](std::uint64_t seed) {
    FaultInjector fi(seed);
    fi.set_rule(FaultSite::kGpuKernel, prob_rule(0.37));
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(fi.should_fail(FaultSite::kGpuKernel));
    }
    return out;
  };
  EXPECT_EQ(sequence(42), sequence(42));
  EXPECT_NE(sequence(42), sequence(43));
  // The empirical rate is in the right ballpark for p=0.37 over 200 draws.
  const auto seq = sequence(42);
  const auto hits = std::count(seq.begin(), seq.end(), true);
  EXPECT_GT(hits, 40);
  EXPECT_LT(hits, 110);
}

TEST(FaultInjector, SitesHaveIndependentStreams) {
  FaultInjector fi(9);
  fi.set_rule(FaultSite::kGpuKernel, prob_rule(0.5));
  fi.set_rule(FaultSite::kSend, prob_rule(0.5));
  std::vector<bool> kernel_alone;
  {
    FaultInjector only(9);
    only.set_rule(FaultSite::kGpuKernel, prob_rule(0.5));
    for (int i = 0; i < 64; ++i) {
      only.should_fail(FaultSite::kSend);  // unarmed, must not perturb
      kernel_alone.push_back(only.should_fail(FaultSite::kGpuKernel));
    }
  }
  std::vector<bool> kernel_mixed;
  for (int i = 0; i < 64; ++i) {
    fi.should_fail(FaultSite::kSend);  // armed, draws from its own stream
    kernel_mixed.push_back(fi.should_fail(FaultSite::kGpuKernel));
  }
  EXPECT_EQ(kernel_alone, kernel_mixed);
}

TEST(FaultInjector, KeptSiteStreamsArePinned) {
  // The first 64 decisions of p=0.5 under seed 42, bit i = event i + 1.
  // Each site's stream is seeded from (seed, salt) with a salt that never
  // changes, so a seeded chaos run injects the same events at a site
  // whatever other sites exist, and whether or not the other site is armed.
  constexpr std::uint64_t kGpuKernelMask = 0xcf7ed2dd6c1e7304ULL;
  constexpr std::uint64_t kSendMask = 0x057fa04d9cf40f13ULL;
  const auto draw = [](FaultInjector& fi, FaultSite site) {
    std::uint64_t mask = 0;
    for (int i = 0; i < 64; ++i) {
      if (fi.should_fail(site)) mask |= std::uint64_t{1} << i;
    }
    return mask;
  };
  for (const FaultSite site : {FaultSite::kGpuKernel, FaultSite::kSend}) {
    FaultInjector alone(42);
    alone.set_rule(site, prob_rule(0.5));
    EXPECT_EQ(draw(alone, site),
              site == FaultSite::kGpuKernel ? kGpuKernelMask : kSendMask)
        << fault::site_name(site);
  }
  FaultInjector both(42);
  both.configure("gpu_kernel:p=0.5;send:p=0.5;seed=42");
  EXPECT_EQ(draw(both, FaultSite::kGpuKernel), kGpuKernelMask);
  EXPECT_EQ(draw(both, FaultSite::kSend), kSendMask);
}

TEST(FaultInjector, SpecGrammarRoundTrips) {
  FaultInjector fi(1);
  fi.configure(" gpu_kernel:at=3,at=7 ;send:every=4,p=0;seed=99");
  EXPECT_TRUE(fi.armed(FaultSite::kGpuKernel));
  EXPECT_TRUE(fi.armed(FaultSite::kSend));
  std::vector<int> kernel_failed;
  for (int event = 1; event <= 8; ++event) {
    if (fi.should_fail(FaultSite::kGpuKernel)) kernel_failed.push_back(event);
  }
  EXPECT_EQ(kernel_failed, (std::vector<int>{3, 7}));
  EXPECT_FALSE(fi.should_fail(FaultSite::kSend));  // events 1..3 pass
  EXPECT_FALSE(fi.should_fail(FaultSite::kSend));
  EXPECT_FALSE(fi.should_fail(FaultSite::kSend));
  EXPECT_TRUE(fi.should_fail(FaultSite::kSend));  // every=4
  // A new spec replaces every rule: gpu_kernel is disarmed, send fails
  // each event.
  fi.configure("send:p=1");
  EXPECT_FALSE(fi.armed(FaultSite::kGpuKernel));
  EXPECT_TRUE(fi.should_fail(FaultSite::kSend));
  EXPECT_EQ(fi.stats(FaultSite::kSend).events, 1u);
}

TEST(FaultInjector, SpecGrammarRejectsBadInput) {
  FaultInjector fi(1);
  EXPECT_THROW(fi.configure("bogus_site:p=1"), std::invalid_argument);
  EXPECT_THROW(fi.configure("gpu_kernel:q=1"), std::invalid_argument);
  EXPECT_THROW(fi.configure("gpu_kernel:p=1.5"), std::invalid_argument);
  EXPECT_THROW(fi.configure("gpu_kernel:p=-0.1"), std::invalid_argument);
  EXPECT_THROW(fi.configure("send:every=0"), std::invalid_argument);
  EXPECT_THROW(fi.configure("send:at=x"), std::invalid_argument);
  EXPECT_THROW(fi.configure("no_colon_here"), std::invalid_argument);
  EXPECT_THROW(fi.configure("seed=99999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(fi.configure("gpu_kernel:p=nan"), std::invalid_argument);
  // Page-locked allocation, transfers and worker stalls are no injection
  // sites, and no site has a delay: each rejection names its token.
  for (const auto& [spec, token] :
       std::vector<std::pair<std::string, std::string>>{
           {"pinned:p=1", "pinned:p=1"},
           {"h2d:p=1", "h2d:p=1"},
           {"d2h:p=1", "d2h:p=1"},
           {"worker_slow:p=1", "worker_slow:p=1"},
           {"gpu_kernel:delay=1ms", "delay=1ms"}}) {
    try {
      fi.configure(spec);
      ADD_FAILURE() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + token + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // A failed configure leaves the injector unchanged (still unarmed).
  EXPECT_FALSE(fi.armed());
}

TEST(FaultInjectorDeathTest, MalformedEnvSpecExitsWithStatusTwo) {
  // The process injector reads MH_FAULTS on first use: a spec it cannot
  // parse ends the process with one stderr line naming the spec and the
  // usage status 2, not an uncaught exception. The threadsafe style
  // re-runs the test binary, so the child's global() is not yet built.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("MH_FAULTS", "pinned:p=1", 1);
        FaultInjector::global();
      },
      ::testing::ExitedWithCode(2),
      "unknown fault site in 'pinned:p=1' \\(MH_FAULTS=\"pinned:p=1\"\\)");
  // Transfer and worker-stall sites and a delay field exit the same way.
  for (const char* spec :
       {"h2d:p=1", "d2h:p=1", "worker_slow:p=1", "gpu_kernel:delay=1ms"}) {
    EXPECT_EXIT(
        {
          setenv("MH_FAULTS", spec, 1);
          FaultInjector::global();
        },
        ::testing::ExitedWithCode(2),
        "\\(MH_FAULTS=\"" + std::string(spec) + "\"\\)")
        << spec;
  }
}

// Seeded mutation of the MH_FAULTS grammar: valid specs are truncated,
// bit-flipped and spliced into each other, and configure must either
// accept the result or throw std::invalid_argument — never another
// exception, a crash or a sanitizer report. A failure names the case's
// seed; the sanitizer death callback names the seed in flight.
std::atomic<std::uint64_t> g_spec_seed{0};

TEST(FaultInjector, SpecGrammarMutationsConfigureOrThrowInvalidArgument) {
  if (__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback([] {
      std::fprintf(stderr, "SpecMutation: case seed %llu in flight\n",
                   static_cast<unsigned long long>(g_spec_seed.load()));
    });
  }
  const std::vector<std::string> corpus = {
      "gpu_kernel:p=0.5; send:at=3,at=7 ;gpu_kernel:every=4;seed=99",
      "send:every=7;seed=20260808",
      "send:p=0.01,every=3;gpu_kernel:at=1,at=2",
      "gpu_kernel:p=1e-3,at=5;send:p=1;seed=18446744073709551615",
  };
  FaultInjector fi(1);
  for (const std::string& spec : corpus) {
    ASSERT_NO_THROW(fi.configure(spec)) << spec;
  }
  // `pinned` is no site, even inside an otherwise valid spec.
  EXPECT_THROW(fi.configure("send:every=7;pinned:p=1"), std::invalid_argument);

  constexpr std::uint64_t kCases = 3000;
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    g_spec_seed = seed;
    // The domain edit splices a slice of any valid spec in anywhere.
    const std::string spec = mutate(
        corpus[seed % corpus.size()], seed, [&](std::string& out, Rng& rng) {
          const std::string& donor = corpus[rng.below(corpus.size())];
          const std::size_t from = rng.below(donor.size());
          const std::string slice = donor.substr(from, 1 + rng.below(24));
          out.insert(rng.below(out.size() + 1), slice);
        });
    try {
      fi.configure(spec);
      ++accepted;
    } catch (const std::invalid_argument&) {
      // The typed rejection the grammar promises.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "spec seed " << seed << " ('" << spec
                    << "') threw a non-invalid_argument: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "spec seed " << seed << " ('" << spec
                    << "') threw a non-exception";
    }
  }
  // The sweep exercises both outcomes, not just one.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kCases);
}

TEST(FaultInjector, InjectionIsCountedInGlobalMetrics) {
  auto& counter = obs::MetricsRegistry::global().counter(
      "mh_fault_injected_total", {}, {{"site", "send"}});
  const double before = counter.value();
  FaultInjector fi(1);
  fi.set_rule(FaultSite::kSend, prob_rule(1.0));
  fi.should_fail(FaultSite::kSend);
  fi.should_fail(FaultSite::kSend);
  EXPECT_DOUBLE_EQ(counter.value(), before + 2.0);
}

// ---------------------------------------------------------------------------
// BatchingEngine resilience.
// ---------------------------------------------------------------------------

using Engine = rt::BatchingEngine<int, int>;

Engine::Config chaos_config(FaultInjector* fi, obs::MetricsRegistry* reg) {
  Engine::Config cfg;
  cfg.cpu_threads = 3;
  cfg.cpu_fraction = 0.5;
  // A long window makes batch boundaries deterministic: every dispatch in
  // these tests comes from a size trigger (max_batch) or wait()'s explicit
  // flush, never from a timer racing the submission loop.
  cfg.flush_interval = 10s;
  cfg.max_batch = 16;
  cfg.metrics = reg;
  cfg.faults = fi;
  cfg.retry_backoff = 0ms;
  cfg.retry_backoff_max = 1ms;
  return cfg;
}

TEST(EngineResilience, BreakerOpensAndEverythingCompletesOnCpu) {
  FaultInjector fi(11);
  fi.set_rule(FaultSite::kGpuKernel, prob_rule(1.0));
  obs::MetricsRegistry reg;
  auto cfg = chaos_config(&fi, &reg);
  cfg.gpu_max_retries = 1;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 10s;  // stay open for the whole test
  Engine engine(cfg);
  std::atomic<long> sum{0};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) { return 2 * x; },
       [](std::span<const int> xs) {
         std::vector<int> out;
         for (int x : xs) out.push_back(2 * x);
         return out;
       },
       [&](int&& v) { sum.fetch_add(v, std::memory_order_relaxed); },
       1});
  long expect = 0;
  for (int i = 0; i < 400; ++i) {
    engine.submit(kind, i);
    expect += 2 * i;
  }
  ASSERT_NO_THROW(engine.wait());  // CPU fallback absorbs every GPU failure
  EXPECT_EQ(sum.load(), expect);
  {
    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted, 400u);
    EXPECT_EQ(stats.completed, 400u);
    EXPECT_GE(stats.gpu_failures, cfg.breaker_threshold);
    EXPECT_GE(stats.gpu_fallback_items, 1u);
    EXPECT_GE(stats.breaker_opens, 1u);
  }
  EXPECT_EQ(engine.breaker_state(), Engine::BreakerState::kOpen);
  // The degradation is visible in the metrics registry, which counts
  // exactly what Stats counts (the cooldown keeps the breaker from
  // re-opening out of half-open, so every open transition is from closed).
  EXPECT_DOUBLE_EQ(reg.gauge("mh_fault_breaker_state", {}).value(), 1.0);
  {
    const auto stats = engine.stats();
    EXPECT_EQ(reg.counter("mh_fault_gpu_batch_failures_total", {}).value(),
              static_cast<double>(stats.gpu_failures));
    EXPECT_EQ(reg.counter("mh_fault_gpu_batch_retries_total", {}).value(),
              static_cast<double>(stats.gpu_retries));
    EXPECT_EQ(reg.counter("mh_fault_cpu_fallback_items_total", {}).value(),
              static_cast<double>(stats.gpu_fallback_items));
    EXPECT_EQ(reg.counter("mh_fault_breaker_transitions_total", {},
                          {{"to", "open"}})
                  .value(),
              static_cast<double>(stats.breaker_opens));
  }
  // A wave staged entirely after the breaker opened routes 100% to the CPU:
  // the live split degrades to 1.0 and no new GPU failures accrue.
  const auto before = engine.stats();
  for (int i = 0; i < 16; ++i) {
    engine.submit(kind, 1000 + i);
    expect += 2 * (1000 + i);
  }
  ASSERT_NO_THROW(engine.wait());
  EXPECT_EQ(sum.load(), expect);
  const auto after = engine.stats();
  EXPECT_EQ(after.gpu_failures, before.gpu_failures);
  EXPECT_EQ(after.cpu_items, before.cpu_items + 16);
  const obs::Labels labels{{"kind", std::to_string(kind)}};
  EXPECT_DOUBLE_EQ(reg.gauge("mh_batching_split_fraction", {}, labels).value(),
                   1.0);
}

TEST(EngineResilience, WaitPropagatesTypedErrorWithoutCpuFallback) {
  FaultInjector fi(11);
  fi.set_rule(FaultSite::kGpuKernel, prob_rule(1.0));
  auto cfg = chaos_config(&fi, nullptr);
  cfg.cpu_fraction = 0.0;
  cfg.gpu_max_retries = 1;
  cfg.breaker_threshold = 1000;  // keep the breaker out of the picture
  Engine engine(cfg);
  std::atomic<int> post{0};
  const rt::KindId kind = engine.register_kind(
      {nullptr,  // GPU-only kind: nothing to fall back to
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++post; },
       2});
  for (int i = 0; i < 16; ++i) engine.submit(kind, i);
  try {
    engine.wait();
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kGpuRetriesExhausted);
  }
  // No hang, no lost accounting: every item was completed (as failed).
  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(post.load(), 0);
}

TEST(EngineResilience, RetryBackoffIsDeterministicUnderFixedSeed) {
  // The shared formula: min(first * 2^attempt, cap) * (1 + 0.25 u), with u
  // from the caller's stream — reproducible per seed, and seed-dependent.
  const auto delays = [](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out;
    for (std::size_t attempt = 0; attempt < 6; ++attempt) {
      out.push_back(fault::backoff_ms(2.0, 16.0, attempt, rng));
    }
    return out;
  };
  const auto seeded = delays(77);
  EXPECT_EQ(seeded, delays(77));
  EXPECT_NE(seeded, delays(78));
  for (std::size_t attempt = 0; attempt < seeded.size(); ++attempt) {
    const double base = std::min(2.0 * static_cast<double>(1u << attempt),
                                 16.0);
    EXPECT_GE(seeded[attempt], base) << attempt;
    EXPECT_LT(seeded[attempt], 1.25 * base) << attempt;
  }

  const auto backoffs = [] {
    FaultInjector fi(5);
    fi.set_rule(FaultSite::kGpuKernel, at_rule({1, 2, 3}));
    auto cfg = chaos_config(&fi, nullptr);
    cfg.gpu_max_retries = 2;
    cfg.retry_backoff = 2ms;
    cfg.retry_backoff_max = 16ms;
    cfg.breaker_threshold = 1000;
    Engine engine(cfg);
    const rt::KindId kind = engine.register_kind(
        {[](const int& x) { return x; },
         [](std::span<const int> xs) {
           return std::vector<int>(xs.begin(), xs.end());
         },
         [](int&&) {}, 3});
    for (int i = 0; i < 16; ++i) engine.submit(kind, i);
    engine.wait();  // attempts 1,2,3 fail -> 2 backoffs -> CPU fallback
    return engine.stats().retry_backoffs_ms;
  };
  const auto a = backoffs();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a, backoffs());  // byte-for-byte reproducible
  // The engine's delays are the shared formula on its fixed-seed stream.
  Rng engine_stream(0x5eedULL);
  EXPECT_EQ(a[0], fault::backoff_ms(2.0, 16.0, 0, engine_stream));
  EXPECT_EQ(a[1], fault::backoff_ms(2.0, 16.0, 1, engine_stream));
}

TEST(EngineResilience, FailedAttemptIsRetriedAndRetrySucceeds) {
  FaultInjector fi(5);
  fi.set_rule(FaultSite::kGpuKernel, at_rule({1}));  // first attempt only
  auto cfg = chaos_config(&fi, nullptr);
  cfg.gpu_max_retries = 2;
  cfg.breaker_threshold = 1000;
  Engine engine(cfg);
  std::atomic<int> post{0};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++post; },
       4});
  for (int i = 0; i < 16; ++i) engine.submit(kind, i);
  ASSERT_NO_THROW(engine.wait());
  EXPECT_EQ(post.load(), 16);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.gpu_failures, 1u);
  EXPECT_EQ(stats.gpu_retries, 1u);
  EXPECT_EQ(stats.gpu_fallback_items, 0u);  // the retry succeeded
}

TEST(EngineResilience, BreakerProbesHalfOpenAndRecovers) {
  FaultInjector fi(5);
  fi.set_rule(FaultSite::kGpuKernel, at_rule({1, 2}));  // first 2 attempts
  obs::MetricsRegistry reg;
  auto cfg = chaos_config(&fi, &reg);
  cfg.gpu_max_retries = 0;  // each failure is terminal for its batch
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 1ms;
  Engine engine(cfg);
  std::atomic<int> post{0};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++post; },
       5});
  // Wave 1 and 2: GPU attempts 1 and 2 fail -> breaker opens.
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < 16; ++i) engine.submit(kind, i);
    engine.wait();
  }
  EXPECT_EQ(engine.breaker_state(), Engine::BreakerState::kOpen);
  std::this_thread::sleep_for(5ms);  // cooldown elapses
  // Wave 3: staged half-open, sends a single probe (event 3: success).
  for (int i = 0; i < 16; ++i) engine.submit(kind, i);
  engine.wait();
  EXPECT_EQ(engine.breaker_state(), Engine::BreakerState::kClosed);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_closes, 1u);
  EXPECT_EQ(post.load(), 48);
  EXPECT_DOUBLE_EQ(reg.gauge("mh_fault_breaker_state", {}).value(), 0.0);
  // The degradation interval was accounted when the breaker closed.
  EXPECT_GT(reg.counter("mh_fault_breaker_open_seconds_total", {}).value(),
            0.0);
  // Wave 4: a healthy GPU gets its configured share back.
  for (int i = 0; i < 16; ++i) engine.submit(kind, i);
  engine.wait();
  const obs::Labels labels{{"kind", std::to_string(kind)}};
  EXPECT_DOUBLE_EQ(reg.gauge("mh_batching_split_fraction", {}, labels).value(),
                   0.5);
}

// ---------------------------------------------------------------------------
// World: send retries and dead ranks.
// ---------------------------------------------------------------------------

// World sends consult the process injector: each test configures
// FaultInjector::global() on a fixed seed, and the fixture clears its rules
// again (re-applying MH_FAULTS, if set).
class WorldFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::global().clear();
    FaultInjector::global().reset(5);
  }
  void TearDown() override {
    FaultInjector::global().clear();
    if (const char* spec = std::getenv("MH_FAULTS"); spec != nullptr)
      FaultInjector::global().configure(spec);
  }
};

TEST_F(WorldFaults, FailedSendIsRetriedAndDelivered) {
  FaultInjector::global().set_rule(FaultSite::kSend,
                                   at_rule({1}));  // first attempt fails
  world::World w(3);
  std::atomic<int> ran{0};
  w.send(0, 1, 128.0, [&] { ++ran; });
  ASSERT_NO_THROW(w.fence());
  EXPECT_EQ(ran.load(), 1);
  const auto stats = w.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.send_retries, 1u);
  EXPECT_EQ(stats.send_failures, 0u);
  EXPECT_TRUE(w.dead_ranks().empty());
}

TEST_F(WorldFaults, RankDeclaredDeadAfterExhaustedRetries) {
  FaultInjector::global().set_rule(FaultSite::kSend, prob_rule(1.0));
  world::World w(3);
  std::atomic<int> ran{0};
  w.send(0, 2, 64.0, [&] { ++ran; });  // 1 attempt + 3 retries, all fail
  try {
    w.fence();
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRankDead);
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(w.dead_ranks(), (std::vector<std::size_t>{2}));
  EXPECT_FALSE(w.rank_alive(2));
  EXPECT_TRUE(w.rank_alive(1));
  EXPECT_EQ(w.stats().send_retries, 3u);
  EXPECT_EQ(w.stats().send_failures, 1u);
  // Sends to a dead rank fail fast (no fresh retries), typed again.
  w.send(0, 2, 64.0, [&] { ++ran; });
  EXPECT_THROW(w.fence(), FaultError);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(w.stats().send_retries, 3u);
  EXPECT_EQ(w.stats().send_failures, 2u);
  // Local work and other ranks are unaffected.
  std::atomic<int> local{0};
  w.submit(1, [&] { ++local; });
  ASSERT_NO_THROW(w.fence());
  EXPECT_EQ(local.load(), 1);
}

TEST(FlightRecorderFaultPath, FirstFaultErrorDumpsArmedRecorder) {
  const std::string path = ::testing::TempDir() + "/mh_fault_flight.json";
  std::remove(path.c_str());
  obs::FlightRecorder::Config rc;
  rc.path = path;
  rc.spans_per_thread = 2048;
  rc.install_as_current = false;  // engines below get the session explicitly
  rc.dump_at_exit = false;
  obs::FlightRecorder* rec = obs::FlightRecorder::arm(rc);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(obs::FlightRecorder::armed(), rec);
  EXPECT_EQ(rec->dump_count(), 0u);

  // Lead-up evidence the dump must preserve.
  {
    obs::ScopedSpan span(&rec->session(), "lead-up",
                         obs::Category::kPreprocess);
  }

  // A breaker-open run under MH_FAULTS="gpu_kernel:p=1": every GPU attempt
  // throws a FaultError inside the engine; the CPU fallback still completes
  // the work, and the *first* FaultError constructor dumps the recorder.
  FaultInjector fi(11);
  fi.configure("gpu_kernel:p=1");
  auto cfg = chaos_config(&fi, nullptr);
  cfg.gpu_max_retries = 1;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 10s;
  Engine engine(cfg);
  std::atomic<int> done{0};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) { return x + 1; },
       [](std::span<const int> xs) {
         std::vector<int> out;
         for (int x : xs) out.push_back(x + 1);
         return out;
       },
       [&done](int&&) { ++done; },
       6});
  for (int i = 0; i < 64; ++i) engine.submit(kind, i);
  ASSERT_NO_THROW(engine.wait());
  EXPECT_EQ(done.load(), 64);
  ASSERT_GE(engine.stats().gpu_failures, 1u);

  // Exactly one fault dump despite many FaultErrors (first failure wins).
  EXPECT_EQ(rec->dump_count(), 1u);
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "fault dump missing at " << path;
  obs::ReadTrace trace;
  std::string error;
  ASSERT_TRUE(obs::read_chrome_trace(is, &trace, &error)) << error;
  bool lead_up = false;
  for (const obs::ReadSpan& s : trace.spans) {
    if (s.name == "lead-up") lead_up = true;
  }
  EXPECT_TRUE(lead_up) << "dump lost the pre-fault spans";
  std::remove(path.c_str());
}

TEST(FlightRecorderFaultPath, ArmFromEnvAsTheFirstRecorderCallReturns) {
  // The bench harness and FaultInjector::global() call arm_from_env()
  // before anything has asked for the ambient session. arm() asks for it,
  // and that first ambient lookup arms from the environment in turn; it
  // must not wait on the arming lock its own caller holds.
  const std::string path = ::testing::TempDir() + "/mh_env_flight.json";
  ASSERT_EQ(setenv("MH_FLIGHT_RECORDER", path.c_str(), 1), 0);
  auto armed = std::async(std::launch::async,
                          [] { return obs::FlightRecorder::arm_from_env(); });
  if (armed.wait_for(10s) != std::future_status::ready) {
    // A deadlocked arm never returns, and the future's destructor would
    // wait for it forever.
    std::fprintf(stderr, "arm_from_env() deadlocked\n");
    std::_Exit(1);
  }
  obs::FlightRecorder* rec = armed.get();
  unsetenv("MH_FLIGHT_RECORDER");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(obs::FlightRecorder::armed(), rec);
  if (obs::TraceSession::current() == &rec->session()) {
    obs::TraceSession::set_current(nullptr);
  }
}

// ---------------------------------------------------------------------------
// Acceptance: end-to-end Apply under a 100% GPU-kernel fault rate.
// ---------------------------------------------------------------------------

struct ApplyIn {
  const Tensor* source = nullptr;
  int level = 0;
  ops::Displacement disp;
  mra::Key target;
  std::size_t idx = 0;
};
struct ApplyOut {
  std::size_t idx = 0;
  Tensor r;
};

TEST(EndToEndApply, CpuFallbackIsBitwiseEqualAndSplitRecovers) {
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.5) / 0.12;
    return std::exp(-u * u);
  };
  mra::FunctionParams params;
  params.ndim = 1;
  params.k = 6;
  params.thresh = 1e-6;
  params.initial_level = 3;
  const mra::Function f = mra::Function::project(f_fn, params);
  const auto op = apps::make_smoothing_operator(1, params.k, 0.06,
                                                /*max_disp=*/8,
                                                /*screen_thresh=*/1e-8);
  const auto tasks = ops::make_apply_tasks(op, f);
  ASSERT_GT(tasks.size(), 32u);

  using ApplyEngine = rt::BatchingEngine<ApplyIn, ApplyOut>;
  const auto compute = [&op](const ApplyIn& in) {
    return ApplyOut{in.idx, ops::apply_task_compute(op, *in.source, in.level,
                                                    in.disp)};
  };

  // One full pass over the task list; returns outputs sorted by task index.
  const auto run_pass = [&](ApplyEngine& engine, rt::KindId kind,
                            std::vector<ApplyOut>& sink,
                            std::mutex& sink_mu) {
    sink.clear();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const ops::ApplyTask& task = tasks[i];
      engine.submit(kind, ApplyIn{&f.leaf_coeffs(task.source),
                                  task.source.level(), task.disp, task.target,
                                  i});
    }
    engine.wait();
    std::scoped_lock lock(sink_mu);
    std::sort(sink.begin(), sink.end(),
              [](const ApplyOut& a, const ApplyOut& b) { return a.idx < b.idx; });
  };

  const auto make_engine = [&](FaultInjector* fi, obs::MetricsRegistry* reg,
                               double cpu_fraction,
                               std::vector<ApplyOut>& sink,
                               std::mutex& sink_mu) {
    ApplyEngine::Config cfg;
    cfg.cpu_threads = 4;
    cfg.cpu_fraction = cpu_fraction;
    cfg.flush_interval = 20ms;
    cfg.max_batch = 32;
    cfg.metrics = reg;
    cfg.faults = fi;
    cfg.gpu_max_retries = 1;
    cfg.retry_backoff = 0ms;
    cfg.breaker_threshold = 2;
    cfg.breaker_cooldown = 1ms;
    auto engine = std::make_unique<ApplyEngine>(cfg);
    const rt::KindId kind = engine->register_kind(
        {compute,
         [&compute](std::span<const ApplyIn> batch) {
           std::vector<ApplyOut> outs;
           outs.reserve(batch.size());
           for (const ApplyIn& in : batch) outs.push_back(compute(in));
           return outs;
         },
         [&sink, &sink_mu](ApplyOut&& o) {
           std::scoped_lock lock(sink_mu);
           sink.push_back(std::move(o));
         },
         params.k});
    return std::pair{std::move(engine), kind};
  };

  // Reference: CPU-only (split fixed at 1.0, no faults).
  std::vector<ApplyOut> reference;
  std::mutex ref_mu;
  {
    auto [engine, kind] = make_engine(nullptr, nullptr, 1.0, reference, ref_mu);
    run_pass(*engine, kind, reference, ref_mu);
  }
  ASSERT_EQ(reference.size(), tasks.size());

  // Chaos run: auto-tuned split, 100% GPU-kernel fault rate (what
  // MH_FAULTS="gpu_kernel:p=1" configures on the global injector).
  FaultInjector fi(11);
  fi.configure("gpu_kernel:p=1");
  obs::MetricsRegistry reg;
  std::vector<ApplyOut> chaos;
  std::mutex chaos_mu;
  auto [engine, kind] = make_engine(&fi, &reg, -1.0, chaos, chaos_mu);
  run_pass(*engine, kind, chaos, chaos_mu);
  ASSERT_EQ(chaos.size(), tasks.size());
  const auto faulted_stats = engine->stats();
  EXPECT_GE(faulted_stats.gpu_failures, 1u);
  EXPECT_GE(faulted_stats.breaker_opens, 1u);
  // Every result identical down to the last bit: the fallback path runs
  // the same per-item numerics as the CPU-only reference.
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(chaos[i].idx, reference[i].idx);
    const auto a = reference[i].r.flat();
    const auto b = chaos[i].r.flat();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "task " << i << " element " << j;
    }
  }
  // The degradation interval is visible in metrics.
  EXPECT_GE(reg.counter("mh_fault_breaker_transitions_total", {},
                        {{"to", "open"}})
                .value(),
            1.0);
  EXPECT_GE(reg.counter("mh_fault_cpu_fallback_items_total", {}).value(), 1.0);

  // Faults stop: the breaker probes half-open, closes, and the auto-tuned
  // split returns to the k* the rate estimators indicate.
  fi.clear();
  std::this_thread::sleep_for(5ms);  // let the cooldown elapse
  for (int pass = 0; pass < 3; ++pass) run_pass(*engine, kind, chaos, chaos_mu);
  EXPECT_EQ(engine->breaker_state(), ApplyEngine::BreakerState::kClosed);
  // With the breaker closed again, the next staged batch must be split at
  // the auto-tuned k* from the surviving rate estimators — not the
  // degraded 1.0 the open breaker forced. Sample k* first, then stage one
  // more (idle-start, so no samples land in between) wave and read the
  // split it was actually dispatched with.
  engine->sample_metrics();
  const obs::Labels labels{{"kind", std::to_string(kind)}};
  const double kstar = reg.gauge("mh_batching_split_kstar", {}, labels).value();
  EXPECT_GT(kstar, 0.0);
  EXPECT_LT(kstar, 1.0);
  for (std::size_t i = 0; i < 8; ++i) {
    engine->submit(kind, ApplyIn{&f.leaf_coeffs(tasks[i].source),
                                 tasks[i].source.level(), tasks[i].disp,
                                 tasks[i].target, i});
  }
  engine->wait();
  const double split =
      reg.gauge("mh_batching_split_fraction", {}, labels).value();
  EXPECT_LT(split, 1.0);  // the GPU is back in the split
  EXPECT_NEAR(split, kstar, 0.1);  // within 10% of k* after recovery
}

}  // namespace
}  // namespace mh
