// Chaos tests for src/fault and the resilience layer it drives: the
// injector's deterministic decision streams and MH_FAULTS grammar, typed
// device errors in gpusim, the BatchingEngine's retry/backoff + circuit
// breaker + CPU fallback, World send retries and dead-rank reporting, and
// the end-to-end Apply acceptance run under a 100% GPU-kernel fault rate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/coulomb.hpp"
#include "fault/fault.hpp"
#include "gpusim/device.hpp"
#include "gpusim/pinned.hpp"
#include "mra/function.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "ops/apply.hpp"
#include "runtime/batching.hpp"
#include "runtime/thread_pool.hpp"
#include "world/world.hpp"

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
  fi.set_rule(FaultSite::kTransferH2D, at_rule({3, 7}));
  std::vector<int> failed;
  for (int event = 1; event <= 10; ++event) {
    if (fi.should_fail(FaultSite::kTransferH2D)) failed.push_back(event);
  }
  EXPECT_EQ(failed, (std::vector<int>{3, 7}));
  EXPECT_EQ(fi.stats(FaultSite::kTransferH2D).events, 10u);
  EXPECT_EQ(fi.stats(FaultSite::kTransferH2D).injected, 2u);
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

TEST(FaultInjector, StallReturnsConfiguredDelay) {
  FaultInjector fi(1);
  SiteRule rule;
  rule.probability = 1.0;
  rule.delay = 2ms;
  fi.set_rule(FaultSite::kWorkerSlow, rule);
  EXPECT_EQ(fi.stall(FaultSite::kWorkerSlow), 2000us);
  fi.clear();
  EXPECT_EQ(fi.stall(FaultSite::kWorkerSlow), 0us);
}

TEST(FaultInjector, SpecGrammarRoundTrips) {
  FaultInjector fi(1);
  fi.configure(
      "gpu_kernel:p=0.5; h2d:at=3,at=7 ;send:every=4;"
      "worker_slow:p=1,delay=2ms;seed=99");
  EXPECT_TRUE(fi.armed(FaultSite::kGpuKernel));
  EXPECT_TRUE(fi.armed(FaultSite::kTransferH2D));
  EXPECT_FALSE(fi.armed(FaultSite::kTransferD2H));
  EXPECT_FALSE(fi.armed(FaultSite::kPinnedAlloc));
  std::vector<int> h2d_failed;
  for (int event = 1; event <= 8; ++event) {
    if (fi.should_fail(FaultSite::kTransferH2D)) h2d_failed.push_back(event);
  }
  EXPECT_EQ(h2d_failed, (std::vector<int>{3, 7}));
  EXPECT_FALSE(fi.should_fail(FaultSite::kSend));  // events 1..3 pass
  EXPECT_FALSE(fi.should_fail(FaultSite::kSend));
  EXPECT_FALSE(fi.should_fail(FaultSite::kSend));
  EXPECT_TRUE(fi.should_fail(FaultSite::kSend));  // every=4
  EXPECT_EQ(fi.stall(FaultSite::kWorkerSlow), 2000us);
}

TEST(FaultInjector, SpecGrammarRejectsBadInput) {
  FaultInjector fi(1);
  EXPECT_THROW(fi.configure("bogus_site:p=1"), std::invalid_argument);
  EXPECT_THROW(fi.configure("gpu_kernel:q=1"), std::invalid_argument);
  EXPECT_THROW(fi.configure("gpu_kernel:p=1.5"), std::invalid_argument);
  EXPECT_THROW(fi.configure("gpu_kernel:p=-0.1"), std::invalid_argument);
  EXPECT_THROW(fi.configure("worker_slow:delay=5"), std::invalid_argument);
  EXPECT_THROW(fi.configure("send:every=0"), std::invalid_argument);
  EXPECT_THROW(fi.configure("send:at=x"), std::invalid_argument);
  EXPECT_THROW(fi.configure("no_colon_here"), std::invalid_argument);
  // A failed configure leaves the injector unchanged (still unarmed).
  EXPECT_FALSE(fi.armed());
}

TEST(FaultInjector, InjectionIsCountedInGlobalMetrics) {
  auto& counter = obs::MetricsRegistry::global().counter(
      "mh_fault_injected_total", {}, {{"site", "d2h"}});
  const double before = counter.value();
  FaultInjector fi(1);
  fi.set_rule(FaultSite::kTransferD2H, prob_rule(1.0));
  fi.should_fail(FaultSite::kTransferD2H);
  fi.should_fail(FaultSite::kTransferD2H);
  EXPECT_DOUBLE_EQ(counter.value(), before + 2.0);
}

// ---------------------------------------------------------------------------
// gpusim: typed device errors.
// ---------------------------------------------------------------------------

TEST(GpusimFaults, KernelFaultSurfacesTyped) {
  gpu::GpuDevice device(gpu::DeviceSpec::tesla_m2090(), 4);
  FaultInjector fi(7);
  fi.set_rule(FaultSite::kGpuKernel, at_rule({1}));
  device.set_fault_injector(&fi);
  try {
    device.enqueue_kernel(0, 1, SimTime::micros(10.0), SimTime::zero());
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kGpuKernelFailed);
  }
  EXPECT_EQ(device.stats().faults_injected, 1u);
  EXPECT_EQ(device.stats().kernels_launched, 0u);
  // The next kernel (event 2) goes through.
  EXPECT_NO_THROW(
      device.enqueue_kernel(0, 1, SimTime::micros(10.0), SimTime::zero()));
  EXPECT_EQ(device.stats().kernels_launched, 1u);
}

TEST(GpusimFaults, TransferDirectionsAreSeparateSites) {
  gpu::GpuDevice device(gpu::DeviceSpec::tesla_m2090(), 4);
  FaultInjector fi(7);
  fi.set_rule(FaultSite::kTransferH2D, at_rule({1}));
  device.set_fault_injector(&fi);
  try {
    device.enqueue_transfer(0, 1e6, true, SimTime::zero());
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTransferTimeout);
  }
  // D2H is a different site: unaffected by the H2D rule.
  EXPECT_NO_THROW(device.enqueue_transfer(0, 1e6, true, SimTime::zero(),
                                          /*to_device=*/false));
  EXPECT_EQ(device.stats().faults_injected, 1u);
}

TEST(GpusimFaults, PinnedAllocFailureIsTyped) {
  gpu::GpuDevice device(gpu::DeviceSpec::tesla_m2090(), 4);
  FaultInjector fi(7);
  fi.set_rule(FaultSite::kPinnedAlloc, at_rule({2}));
  device.set_fault_injector(&fi);
  try {
    gpu::PinnedBufferPool pool(device, 3, 64e6, SimTime::zero());
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPinnedAllocFailed);
  }
  // Only the first slab got page-locked before the injected failure.
  EXPECT_EQ(device.stats().page_locks, 1u);
}

// ---------------------------------------------------------------------------
// ThreadPool: injected worker stalls.
// ---------------------------------------------------------------------------

TEST(ThreadPoolFaults, WorkerSlowStallsTasks) {
  FaultInjector fi(3);
  SiteRule rule;
  rule.probability = 1.0;
  rule.delay = 5ms;
  fi.set_rule(FaultSite::kWorkerSlow, rule);
  rt::ThreadPool pool(1);
  pool.set_fault_injector(&fi);
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 5ms);
  EXPECT_GE(fi.stats(FaultSite::kWorkerSlow).injected, 1u);
}

TEST(ThreadPoolFaults, StallPinsOneWorkerWhileOthersDrain) {
  // An injected stall (site consulted at task pickup, ordinal 1 = the
  // first task claimed) must pin only the claiming worker: the other
  // worker keeps draining the remaining tasks while the victim sits in its
  // delay.
  FaultInjector fi(11);
  SiteRule rule;
  rule.at = {1};
  rule.delay = 200ms;
  fi.set_rule(FaultSite::kWorkerSlow, rule);
  rt::ThreadPool pool(2, "faulty");
  pool.set_fault_injector(&fi);

  std::atomic<bool> victim_done{false};
  pool.submit([&] { victim_done = true; });
  // The victim is the only task, so the first pickup (the stalled ordinal)
  // is necessarily its claim; wait until the injector has seen it.
  while (fi.stats(FaultSite::kWorkerSlow).events < 1) {
    std::this_thread::sleep_for(100us);
  }

  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  // All 20 must finish on the healthy worker before the 200ms stall ends.
  while (ran.load() < 20) std::this_thread::sleep_for(100us);
  EXPECT_FALSE(victim_done.load());

  pool.wait_idle();
  EXPECT_TRUE(victim_done.load());
  EXPECT_EQ(fi.stats(FaultSite::kWorkerSlow).injected, 1u);
  EXPECT_EQ(fi.stats(FaultSite::kWorkerSlow).events, 21u);
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
  const auto backoffs = [](std::uint64_t seed) {
    FaultInjector fi(5);
    fi.set_rule(FaultSite::kGpuKernel, at_rule({1, 2, 3}));
    auto cfg = chaos_config(&fi, nullptr);
    cfg.gpu_max_retries = 2;
    cfg.retry_backoff = 2ms;
    cfg.retry_backoff_max = 16ms;
    cfg.retry_jitter = 0.5;
    cfg.retry_seed = seed;
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
  const auto a = backoffs(77);
  const auto b = backoffs(77);
  const auto c = backoffs(78);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a, b);  // byte-for-byte reproducible
  EXPECT_NE(a, c);  // and actually seed-dependent
  // Exponential shape with bounded jitter: base 2ms then 4ms.
  EXPECT_GE(a[0], 2.0);
  EXPECT_LE(a[0], 3.0);
  EXPECT_GE(a[1], 4.0);
  EXPECT_LE(a[1], 6.0);
}

TEST(EngineResilience, BatchDeadlineCountsAsFailureAndRetrySucceeds) {
  FaultInjector fi(5);  // unarmed: the deadline itself is the fault
  auto cfg = chaos_config(&fi, nullptr);
  cfg.gpu_batch_timeout = 5ms;
  cfg.gpu_max_retries = 2;
  cfg.breaker_threshold = 1000;
  Engine engine(cfg);
  std::atomic<int> post{0};
  std::atomic<bool> first{true};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       [&](std::span<const int> xs) {
         if (first.exchange(false)) std::this_thread::sleep_for(25ms);
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++post; },
       4});
  for (int i = 0; i < 16; ++i) engine.submit(kind, i);
  ASSERT_NO_THROW(engine.wait());
  EXPECT_EQ(post.load(), 16);
  const auto stats = engine.stats();
  EXPECT_GE(stats.gpu_failures, 1u);
  EXPECT_GE(stats.gpu_retries, 1u);
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

TEST(WorldFaults, FailedSendIsRetriedAndDelivered) {
  FaultInjector fi(5);
  fi.set_rule(FaultSite::kSend, at_rule({1}));  // first attempt fails
  world::World w(3);
  w.set_fault_injector(&fi);
  world::World::SendPolicy policy;
  policy.max_retries = 3;
  policy.backoff = 1ms;
  w.set_send_policy(policy);
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

TEST(WorldFaults, RankDeclaredDeadAfterExhaustedRetries) {
  FaultInjector fi(5);
  fi.set_rule(FaultSite::kSend, prob_rule(1.0));
  world::World w(3);
  w.set_fault_injector(&fi);
  world::World::SendPolicy policy;
  policy.max_retries = 2;
  policy.backoff = 1ms;
  w.set_send_policy(policy);
  std::atomic<int> ran{0};
  w.send(0, 2, 64.0, [&] { ++ran; });
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
  EXPECT_EQ(w.stats().send_retries, 2u);
  EXPECT_EQ(w.stats().send_failures, 1u);
  // Sends to a dead rank fail fast (no fresh retries), typed again.
  w.send(0, 2, 64.0, [&] { ++ran; });
  EXPECT_THROW(w.fence(), FaultError);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(w.stats().send_retries, 2u);
  EXPECT_EQ(w.stats().send_failures, 2u);
  // Local work and other ranks are unaffected.
  std::atomic<int> local{0};
  w.submit(1, [&] { ++local; });
  ASSERT_NO_THROW(w.fence());
  EXPECT_EQ(local.load(), 1);
}

TEST(WorldFaults, StealFromDeadVictimFailsFast) {
  FaultInjector fi(5);
  fi.set_rule(FaultSite::kSend, prob_rule(1.0));
  world::World w(2);
  w.set_fault_injector(&fi);
  world::World::SendPolicy policy;
  policy.max_retries = 1;
  policy.backoff = 1ms;
  w.set_send_policy(policy);
  w.stealable_push(0, 256.0, [] {});
  std::atomic<int> results{0};
  // First steal: the request send exhausts its retries and declares the
  // victim dead; the callback never runs.
  w.steal(1, 0, [&](bool) { ++results; });
  try {
    w.fence();
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRankDead);
  }
  EXPECT_EQ(results.load(), 0);
  EXPECT_FALSE(w.rank_alive(0));
  const auto retries = w.stats().send_retries;
  // Second steal fails fast: typed error again, no fresh retries, and the
  // victim's work never migrates.
  w.steal(1, 0, [&](bool) { ++results; });
  EXPECT_THROW(w.fence(), FaultError);
  EXPECT_EQ(results.load(), 0);
  EXPECT_EQ(w.stats().send_retries, retries);
  EXPECT_EQ(w.stealable_pending(0), 1u);
  EXPECT_EQ(w.stats().steal_grants, 0u);
}

// ---------------------------------------------------------------------------
// Flight recorder on the failure path: the first FaultError of the process
// dumps the armed recorder's ring, so a crashed/degraded run leaves the
// trace of what led up to it behind. (Each gtest case runs in its own
// process under ctest, so arming the global recorder here is isolated.)
// ---------------------------------------------------------------------------

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
