// Resilience bench: what fault injection costs the hybrid runtime.
//
// Gated (deterministic) sections exercise the src/fault machinery with
// exact-trigger rules, so the recorded scalars are event counts that must
// reproduce bit-for-bit on any machine:
//   1. the injector's seeded probability stream (injected count over a
//      fixed number of events);
//   2. a cadence drill (every 2nd GPU batch fails, no retries): failed
//      batches and the items re-routed to the CPU fallback;
//   3. a breaker drill (3 consecutive failures then recovery): open /
//      close transition counts.
// The wall-clock section measures end-to-end engine throughput at
// increasing GPU fault rates — machine-dependent, recorded ungated.
#include <atomic>
#include <cstddef>
#include <iostream>
#include <numeric>
#include <vector>

#include "bench_harness.hpp"
#include "common/table.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "runtime/batching.hpp"

namespace {

using namespace mh;
using namespace mh::bench;
using namespace std::chrono_literals;

using Engine = rt::BatchingEngine<int, double>;

void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// A drill engine: fixed 50/50 split, one batch per 64-item wave (size
/// trigger only — the flush window is far longer than any drill).
Engine::Config drill_config(fault::FaultInjector* fi,
                            obs::MetricsRegistry* reg) {
  Engine::Config cfg;
  cfg.cpu_threads = 2;
  cfg.cpu_fraction = 0.5;
  cfg.flush_interval = 10s;
  cfg.max_batch = 64;
  cfg.metrics = reg;
  cfg.faults = fi;
  cfg.retry_backoff = 0ms;
  cfg.retry_backoff_max = 1ms;
  return cfg;
}

/// Register the drill kind: trivial numerics, the bench only counts events.
rt::KindId drill_kind(Engine& engine, std::atomic<long>* sink) {
  return engine.register_kind(
      {[](const int& x) { return static_cast<double>(x); },
       [](std::span<const int> xs) {
         std::vector<double> out;
         out.reserve(xs.size());
         for (int x : xs) out.push_back(static_cast<double>(x));
         return out;
       },
       [sink](double&& v) {
         sink->fetch_add(static_cast<long>(v), std::memory_order_relaxed);
       },
       1});
}

void bench_injector_stream(Harness& h) {
  print_header("Injector determinism — seeded probability stream");
  fault::FaultInjector fi(h.seed_or(42));
  fault::SiteRule rule;
  rule.probability = 0.3;
  fi.set_rule(fault::FaultSite::kGpuKernel, rule);
  for (int i = 0; i < 1000; ++i) fi.should_fail(fault::FaultSite::kGpuKernel);
  const auto stats = fi.stats(fault::FaultSite::kGpuKernel);
  TextTable t({"events", "p", "injected"});
  t.add_row({"1000", "0.30", TextTable::num(stats.injected, 0)});
  t.print(std::cout);
  h.scalar("injector_p30_injected_per_1000", static_cast<double>(stats.injected),
           "faults", Direction::kLowerIsBetter, /*gate=*/true);
}

void bench_fallback_drill(Harness& h) {
  print_header("Cadence drill — every 2nd GPU batch fails, CPU absorbs");
  constexpr std::size_t kWaves = 16;
  constexpr std::size_t kWave = 64;
  fault::FaultInjector fi(h.seed_or(42));
  fault::SiteRule rule;
  rule.every = 2;
  fi.set_rule(fault::FaultSite::kGpuKernel, rule);
  obs::MetricsRegistry reg;
  auto cfg = drill_config(&fi, &reg);
  cfg.gpu_max_retries = 0;
  cfg.breaker_threshold = 1000;  // alternating failures must not open it
  std::atomic<long> sink{0};
  Engine engine(cfg);
  const rt::KindId kind = drill_kind(engine, &sink);
  for (std::size_t w = 0; w < kWaves; ++w) {
    for (std::size_t i = 0; i < kWave; ++i) {
      engine.submit(kind, static_cast<int>(i));
    }
    engine.wait();  // one size-triggered batch per wave
  }
  const auto stats = engine.stats();
  TextTable t({"waves", "items", "GPU failures", "fallback items",
               "breaker opens"});
  t.add_row({TextTable::num(kWaves, 0), TextTable::num(stats.completed, 0),
             TextTable::num(stats.gpu_failures, 0),
             TextTable::num(stats.gpu_fallback_items, 0),
             TextTable::num(stats.breaker_opens, 0)});
  t.print(std::cout);
  h.scalar("cadence_gpu_failures", static_cast<double>(stats.gpu_failures),
           "batches", Direction::kLowerIsBetter, /*gate=*/true);
  h.scalar("cadence_fallback_items",
           static_cast<double>(stats.gpu_fallback_items), "items",
           Direction::kLowerIsBetter, /*gate=*/true);
  h.scalar("cadence_completed", static_cast<double>(stats.completed), "items",
           Direction::kHigherIsBetter, /*gate=*/true);
}

void bench_breaker_drill(Harness& h) {
  print_header("Breaker drill — 3 consecutive failures, then recovery");
  fault::FaultInjector fi(h.seed_or(42));
  fault::SiteRule rule;
  rule.at = {1, 2, 3};
  fi.set_rule(fault::FaultSite::kGpuKernel, rule);
  obs::MetricsRegistry reg;
  auto cfg = drill_config(&fi, &reg);
  cfg.gpu_max_retries = 0;
  cfg.breaker_threshold = 3;
  cfg.breaker_cooldown = 0ms;  // probe at the next staged batch
  std::atomic<long> sink{0};
  Engine engine(cfg);
  const rt::KindId kind = drill_kind(engine, &sink);
  // Waves 1-3 fail (opening the breaker at wave 3); wave 4 stages the
  // half-open probe, which succeeds and closes it; wave 5 runs restored.
  for (std::size_t w = 0; w < 5; ++w) {
    for (std::size_t i = 0; i < 64; ++i) {
      engine.submit(kind, static_cast<int>(i));
    }
    engine.wait();
  }
  const auto stats = engine.stats();
  TextTable t({"GPU failures", "breaker opens", "breaker closes",
               "fallback items"});
  t.add_row({TextTable::num(stats.gpu_failures, 0),
             TextTable::num(stats.breaker_opens, 0),
             TextTable::num(stats.breaker_closes, 0),
             TextTable::num(stats.gpu_fallback_items, 0)});
  t.print(std::cout);
  h.scalar("breaker_gpu_failures", static_cast<double>(stats.gpu_failures),
           "batches", Direction::kLowerIsBetter, /*gate=*/true);
  h.scalar("breaker_opens", static_cast<double>(stats.breaker_opens),
           "transitions", Direction::kLowerIsBetter, /*gate=*/true);
  h.scalar("breaker_closes", static_cast<double>(stats.breaker_closes),
           "transitions", Direction::kHigherIsBetter, /*gate=*/true);
}

/// Wall clock: push `items` through a hybrid engine at GPU fault rate `p`
/// (bounded retries, breaker enabled) and return engine stats.
Engine::Stats throughput_run(std::uint64_t seed, double p, std::size_t items) {
  fault::FaultInjector fi(seed);
  if (p > 0.0) {
    fault::SiteRule rule;
    rule.probability = p;
    fi.set_rule(fault::FaultSite::kGpuKernel, rule);
  }
  obs::MetricsRegistry reg;
  Engine::Config cfg;
  cfg.cpu_threads = 4;
  cfg.cpu_fraction = -1.0;  // auto-tune, degraded by the breaker under faults
  cfg.flush_interval = 1ms;
  cfg.max_batch = 64;
  cfg.metrics = &reg;
  cfg.faults = &fi;
  cfg.gpu_max_retries = 1;
  cfg.retry_backoff = 0ms;
  cfg.breaker_threshold = 3;
  cfg.breaker_cooldown = 2ms;
  std::atomic<long> sink{0};
  Engine engine(cfg);
  // A little real work per item so the split has something to balance.
  std::vector<double> work(512);
  std::iota(work.begin(), work.end(), 0.0);
  const rt::KindId busy = engine.register_kind(
      {[&work](const int& x) {
         double acc = 0.0;
         for (double v : work) acc += v * x;
         return acc;
       },
       [&work](std::span<const int> xs) {
         std::vector<double> out;
         out.reserve(xs.size());
         for (int x : xs) {
           double acc = 0.0;
           for (double v : work) acc += v * x;
           out.push_back(acc);
         }
         return out;
       },
       [&sink](double&& v) {
         sink.fetch_add(static_cast<long>(v), std::memory_order_relaxed);
       },
       2});
  for (std::size_t i = 0; i < items; ++i) {
    engine.submit(busy, static_cast<int>(i % 97));
  }
  engine.wait();
  return engine.stats();
}

void bench_throughput(Harness& h) {
  print_header("Wall clock — engine throughput vs GPU fault rate (ungated)");
  const std::size_t items = h.quick() ? 4096 : 16384;
  const std::vector<double> rates =
      h.quick() ? std::vector<double>{0.0, 0.3}
                : std::vector<double>{0.0, 0.1, 0.3};
  TextTable t({"fault rate", "median (ms)", "GPU failures", "fallback items",
               "breaker opens"});
  for (double p : rates) {
    Engine::Stats last{};
    const auto summary = h.measure(
        "throughput_p" + TextTable::num(p * 100, 0),
        [&] { last = throughput_run(h.seed_or(42), p, items); });
    t.add_row({TextTable::num(p, 2), TextTable::num(summary.p50 * 1e3, 2),
               TextTable::num(last.gpu_failures, 0),
               TextTable::num(last.gpu_fallback_items, 0),
               TextTable::num(last.breaker_opens, 0)});
  }
  t.print(std::cout);
  std::cout << "(wall-clock: recorded ungated; the deterministic drills "
               "above carry the gate)\n";
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("faults", argc, argv);
  bench_injector_stream(h);
  bench_fallback_drill(h);
  bench_breaker_drill(h);
  bench_throughput(h);
  return h.finish();
}
