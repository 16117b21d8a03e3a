// Tests for src/runtime: thread pool, hybrid dispatch math, and the
// asynchronous batching engine (real threads; semantics, not speed).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common/diagnostics.hpp"
#include "runtime/batching.hpp"
#include "runtime/deadline.hpp"
#include "runtime/dispatch.hpp"
#include "runtime/thread_pool.hpp"

namespace mh::rt {
namespace {

using namespace std::chrono_literals;

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.executed(), 1000u);
}

TEST(ThreadPool, TasksMaySpawnTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed; the pool stays usable.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, RejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), Error);
}

TEST(ThreadPool, ReportsItsName) {
  ThreadPool pool(1, "io");
  EXPECT_EQ(pool.name(), "io");
}

TEST(ThreadPool, RequiresWorkers) { EXPECT_THROW(ThreadPool(0), Error); }

// --- concurrent submission ----------------------------------------------

TEST(ThreadPool, StressManyProducersNoLostOrDuplicatedTasks) {
  // N external producers feed the queue while every task spawns a child
  // from its worker thread — both kinds of submitter race the workers'
  // pops. Every id must execute exactly once.
  constexpr int kProducers = 6, kWorkers = 4, kPerProducer = 400;
  constexpr int kTotal = kProducers * kPerProducer * 2;
  ThreadPool pool(kWorkers, "stress");
  std::vector<std::atomic<int>> hits(kTotal);
  for (auto& h : hits) h.store(0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int id = (p * kPerProducer + i) * 2;
        pool.submit([&, id] {
          hits[id].fetch_add(1, std::memory_order_relaxed);
          pool.submit([&, id] {
            hits[id + 1].fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "task " << i << " lost or duplicated";
  }
  EXPECT_EQ(pool.executed(), static_cast<std::size_t>(kTotal));
  const auto st = pool.stats();
  EXPECT_EQ(st.queued, 0u);
  EXPECT_EQ(st.active, 0u);
  EXPECT_EQ(st.executed, static_cast<std::size_t>(kTotal));
}

TEST(ThreadPool, RecursiveSpawnFanOutUnderStealing) {
  // A spawn tree three levels deep: 4 -> 16 -> 64 leaves, all claimable by
  // any worker mid-tree. executed() counts every node exactly once.
  ThreadPool pool(3, "tree");
  std::atomic<int> leaves{0};
  pool.submit([&] {
    for (int i = 0; i < 4; ++i) {
      pool.submit([&] {
        for (int j = 0; j < 4; ++j) {
          pool.submit([&] {
            for (int l = 0; l < 4; ++l) {
              pool.submit([&leaves] {
                leaves.fetch_add(1, std::memory_order_relaxed);
              });
            }
          });
        }
      });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(leaves.load(), 64);
  EXPECT_EQ(pool.executed(), 1u + 4u + 16u + 64u);
}

TEST(ThreadPool, SelfResubmittingTaskDoesNotStarveLaterWork) {
  // One worker; a task re-submits itself kResubmits times. A task
  // submitted from outside while the first link runs queues ahead of the
  // second link, so it runs before the chain ends — a pool that served
  // spawned work first would starve it until the whole chain drained.
  constexpr int kResubmits = 8;
  constexpr int kOutside = -1;
  ThreadPool pool(1);
  std::mutex mu;
  std::vector<int> order;  // link index, or kOutside
  std::atomic<bool> first_running{false}, outside_submitted{false};
  std::function<void(int)> link = [&](int i) {
    if (i == 0) {
      first_running = true;
      while (!outside_submitted) std::this_thread::sleep_for(100us);
    }
    {
      std::scoped_lock lock(mu);
      order.push_back(i);
    }
    if (i < kResubmits) pool.submit([&link, i] { link(i + 1); });
  };
  pool.submit([&link] { link(0); });
  while (!first_running) std::this_thread::sleep_for(100us);
  pool.submit([&] {
    std::scoped_lock lock(mu);
    order.push_back(kOutside);
  });
  outside_submitted = true;
  pool.wait_idle();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kResubmits + 2));
  const auto pos = [&](int v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(kOutside), pos(kResubmits));
  // Submission order exactly: first link, outside task, then the chain.
  EXPECT_EQ(pos(kOutside), 1);
}

TEST(ThreadPool, BlockedWorkerPinsOnlyItself) {
  // A slow worker pins only itself: while one worker is held inside its
  // task, the other keeps draining the shared FIFO queue.
  ThreadPool pool(2);
  std::latch release(1);
  std::atomic<bool> blocked_running{false}, blocked_done{false};
  pool.submit([&] {
    blocked_running = true;
    release.wait();
    blocked_done = true;
  });
  while (!blocked_running) std::this_thread::sleep_for(100us);

  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  // All 20 finish on the free worker while the first is still held.
  while (ran.load() < 20) std::this_thread::sleep_for(100us);
  EXPECT_FALSE(blocked_done.load());

  release.count_down();
  pool.wait_idle();
  EXPECT_TRUE(blocked_done.load());
  EXPECT_EQ(pool.executed(), 21u);
}

TEST(Dispatch, OptimalFractionFormula) {
  // m = 24.3 (10 CPU threads), n = 24.7 (6 streams): Table I regime.
  const double k = optimal_cpu_fraction(24.3, 24.7);
  EXPECT_NEAR(k, 24.7 / (24.3 + 24.7), 1e-12);
  // Optimal time m n / (m + n) ~ 12.25 s, close to the paper's 12.1.
  EXPECT_NEAR(optimal_overlap_time(24.3, 24.7), 24.3 * 24.7 / 49.0, 1e-12);
}

TEST(Dispatch, OverlapTimeIsMinimizedAtOptimum) {
  const double m = 10.0, n = 30.0;
  const double kstar = optimal_cpu_fraction(m, n);
  const double best = overlap_time(m, n, kstar);
  EXPECT_NEAR(best, optimal_overlap_time(m, n), 1e-12);
  for (double k : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    EXPECT_GE(overlap_time(m, n, k) + 1e-12, best) << "k=" << k;
  }
}

TEST(Dispatch, CpuShareRoundsAndClamps) {
  EXPECT_EQ(cpu_share(10, 0.0), 0u);
  EXPECT_EQ(cpu_share(10, 1.0), 10u);
  EXPECT_EQ(cpu_share(10, 0.55), 6u);
  EXPECT_EQ(cpu_share(0, 0.5), 0u);
  EXPECT_THROW(cpu_share(10, 1.5), Error);
}

TEST(Dispatch, RateEstimatorConverges) {
  RateEstimator est;
  EXPECT_FALSE(est.ready());
  est.record(10, 1.0);  // 0.1 s/item
  EXPECT_TRUE(est.ready());
  EXPECT_NEAR(est.per_item(), 0.1, 1e-12);
  est.record(10, 2.0);  // one sample moves kAlpha of the way to 0.2
  EXPECT_NEAR(est.per_item(), 0.1 + RateEstimator::kAlpha * 0.1, 1e-12);
  for (int i = 0; i < 20; ++i) est.record(10, 2.0);  // drift to 0.2
  EXPECT_NEAR(est.per_item(), 0.2, 1e-3);
  EXPECT_THROW(est.record(0, 1.0), Error);
}

using Engine = BatchingEngine<int, int>;

Engine::Config quick_config(double cpu_fraction = -1.0) {
  Engine::Config cfg;
  cfg.cpu_threads = 3;
  cfg.cpu_fraction = cpu_fraction;
  cfg.flush_interval = 2ms;
  cfg.max_batch = 64;
  return cfg;
}

TEST(BatchingEngine, ProcessesEveryItemExactlyOnce) {
  Engine engine(quick_config());
  std::mutex mu;
  std::multiset<int> seen;
  const KindId kind = engine.register_kind(
      {[](const int& x) { return x * 2; },
       [](std::span<const int> xs) {
         std::vector<int> out;
         for (int x : xs) out.push_back(x * 2);
         return out;
       },
       [&](int&& out) {
         std::scoped_lock lock(mu);
         seen.insert(out);
       },
       /*input_hash=*/1});
  for (int i = 0; i < 500; ++i) engine.submit(kind, i);
  engine.wait();
  ASSERT_EQ(seen.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(seen.count(i * 2), 1u) << i;
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 500u);
  EXPECT_EQ(stats.completed, 500u);
  EXPECT_EQ(stats.cpu_items + stats.gpu_items, 500u);
  EXPECT_GE(stats.batches, 1u);
}

TEST(BatchingEngine, CpuChunkingProcessesEveryItemExactlyOnce) {
  // cpu_chunk > 1 aggregates several items into one pool task (one packed
  // engine call in the real Apply kind) without changing the contract:
  // every item computed and postprocessed exactly once, same stats.
  auto cfg = quick_config(1.0);  // CPU-only: every item takes the chunk path
  cfg.cpu_chunk = 8;
  Engine engine(cfg);
  std::mutex mu;
  std::multiset<int> seen;
  const KindId kind = engine.register_kind(
      {[](const int& x) { return x * 3; },
       [](std::span<const int> xs) {
         std::vector<int> out;
         for (int x : xs) out.push_back(x * 3);
         return out;
       },
       [&](int&& out) {
         std::scoped_lock lock(mu);
         seen.insert(out);
       },
       /*input_hash=*/21});
  for (int i = 0; i < 500; ++i) engine.submit(kind, i);
  engine.wait();
  ASSERT_EQ(seen.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(seen.count(i * 3), 1u) << i;
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 500u);
  EXPECT_EQ(stats.completed, 500u);
  EXPECT_EQ(stats.cpu_items, 500u);
}

TEST(BatchingEngine, CpuChunkingIsolatesPerItemErrors) {
  // One poisoned item inside a chunk must not take its chunk-mates down:
  // the error surfaces from wait(), every other item still completes.
  auto cfg = quick_config(1.0);
  cfg.cpu_chunk = 16;
  Engine engine(cfg);
  std::atomic<int> done{0};
  const KindId kind = engine.register_kind(
      {[](const int& x) {
         if (x == 137) throw std::runtime_error("poisoned item");
         return x;
       },
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       /*input_hash=*/22});
  for (int i = 0; i < 300; ++i) engine.submit(kind, i);
  EXPECT_THROW(engine.wait(), std::runtime_error);
  EXPECT_EQ(done.load(), 299);
}

TEST(BatchingEngine, CpuOnlyFractionNeverCallsGpu) {
  Engine engine(quick_config(1.0));
  std::atomic<int> gpu_calls{0}, done{0};
  const KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       [&](std::span<const int> xs) {
         ++gpu_calls;
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       2});
  for (int i = 0; i < 100; ++i) engine.submit(kind, i);
  engine.wait();
  EXPECT_EQ(done.load(), 100);
  EXPECT_EQ(gpu_calls.load(), 0);
  EXPECT_EQ(engine.stats().gpu_items, 0u);
}

TEST(BatchingEngine, GpuOnlyFractionNeverCallsCpu) {
  Engine engine(quick_config(0.0));
  std::atomic<int> cpu_calls{0}, done{0};
  const KindId kind = engine.register_kind(
      {[&](const int& x) {
         ++cpu_calls;
         return x;
       },
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       3});
  for (int i = 0; i < 100; ++i) engine.submit(kind, i);
  engine.wait();
  EXPECT_EQ(done.load(), 100);
  EXPECT_EQ(cpu_calls.load(), 0);
  EXPECT_EQ(engine.stats().cpu_items, 0u);
}

TEST(BatchingEngine, SplitsBatchBetweenCpuAndGpu) {
  Engine engine(quick_config(0.5));
  std::atomic<int> done{0};
  const KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       4});
  for (int i = 0; i < 400; ++i) engine.submit(kind, i);
  engine.wait();
  const auto stats = engine.stats();
  EXPECT_EQ(done.load(), 400);
  // With k = 0.5 both sides should get a substantial share.
  EXPECT_GT(stats.cpu_items, 100u);
  EXPECT_GT(stats.gpu_items, 100u);
}

TEST(BatchingEngine, KindsAreSegregatedInGpuBatches) {
  Engine engine(quick_config(0.0));
  std::mutex mu;
  std::vector<std::vector<int>> kind_a_batches, kind_b_batches;
  std::atomic<int> done{0};
  const KindId a = engine.register_kind(
      {nullptr,
       [&](std::span<const int> xs) {
         {
           std::scoped_lock lock(mu);
           kind_a_batches.emplace_back(xs.begin(), xs.end());
         }
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       10});
  const KindId b = engine.register_kind(
      {nullptr,
       [&](std::span<const int> xs) {
         {
           std::scoped_lock lock(mu);
           kind_b_batches.emplace_back(xs.begin(), xs.end());
         }
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       11});
  for (int i = 0; i < 100; ++i) {
    engine.submit(a, i);          // evens to kind a: values 0..99
    engine.submit(b, 1000 + i);   // kind b: values 1000..1099
  }
  engine.wait();
  EXPECT_EQ(done.load(), 200);
  for (const auto& batch : kind_a_batches)
    for (int x : batch) EXPECT_LT(x, 1000);
  for (const auto& batch : kind_b_batches)
    for (int x : batch) EXPECT_GE(x, 1000);
}

TEST(BatchingEngine, SizeCapTriggersEarlyDispatch) {
  auto cfg = quick_config(0.0);
  cfg.max_batch = 8;
  cfg.flush_interval = 10min;  // timer effectively off
  Engine engine(cfg);
  std::atomic<int> done{0};
  const KindId kind = engine.register_kind(
      {nullptr,
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       5});
  for (int i = 0; i < 8; ++i) engine.submit(kind, i);
  // No flush, no timer: the size cap alone must dispatch.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (done.load() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(done.load(), 8);
  EXPECT_GE(engine.stats().size_flushes, 1u);
}

TEST(BatchingEngine, TimerFlushesPartialBatch) {
  auto cfg = quick_config(0.0);
  cfg.max_batch = 1000000;  // size cap effectively off
  cfg.flush_interval = 2ms;
  Engine engine(cfg);
  std::atomic<int> done{0};
  const KindId kind = engine.register_kind(
      {nullptr,
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       6});
  for (int i = 0; i < 5; ++i) engine.submit(kind, i);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (done.load() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(done.load(), 5);
  EXPECT_GE(engine.stats().timer_flushes, 1u);
}

TEST(Deadline, FlushAtIsTheLastResponsibleMoment) {
  EXPECT_DOUBLE_EQ(deadline_flush_at(10.0, 2.0, 0.5), 7.5);
  // Due once `now` reaches the flush time, not a moment before.
  EXPECT_FALSE(7.4 >= deadline_flush_at(10.0, 2.0, 0.5));
  EXPECT_TRUE(7.5 >= deadline_flush_at(10.0, 2.0, 0.5));
  EXPECT_TRUE(9.0 >= deadline_flush_at(10.0, 2.0, 0.5));
  // A deadline already inside the service estimate is due immediately.
  EXPECT_TRUE(0.0 >= deadline_flush_at(1.0, 2.0, 0.5));
}

TEST(BatchingEngine, WaitRethrowsComputeError) {
  Engine engine(quick_config(1.0));
  const KindId kind = engine.register_kind(
      {[](const int& x) -> int {
         if (x == 13) throw std::runtime_error("unlucky");
         return x;
       },
       nullptr,
       [](int&&) {},
       7});
  for (int i = 0; i < 20; ++i) engine.submit(kind, i);
  EXPECT_THROW(engine.wait(), std::runtime_error);
  // All items accounted for despite the failure.
  EXPECT_EQ(engine.stats().completed, 20u);
}

TEST(BatchingEngine, WaitRethrowsGpuBatchError) {
  Engine engine(quick_config(0.0));
  const KindId kind = engine.register_kind(
      {nullptr,
       [](std::span<const int>) -> std::vector<int> {
         throw std::runtime_error("device lost");
       },
       [](int&&) {},
       8});
  for (int i = 0; i < 10; ++i) engine.submit(kind, i);
  EXPECT_THROW(engine.wait(), std::runtime_error);
  EXPECT_EQ(engine.stats().completed, 10u);
}

TEST(BatchingEngine, AutoSplitUsesBothSidesUnderLoad) {
  // With auto mode (cpu_fraction < 0) and similar spoofed costs, both sides
  // should end up with work after rates warm up.
  Engine engine(quick_config(-1.0));
  std::atomic<int> done{0};
  const KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       9});
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) engine.submit(kind, i);
    engine.wait();
  }
  EXPECT_EQ(done.load(), 1000);
  const auto stats = engine.stats();
  EXPECT_GT(stats.cpu_items, 0u);
  EXPECT_GT(stats.gpu_items, 0u);
}

TEST(BatchingEngine, KindHashMixesUserHash) {
  Engine engine(quick_config());
  auto cpu = [](const int& x) { return x; };
  const KindId k1 = engine.register_kind({cpu, nullptr, [](int&&) {}, 100});
  const KindId k2 = engine.register_kind({cpu, nullptr, [](int&&) {}, 200});
  EXPECT_NE(engine.kind_hash(k1), engine.kind_hash(k2));
}

// Regression (errors dropped during the pool drain): wait() used to snapshot
// first_error_ before cpu_pool_.wait_idle(), so an exception recorded by a
// task still finishing inside the drain was silently deferred to a later
// wait(). The fix re-checks after the pools are idle: one wait() call must
// surface an error no matter when during that call it was recorded, and a
// surfaced error is consumed exactly once.
TEST(BatchingEngine, WaitSurfacesErrorsRecordedDuringDrain) {
  Engine engine(quick_config(1.0));
  const KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       nullptr,
       [](int&& out) {
         if (out == 7) {
           std::this_thread::sleep_for(20ms);  // error lands late in the wait
           throw std::runtime_error("late postprocess failure");
         }
       },
       21});
  for (int i = 0; i < 10; ++i) engine.submit(kind, i);
  EXPECT_THROW(engine.wait(), std::runtime_error);
  EXPECT_NO_THROW(engine.wait());  // consumed, not re-reported

  // Adversarial schedule: a producer races poisoned submits against wait()
  // calls. No error may be stranded once the engine is quiescent.
  std::atomic<bool> producing{true};
  std::thread producer([&] {
    for (int r = 0; r < 20; ++r) {
      engine.submit(kind, 7);
      std::this_thread::sleep_for(1ms);
    }
    producing = false;
  });
  int errors = 0;
  while (producing) {
    try {
      engine.wait();
    } catch (const std::runtime_error&) {
      ++errors;
    }
  }
  producer.join();
  // At most one trailing error can remain; after that, waits are clean.
  try {
    engine.wait();
  } catch (const std::runtime_error&) {
    ++errors;
  }
  EXPECT_GE(errors, 1);
  EXPECT_NO_THROW(engine.wait());
  EXPECT_EQ(engine.stats().completed, engine.stats().submitted);
}

// Regression (flush-reason accounting / premature break-up): a size trigger
// on one kind used to flush every kind's pending batch and misattribute the
// reasons. Kind B's small batch must keep aggregating, and the reason
// counters must sum exactly to the number of per-kind dispatches.
TEST(BatchingEngine, SizeTriggerFlushesOnlyTheTriggeredKind) {
  auto cfg = quick_config(0.0);
  cfg.max_batch = 4;
  cfg.flush_interval = 10min;  // timer effectively off
  Engine engine(cfg);
  std::atomic<int> done_a{0}, done_b{0};
  auto gpu_echo = [](std::span<const int> xs) {
    return std::vector<int>(xs.begin(), xs.end());
  };
  const KindId a =
      engine.register_kind({nullptr, gpu_echo, [&](int&&) { ++done_a; }, 30});
  const KindId b =
      engine.register_kind({nullptr, gpu_echo, [&](int&&) { ++done_b; }, 31});
  engine.submit(b, 0);
  engine.submit(b, 1);
  for (int i = 0; i < 4; ++i) engine.submit(a, i);  // hits max_batch

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (done_a.load() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(done_a.load(), 4);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(done_b.load(), 0) << "size trigger on kind A flushed kind B";
  {
    const auto stats = engine.stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.size_flushes, 1u);
    EXPECT_EQ(stats.timer_flushes, 0u);
    EXPECT_EQ(stats.explicit_flushes, 0u);
  }
  engine.flush();
  engine.wait();
  EXPECT_EQ(done_b.load(), 2);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.explicit_flushes, 1u);
  EXPECT_EQ(stats.timer_flushes + stats.size_flushes + stats.explicit_flushes,
            stats.batches);
}

// Regression (auto-tune cold-start starvation): with singleton batches the
// cold-start split of 0.5 rounds to ncpu == 1, so the GPU never received an
// item, its rate estimator never became ready, and the split froze at 0.5
// with the GPU idle forever. The engine must force at least one GPU warm-up
// sample; after warm-up both sides carry work.
TEST(BatchingEngine, AutoTuneColdStartWarmsUpTheGpu) {
  auto cfg = quick_config(-1.0);
  cfg.max_batch = 1;  // every batch is a singleton
  Engine engine(cfg);
  std::atomic<int> done{0};
  const KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       40});
  engine.submit(kind, 0);
  engine.wait();
  EXPECT_EQ(engine.stats().gpu_items, 1u)
      << "first singleton batch must warm up the GPU rate estimator";
  for (int i = 1; i <= 20; ++i) {
    engine.submit(kind, i);
    engine.wait();
  }
  EXPECT_EQ(done.load(), 21);
  const auto stats = engine.stats();
  EXPECT_GT(stats.gpu_items, 0u);
  EXPECT_GT(stats.cpu_items, 0u);
  EXPECT_EQ(stats.cpu_items + stats.gpu_items, 21u);
}

// Stress: concurrent submitters x kinds x random explicit flushes x injected
// exceptions. Nothing may be lost or duplicated, and the stats invariants
// must hold exactly.
TEST(BatchingEngine, StressSubmittersKindsFlushesAndErrors) {
  auto cfg = quick_config(-1.0);
  cfg.cpu_threads = 4;
  cfg.flush_interval = 1ms;
  cfg.max_batch = 32;
  Engine engine(cfg);

  constexpr int kThreads = 6, kPerThread = 2000, kKinds = 3;
  // Poisoned values make postprocess throw (counted first).
  auto poisoned = [](int v) { return v % 501 == 0; };

  std::mutex mu;
  std::array<std::multiset<int>, kKinds> seen;
  std::array<std::atomic<int>, kKinds> poisons{};
  std::array<std::atomic<int>, kKinds> submitted_per_kind{};

  std::array<KindId, kKinds> kinds;
  auto cpu_echo = [](const int& x) { return x; };
  auto gpu_echo = [](std::span<const int> xs) {
    return std::vector<int>(xs.begin(), xs.end());
  };
  for (int k = 0; k < kKinds; ++k) {
    auto post = [&, k](int&& out) {
      if (poisoned(out)) {
        ++poisons[static_cast<std::size_t>(k)];
        throw std::runtime_error("poisoned item");
      }
      std::scoped_lock lock(mu);
      seen[static_cast<std::size_t>(k)].insert(out);
    };
    // Kind 0: hybrid; kind 1: CPU-only; kind 2: GPU-only.
    if (k == 0) {
      kinds[0] = engine.register_kind({cpu_echo, gpu_echo, post, 50});
    } else if (k == 1) {
      kinds[1] = engine.register_kind({cpu_echo, nullptr, post, 51});
    } else {
      kinds[2] = engine.register_kind({nullptr, gpu_echo, post, 52});
    }
  }

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      std::uniform_int_distribution<int> pick_kind(0, kKinds - 1);
      std::uniform_int_distribution<int> coin(0, 99);
      for (int i = 0; i < kPerThread; ++i) {
        const int k = pick_kind(rng);
        const int value = t * kPerThread + i;  // unique across all threads
        engine.submit(kinds[static_cast<std::size_t>(k)], value);
        ++submitted_per_kind[static_cast<std::size_t>(k)];
        if (coin(rng) == 0) engine.flush();
      }
    });
  }
  for (auto& t : submitters) t.join();

  bool threw = false;
  try {
    engine.wait();
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw) << "poisoned postprocess errors must surface";
  EXPECT_NO_THROW(engine.wait());

  int total_poisons = 0;
  for (int k = 0; k < kKinds; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    std::scoped_lock lock(mu);
    // Exactly once: every non-poisoned value appears exactly one time.
    EXPECT_EQ(static_cast<int>(seen[ks].size()) + poisons[ks].load(),
              submitted_per_kind[ks].load())
        << "kind " << k;
    for (int v : seen[ks]) EXPECT_EQ(seen[ks].count(v), 1u);
    total_poisons += poisons[ks].load();
  }
  EXPECT_GT(total_poisons, 0);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.cpu_items + stats.gpu_items, stats.submitted);
  EXPECT_EQ(stats.timer_flushes + stats.size_flushes + stats.explicit_flushes,
            stats.batches);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.max_batch_seen, 1u);
}

TEST(BatchingEngine, ManyConcurrentSubmitters) {
  Engine engine(quick_config());
  std::atomic<int> done{0};
  const KindId kind = engine.register_kind(
      {[](const int& x) { return x; },
       [](std::span<const int> xs) {
         return std::vector<int>(xs.begin(), xs.end());
       },
       [&](int&&) { ++done; },
       12});
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&engine, kind] {
      for (int i = 0; i < 250; ++i) engine.submit(kind, i);
    });
  }
  for (auto& t : submitters) t.join();
  engine.wait();
  EXPECT_EQ(done.load(), 1000);
}

}  // namespace
}  // namespace mh::rt
