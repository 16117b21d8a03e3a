// Tests for src/gpusim: the simulated device's mechanisms (streams, SM gang
// scheduling, copy engine with pinned vs pageable bandwidth), the kernel
// cost models, the write-once device cache, and the batch executor.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/diagnostics.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_cache.hpp"
#include "gpusim/gpu_executor.hpp"
#include "gpusim/kernels.hpp"

namespace mh::gpu {
namespace {

TEST(DeviceSpec, PresetsAreSane) {
  const DeviceSpec m2090 = DeviceSpec::tesla_m2090();
  EXPECT_EQ(m2090.num_sms, 16u);
  EXPECT_NEAR(m2090.flops_per_sm * 16.0, 665e9, 1e9);
  EXPECT_GT(kPinnedBandwidth, 1.9 * kPageableBandwidth);
  const DeviceSpec gtx = DeviceSpec::gtx480();
  EXPECT_EQ(gtx.num_sms, 15u);
  EXPECT_LT(gtx.flops_per_sm, m2090.flops_per_sm);  // GeForce DP is capped
}

TEST(GpuDevice, TransferTimeScalesWithBytesAndBandwidth) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 2);
  const double bytes = 8e6;
  const SimTime pinned =
      dev.enqueue_transfer(0, bytes, /*pinned=*/true, SimTime::zero());
  GpuDevice dev2(DeviceSpec::tesla_m2090(), 2);
  const SimTime pageable =
      dev2.enqueue_transfer(0, bytes, /*pinned=*/false, SimTime::zero());
  // Page-locked transfers at least double the speed (paper §II-A).
  EXPECT_GT(pageable.sec(), 1.9 * pinned.sec());
  EXPECT_NEAR(pinned.sec(),
              kTransferLatency.sec() +
                  bytes / kPinnedBandwidth,
              1e-12);
}

TEST(GpuDevice, CopyEngineSerializesTransfersAcrossStreams) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 4);
  const double bytes = 8e6;
  const SimTime a = dev.enqueue_transfer(0, bytes, true, SimTime::zero());
  const SimTime b = dev.enqueue_transfer(1, bytes, true, SimTime::zero());
  EXPECT_GE(b.sec(), a.sec() + bytes / kPinnedBandwidth - 1e-12);
}

TEST(GpuDevice, SameStreamOperationsSerialize) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 2);
  const SimTime k1 =
      dev.enqueue_kernel(0, 2, SimTime::millis(1.0), SimTime::zero());
  const SimTime k2 =
      dev.enqueue_kernel(0, 2, SimTime::millis(1.0), SimTime::zero());
  EXPECT_GE(k2.sec(), k1.sec() + 1e-3 - 1e-12);
}

TEST(GpuDevice, SmallKernelsOnDifferentStreamsOverlap) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 8);
  // Five 3-SM kernels fit in 15 of 16 SMs: they run concurrently.
  SimTime last = SimTime::zero();
  for (std::size_t s = 0; s < 5; ++s) {
    last = max(last,
               dev.enqueue_kernel(s, 3, SimTime::millis(1.0), SimTime::zero()));
  }
  EXPECT_LT(last.sec(), 1.2e-3);  // ~one kernel duration, not five
}

TEST(GpuDevice, FullDeviceKernelsCannotOverlap) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 8);
  SimTime last = SimTime::zero();
  for (std::size_t s = 0; s < 4; ++s) {
    last = max(last, dev.enqueue_kernel(s, 16, SimTime::millis(1.0),
                                        SimTime::zero()));
  }
  EXPECT_GT(last.sec(), 4e-3 - 1e-9);  // strictly serialized on the SMs
}

TEST(GpuDevice, SixThreeSmKernelsContendOnSixteenSms) {
  // 6 x 3 = 18 SMs > 16: the sixth kernel must wait (the paper's stream
  // scale-up flattening between 5 and 6 streams in Table I).
  GpuDevice dev(DeviceSpec::tesla_m2090(), 8);
  SimTime last = SimTime::zero();
  for (std::size_t s = 0; s < 6; ++s) {
    last = max(last, dev.enqueue_kernel(s, 3, SimTime::millis(1.0),
                                        SimTime::zero()));
  }
  EXPECT_GT(last.sec(), 1.9e-3);
}

TEST(GpuDevice, LaunchOverheadIsCharged) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 1);
  const SimTime done =
      dev.enqueue_kernel(0, 1, SimTime::zero(), SimTime::zero());
  EXPECT_NEAR(done.sec(), kKernelLaunchOverhead.sec(), 1e-15);
}

TEST(GpuDevice, StatsAndOccupancyAccounting) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 2);
  dev.enqueue_kernel(0, 8, SimTime::millis(2.0), SimTime::zero());
  dev.enqueue_transfer(1, 1e6, true, SimTime::zero());
  const DeviceStats& stats = dev.stats();
  EXPECT_EQ(stats.kernels_launched, 1u);
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_NEAR(stats.sm_busy_seconds, 8 * 2e-3, 1e-12);
  EXPECT_GT(dev.occupancy(), 0.0);
  EXPECT_LE(dev.occupancy(), 1.0);
}

TEST(GpuDevice, RejectsBadArguments) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 2);
  EXPECT_THROW(dev.enqueue_kernel(5, 1, SimTime::zero(), SimTime::zero()),
               Error);
  EXPECT_THROW(dev.enqueue_kernel(0, 17, SimTime::zero(), SimTime::zero()),
               Error);
  EXPECT_THROW(dev.enqueue_transfer(0, -1.0, true, SimTime::zero()), Error);
  EXPECT_THROW(GpuDevice(DeviceSpec::tesla_m2090(), 0), Error);
}

TEST(Kernels, SmRequirementGrowsWithTensorSize) {
  ApplyTaskShape small{3, 8, 100};
  ApplyTaskShape large{3, 20, 100};
  EXPECT_EQ(custom_sms_required(small), 2u);
  EXPECT_EQ(custom_sms_required(large), 3u);
}

TEST(Kernels, CustomEfficiencyDecreasesWithK) {
  const ApplyTaskShape k10{3, 10, 100}, k20{3, 20, 100}, k28{3, 28, 100};
  EXPECT_GT(custom_step_efficiency(k10), custom_step_efficiency(k20));
  EXPECT_GT(custom_step_efficiency(k20), custom_step_efficiency(k28));
}

TEST(Kernels, SharedMemorySpillCrushesLargeTiles) {
  // k = 20 in 3-D still fits 3 SMs' shared memory; k = 28 spills hard.
  const ApplyTaskShape fits{3, 20, 100}, spills{3, 28, 100};
  EXPECT_GT(custom_step_efficiency(fits) /
                custom_step_efficiency(spills),
            3.0);
  // Every 4-D shape spills — the reason the paper uses cuBLAS for TDSE.
  const ApplyTaskShape tdse{4, 14, 100};
  const double ws = 2.0 * tdse.tensor_bytes() + tdse.h_block_bytes();
  EXPECT_GT(ws, 3.0 * kSharedMemBytes);
}

TEST(Kernels, CublasEfficiencyIncreasesWithWork) {
  EXPECT_LT(cublas_gemm_efficiency(2e4), cublas_gemm_efficiency(2e5));
  EXPECT_LT(cublas_gemm_efficiency(2e5), cublas_gemm_efficiency(2e6));
  EXPECT_LE(cublas_gemm_efficiency(1e12), kCublasEffMax);
}

TEST(Kernels, TypicalCustom3DKernelIsOrderOneMillisecond) {
  // Paper §II-A: a typical 3-D MADNESS CUDA kernel runs ~1 ms.
  const ApplyTaskShape shape{3, 10, 100};
  const SimTime dur = custom_task_duration(DeviceSpec::tesla_m2090(), shape);
  EXPECT_GT(dur.ms(), 0.2);
  EXPECT_LT(dur.ms(), 5.0);
}

TEST(Kernels, CustomBeatsCublasPerTaskAtSmallK) {
  const DeviceSpec spec = DeviceSpec::tesla_m2090();
  const ApplyTaskShape shape{3, 10, 100};
  const SimTime custom = custom_task_duration(spec, shape) +
                         kKernelLaunchOverhead;
  const SimTime cublas =
      (cublas_step_duration(spec, shape.rows(), shape.k) +
       kKernelLaunchOverhead) *
      static_cast<double>(shape.steps());
  EXPECT_GT(cublas / custom, 1.5);
}

TEST(Kernels, CublasCatchesUpAtLargeK) {
  const DeviceSpec spec = DeviceSpec::tesla_m2090();
  auto ratio = [&](std::size_t k) {
    const ApplyTaskShape shape{3, k, 100};
    const SimTime custom = custom_task_duration(spec, shape) +
                           kKernelLaunchOverhead;
    const SimTime cublas =
        (cublas_step_duration(spec, shape.rows(), shape.k) +
         kKernelLaunchOverhead) *
        static_cast<double>(shape.steps());
    return cublas / custom;
  };
  EXPECT_GT(ratio(10), ratio(20));
  EXPECT_GT(ratio(20), ratio(28));
  EXPECT_LT(ratio(28), 1.3);  // near-parity or cuBLAS ahead by k = 28
}

TEST(Kernels, RankReductionWithoutDynamicParallelismGainsNothing) {
  // Paper §II-D: the SMs were already reserved, so the reduced kernel runs
  // exactly as long as the full one.
  const DeviceSpec spec = DeviceSpec::tesla_m2090();
  const ApplyTaskShape shape{3, 30, 100};
  const SimTime full = custom_task_duration(spec, shape);
  const SimTime reduced = custom_task_duration_reduced(
      spec, shape, /*rank_fraction=*/0.33, /*dp=*/false);
  EXPECT_DOUBLE_EQ(full.sec(), reduced.sec());
}

TEST(Kernels, DynamicParallelismMakesRankReductionPayOff) {
  const DeviceSpec spec = DeviceSpec::tesla_m2090();
  const ApplyTaskShape shape{3, 30, 100};
  const SimTime full = custom_task_duration(spec, shape);
  const SimTime dp = custom_task_duration_reduced(spec, shape, 0.33,
                                                  /*dp=*/true);
  EXPECT_LT(dp.sec(), full.sec());
  // For small tiles the SM reservation also shrinks — more kernels fit
  // concurrently (for k = 30 the reduced tiles still need all 3 SMs).
  const ApplyTaskShape small{3, 10, 100};
  EXPECT_LT(custom_sms_required_reduced(small, 0.33),
            custom_sms_required(small));
  EXPECT_EQ(custom_sms_required_reduced(shape, 0.33),
            custom_sms_required(shape));
}

TEST(Kernels, DynamicParallelismLaunchCostBoundsTheGain) {
  // At full rank, dynamic parallelism only adds device-side launches; the
  // duration must not be shorter than the plain kernel.
  const DeviceSpec spec = DeviceSpec::tesla_m2090();
  const ApplyTaskShape shape{3, 10, 100};
  const SimTime plain = custom_task_duration(spec, shape);
  const SimTime dp_full =
      custom_task_duration_reduced(spec, shape, 1.0, /*dp=*/true);
  // Same SMs at full rank for small shapes is not guaranteed, but the
  // per-step launch overhead must appear in the duration.
  EXPECT_GT(dp_full.sec() + 1e-12,
            plain.sec() - shape.steps() * kBarrierCost.sec());
  EXPECT_THROW(custom_task_duration_reduced(spec, shape, 0.0, true), Error);
}

TEST(DeviceCache, HitsAndMissesAccounted) {
  DeviceCache cache(1e6);
  EXPECT_FALSE(cache.lookup_or_insert(1, 100.0));  // miss
  EXPECT_TRUE(cache.lookup_or_insert(1, 100.0));   // hit
  EXPECT_FALSE(cache.lookup_or_insert(2, 100.0));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_DOUBLE_EQ(cache.used_bytes(), 200.0);
  EXPECT_TRUE(cache.resident(1));
  EXPECT_FALSE(cache.resident(3));
}

TEST(DeviceCache, WriteOnceCapacityIsHard) {
  DeviceCache cache(250.0);
  cache.lookup_or_insert(1, 100.0);
  cache.lookup_or_insert(2, 100.0);
  EXPECT_FALSE(cache.would_fit(100.0));
  EXPECT_THROW(cache.lookup_or_insert(3, 100.0), Error);
  // Hits on resident entries still work.
  EXPECT_TRUE(cache.lookup_or_insert(1, 100.0));
}

std::vector<GpuTaskDesc> make_batch(std::size_t n, std::size_t k,
                                    std::size_t d, std::size_t terms,
                                    std::size_t shared_blocks) {
  // All tasks share the same `shared_blocks` h-block ids: after the first
  // task the cache absorbs the rest (heavy reuse, like real Apply).
  std::vector<GpuTaskDesc> batch(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch[i].shape = ApplyTaskShape{d, k, terms};
    for (std::size_t b = 0; b < shared_blocks; ++b) {
      batch[i].h_block_ids.push_back(1000 + b);
    }
  }
  return batch;
}

TEST(Executor, BatchedBeatsNaivePort) {
  const auto batch = make_batch(60, 10, 3, 100, 50);
  BatchConfig cfg;
  cfg.streams = 5;

  GpuDevice dev1(DeviceSpec::tesla_m2090(), 8);
  DeviceCache cache1(dev1.spec().memory_bytes);
  const BatchTiming batched =
      run_apply_batch(dev1, &cache1, batch, cfg, SimTime::zero());

  GpuDevice dev2(DeviceSpec::tesla_m2090(), 8);
  DeviceCache cache2(dev2.spec().memory_bytes);
  BatchConfig naive = cfg;
  naive.batched = false;
  naive.pinned = false;
  naive.device_cache = false;
  const BatchTiming naive_t =
      run_apply_batch(dev2, &cache2, batch, naive, SimTime::zero());

  EXPECT_GT(naive_t.elapsed() / batched.elapsed(), 1.2);
}

TEST(Executor, PinnedStagingBeatsPageable) {
  const auto batch = make_batch(60, 20, 3, 100, 50);
  BatchConfig cfg;
  GpuDevice dev1(DeviceSpec::tesla_m2090(), 8);
  DeviceCache cache1(dev1.spec().memory_bytes);
  const auto pinned = run_apply_batch(dev1, &cache1, batch, cfg, SimTime::zero());

  BatchConfig pg = cfg;
  pg.pinned = false;
  GpuDevice dev2(DeviceSpec::tesla_m2090(), 8);
  DeviceCache cache2(dev2.spec().memory_bytes);
  const auto pageable = run_apply_batch(dev2, &cache2, batch, pg, SimTime::zero());
  EXPECT_GT(pageable.transfer_in.sec(), 1.9 * pinned.transfer_in.sec());
}

TEST(Executor, DeviceCacheRemovesRepeatTransfers) {
  const auto batch = make_batch(60, 10, 3, 100, 300);
  BatchConfig cfg;
  GpuDevice dev1(DeviceSpec::tesla_m2090(), 8);
  DeviceCache cache1(dev1.spec().memory_bytes);
  const auto with = run_apply_batch(dev1, &cache1, batch, cfg, SimTime::zero());
  EXPECT_EQ(with.cache_misses, 300u);
  EXPECT_EQ(with.cache_hits, 59u * 300u);

  BatchConfig off = cfg;
  off.device_cache = false;
  GpuDevice dev2(DeviceSpec::tesla_m2090(), 8);
  const auto without =
      run_apply_batch(dev2, nullptr, batch, off, SimTime::zero());
  EXPECT_EQ(without.cache_misses, 60u * 300u);
  EXPECT_GT(without.transfer_in.sec(), with.transfer_in.sec());
}

TEST(Executor, CustomKernelsScaleWithStreamsUntilSmSaturation) {
  const auto batch = make_batch(60, 10, 3, 100, 50);
  auto run = [&](std::size_t streams) {
    BatchConfig cfg;
    cfg.streams = streams;
    GpuDevice dev(DeviceSpec::tesla_m2090(), 16);
    DeviceCache cache(dev.spec().memory_bytes);
    return run_apply_batch(dev, &cache, batch, cfg, SimTime::zero())
        .kernel_span.sec();
  };
  const double s1 = run(1), s5 = run(5), s8 = run(8);
  EXPECT_GT(s1 / s5, 3.0);        // streams give real task parallelism
  EXPECT_LT(s5 / s8, 1.7);        // diminishing once SMs saturate
}

TEST(Executor, CublasKernelsDoNotBenefitFromStreamsWhenComputeBound) {
  // k = 28 steps are compute-bound (step >> launch): all-SM kernels
  // serialize on the device and extra streams change little.
  const auto batch = make_batch(20, 28, 3, 100, 50);
  auto run = [&](std::size_t streams) {
    BatchConfig cfg;
    cfg.streams = streams;
    cfg.use_custom_kernel = false;
    GpuDevice dev(DeviceSpec::tesla_m2090(), 16);
    DeviceCache cache(dev.spec().memory_bytes);
    return run_apply_batch(dev, &cache, batch, cfg, SimTime::zero())
        .kernel_span.sec();
  };
  EXPECT_LT(run(1) / run(6), 1.4);
}

TEST(Executor, StreamsHideCublasLaunchOverheadForTinyGemms) {
  // k = 10 steps are launch-bound on one stream; several feeding threads
  // overlap their launches behind device compute.
  const auto batch = make_batch(24, 10, 3, 100, 50);
  auto run = [&](std::size_t streams) {
    BatchConfig cfg;
    cfg.streams = streams;
    cfg.use_custom_kernel = false;
    GpuDevice dev(DeviceSpec::tesla_m2090(), 16);
    DeviceCache cache(dev.spec().memory_bytes);
    return run_apply_batch(dev, &cache, batch, cfg, SimTime::zero())
        .kernel_span.sec();
  };
  EXPECT_GT(run(1) / run(6), 2.0);
}

TEST(Executor, CublasAggregateMatchesPerStepTiming) {
  const auto batch = make_batch(10, 14, 4, 100, 50);
  auto run = [&](bool aggregate) {
    BatchConfig cfg;
    cfg.use_custom_kernel = false;
    cfg.cublas_aggregate = aggregate;
    GpuDevice dev(DeviceSpec::tesla_m2090(), 8);
    DeviceCache cache(dev.spec().memory_bytes);
    return run_apply_batch(dev, &cache, batch, cfg, SimTime::zero())
        .elapsed()
        .sec();
  };
  const double exact = run(false), agg = run(true);
  EXPECT_NEAR(agg / exact, 1.0, 0.05);
}

TEST(Executor, StatisticalBlockCountsMatchExplicitIds) {
  // A batch described statistically should time out the same as the
  // explicit-id batch with the same miss pattern.
  auto explicit_batch = make_batch(60, 10, 3, 100, 300);
  std::vector<GpuTaskDesc> stat_batch(60);
  for (std::size_t i = 0; i < 60; ++i) {
    stat_batch[i].shape = ApplyTaskShape{3, 10, 100};
    stat_batch[i].h_blocks_touched = 300;
    stat_batch[i].h_blocks_new = i == 0 ? 300 : 0;
  }
  BatchConfig cfg;
  GpuDevice dev1(DeviceSpec::tesla_m2090(), 8);
  DeviceCache cache1(dev1.spec().memory_bytes);
  const auto a =
      run_apply_batch(dev1, &cache1, explicit_batch, cfg, SimTime::zero());
  GpuDevice dev2(DeviceSpec::tesla_m2090(), 8);
  DeviceCache cache2(dev2.spec().memory_bytes);
  const auto b =
      run_apply_batch(dev2, &cache2, stat_batch, cfg, SimTime::zero());
  EXPECT_NEAR(a.elapsed().sec(), b.elapsed().sec(), 1e-9);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

TEST(Executor, GpuRankReductionNeedsDynamicParallelismToHelp) {
  const auto batch = make_batch(60, 30, 3, 100, 50);
  auto run = [&](double rank_fraction, bool dp) {
    BatchConfig cfg;
    cfg.streams = 6;
    cfg.gpu_rank_fraction = rank_fraction;
    cfg.dynamic_parallelism = dp;
    GpuDevice dev(DeviceSpec::tesla_m2090(), 8);
    DeviceCache cache(dev.spec().memory_bytes);
    return run_apply_batch(dev, &cache, batch, cfg, SimTime::zero())
        .elapsed()
        .sec();
  };
  const double baseline = run(1.0, false);
  const double fermi_rr = run(0.33, false);
  const double kepler_rr = run(0.33, true);
  EXPECT_DOUBLE_EQ(baseline, fermi_rr);  // paper's §II-D observation
  EXPECT_LT(kepler_rr, 0.8 * baseline);  // the §VI projected win
}

TEST(Executor, NaiveModeWorksWithBothKernelFlavors) {
  const auto batch = make_batch(12, 10, 3, 50, 20);
  for (const bool custom : {true, false}) {
    BatchConfig cfg;
    cfg.batched = false;
    cfg.pinned = false;
    cfg.use_custom_kernel = custom;
    GpuDevice dev(DeviceSpec::tesla_m2090(), 8);
    DeviceCache cache(dev.spec().memory_bytes);
    const auto r = run_apply_batch(dev, &cache, batch, cfg, SimTime::zero());
    EXPECT_GT(r.elapsed().sec(), 0.0) << "custom=" << custom;
    EXPECT_GT(r.flops, 0.0);
  }
}

TEST(Executor, BatchStartTimeShiftsTheWholeTimeline) {
  const auto batch = make_batch(10, 10, 3, 50, 20);
  BatchConfig cfg;
  GpuDevice dev1(DeviceSpec::tesla_m2090(), 8);
  DeviceCache c1(dev1.spec().memory_bytes);
  const auto a = run_apply_batch(dev1, &c1, batch, cfg, SimTime::zero());
  GpuDevice dev2(DeviceSpec::tesla_m2090(), 8);
  DeviceCache c2(dev2.spec().memory_bytes);
  const auto b = run_apply_batch(dev2, &c2, batch, cfg, SimTime::seconds(5.0));
  EXPECT_NEAR(b.elapsed().sec(), a.elapsed().sec(), 1e-12);
  EXPECT_NEAR(b.total_done.sec() - a.total_done.sec(), 5.0, 1e-12);
}

TEST(Executor, FlopAccountingMatchesShapeArithmetic) {
  const auto batch = make_batch(7, 12, 3, 30, 10);
  BatchConfig cfg;
  GpuDevice dev(DeviceSpec::tesla_m2090(), 8);
  DeviceCache cache(dev.spec().memory_bytes);
  const auto r = run_apply_batch(dev, &cache, batch, cfg, SimTime::zero());
  const ApplyTaskShape shape{3, 12, 30};
  EXPECT_DOUBLE_EQ(r.flops, 7.0 * shape.flops());
}

TEST(Executor, RejectsEmptyAndOverStreamedBatches) {
  GpuDevice dev(DeviceSpec::tesla_m2090(), 2);
  DeviceCache cache(1e9);
  BatchConfig cfg;
  cfg.streams = 4;  // device only has 2
  const auto batch = make_batch(1, 10, 3, 10, 5);
  EXPECT_THROW(run_apply_batch(dev, &cache, batch, cfg, SimTime::zero()),
               Error);
  cfg.streams = 2;
  EXPECT_THROW(
      run_apply_batch(dev, &cache, std::span<const GpuTaskDesc>{}, cfg,
                      SimTime::zero()),
      Error);
}

}  // namespace
}  // namespace mh::gpu
