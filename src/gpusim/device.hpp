// Simulated NVIDIA Fermi-class GPU (paper substitution: no real GPU here).
//
// The device is modeled at the granularity the paper's results depend on:
//   - N streaming multiprocessors (SMs); a kernel reserves a fixed number of
//     SMs for its whole duration (this is what defeats rank reduction on the
//     GPU, §II-D);
//   - CUDA streams: operations on one stream serialize, different streams
//     overlap (the paper runs 5-8 concurrent streams);
//   - one PCIe copy engine: transfers serialize against each other, with
//     pinned (page-locked) vs pageable bandwidth and a per-transfer latency;
//   - fixed kernel-launch overhead per kernel.
//
// Time is simulated (SimTime): every enqueue_* returns the operation's
// completion time given its dependency. Numerics, when needed, are executed
// on the host by the kernel implementations in kernels.hpp.
//
// The device is a pure cost model: it never fails. Fault injection lives
// where a scenario drives it (the BatchingEngine's GPU attempt, see
// runtime/batching.hpp). Page-locking is not charged here either: per
// paper §II-A the runtime locks its staging buffers once at start-up,
// outside every timed batch, and the per-transfer effect of pinned memory
// is the bandwidth choice in enqueue_transfer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "obs/trace.hpp"

namespace mh::gpu {

// PCIe transfer model, the same for both cards (PCIe 2.0 x16 practical;
// paper §II: page-locking at least doubles speed): bytes/s with and
// without page-locked host memory, and the latency of every transfer.
inline constexpr double kPinnedBandwidth = 8e9;
inline constexpr double kPageableBandwidth = 3e9;
inline constexpr SimTime kTransferLatency = SimTime::micros(10.0);

/// Host-side launch cost of every kernel.
inline constexpr SimTime kKernelLaunchOverhead = SimTime::micros(7.0);

/// What differs between the two simulated cards.
struct DeviceSpec {
  std::string name;
  std::size_t num_sms = 16;
  /// Peak double-precision flops of one SM.
  double flops_per_sm = 41.6e9;
  /// Device memory for data + the write-once operator cache.
  double memory_bytes = 6e9;

  /// Titan's accelerator: Tesla M2090 (Fermi), 16 SMs, 665 GF DP peak.
  static DeviceSpec tesla_m2090();
  /// The kernel-benchmark card of Figures 5-6: GeForce GTX 480
  /// (DP throughput capped at 1/4 of SP on GeForce Fermi).
  static DeviceSpec gtx480();
};

/// Counters accumulated over a device's lifetime.
struct DeviceStats {
  std::size_t kernels_launched = 0;
  std::size_t transfers = 0;
  double bytes_to_device = 0.0;
  double bytes_to_host = 0.0;
  double sm_busy_seconds = 0.0;  ///< sum over SMs of busy time
};

class GpuDevice {
 public:
  GpuDevice(DeviceSpec spec, std::size_t num_streams);

  const DeviceSpec& spec() const noexcept { return spec_; }
  std::size_t num_streams() const noexcept { return stream_ready_.size(); }

  /// Host->device (or device->host) copy on `stream`, not starting before
  /// `ready`. Serializes on the stream and the copy engine. Returns
  /// completion time.
  SimTime enqueue_transfer(std::size_t stream, double bytes, bool pinned,
                           SimTime ready, bool to_device = true);

  /// Launch a kernel needing `sms` SMs for `sm_seconds` of SM time each, on
  /// `stream`, not before `ready`. The SMs are reserved together (gang
  /// scheduled: the custom kernels use an inter-block barrier, so all blocks
  /// must be resident simultaneously). Returns completion time.
  SimTime enqueue_kernel(std::size_t stream, std::size_t sms,
                         SimTime duration, SimTime ready);

  SimTime stream_ready(std::size_t stream) const;
  /// Time when every stream has drained.
  SimTime idle_time() const;

  const DeviceStats& stats() const noexcept { return stats_; }

  /// Fraction of SM-time busy between time 0 and idle_time().
  double occupancy() const;

  /// Attach a trace session: every kernel and transfer becomes a
  /// simulated-time span on "<prefix>stream<i>" and "<prefix>copy-engine"
  /// tracks. Pass nullptr to detach.
  void set_trace(obs::TraceSession* session, const std::string& prefix = {});

  /// Causal link stamped on subsequently recorded device spans: the batch
  /// task currently driving the device (set per batch by the cluster
  /// simulator / dispatcher). Reset with set_trace_link({}).
  void set_trace_link(obs::TraceSession::SimLink link) noexcept {
    trace_link_ = link;
  }

 private:
  DeviceSpec spec_;
  std::vector<SimTime> stream_ready_;
  std::vector<SimTime> sm_free_;
  SimTime copy_engine_free_;
  DeviceStats stats_;

  obs::TraceSession* trace_ = nullptr;
  obs::TraceSession::SimLink trace_link_;
  std::vector<std::uint32_t> stream_tracks_;
  std::uint32_t copy_track_ = 0;
};

}  // namespace mh::gpu
