#include "gpusim/device.hpp"

#include <algorithm>

#include "common/diagnostics.hpp"
#include "obs/metrics.hpp"

namespace mh::gpu {
namespace {

// CUDA streams a simulated card offers.
constexpr std::size_t kMaxStreams = 16;

// Process-wide gpusim counters (global registry): devices come and go per
// run, so the aggregate across all of them is what the metrics export reads.
// Function-local statics register once and hand back stable handles.
obs::Counter& kernels_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "mh_gpusim_kernels_total", "kernels launched on simulated devices");
  return c;
}
obs::Counter& transfers_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "mh_gpusim_transfers_total", "PCIe transfers on simulated devices");
  return c;
}
obs::Counter& bytes_counter(bool to_device) {
  static obs::Counter& h2d = obs::MetricsRegistry::global().counter(
      "mh_gpusim_transfer_bytes_total", "PCIe payload bytes moved",
      {{"direction", "h2d"}});
  static obs::Counter& d2h = obs::MetricsRegistry::global().counter(
      "mh_gpusim_transfer_bytes_total", "PCIe payload bytes moved",
      {{"direction", "d2h"}});
  return to_device ? h2d : d2h;
}
}  // namespace

DeviceSpec DeviceSpec::tesla_m2090() {
  return {.name = "Tesla M2090 (Fermi)",
          .num_sms = 16,
          .flops_per_sm = 665.0e9 / 16.0,  // 665 GF DP peak
          .memory_bytes = 6e9};            // 6 GB GDDR5
}

DeviceSpec DeviceSpec::gtx480() {
  // GeForce Fermi runs double precision at 1/4 the Tesla rate class:
  // ~168 GF DP across the card.
  return {.name = "GeForce GTX 480 (Fermi)",
          .num_sms = 15,
          .flops_per_sm = 168.0e9 / 15.0,
          .memory_bytes = 1.5e9};
}

GpuDevice::GpuDevice(DeviceSpec spec, std::size_t num_streams)
    : spec_(std::move(spec)) {
  MH_CHECK(num_streams >= 1 && num_streams <= kMaxStreams,
           "stream count out of range");
  MH_CHECK(spec_.num_sms >= 1, "device needs SMs");
  stream_ready_.assign(num_streams, SimTime::zero());
  sm_free_.assign(spec_.num_sms, SimTime::zero());
}

SimTime GpuDevice::enqueue_transfer(std::size_t stream, double bytes,
                                    bool pinned, SimTime ready,
                                    bool to_device) {
  MH_CHECK(stream < stream_ready_.size(), "stream out of range");
  MH_CHECK(bytes >= 0.0, "negative transfer size");
  const double bw = pinned ? kPinnedBandwidth : kPageableBandwidth;
  const SimTime start =
      max(max(ready, stream_ready_[stream]), copy_engine_free_);
  const SimTime done =
      start + kTransferLatency + SimTime::seconds(bytes / bw);
  stream_ready_[stream] = done;
  copy_engine_free_ = done;
  ++stats_.transfers;
  (to_device ? stats_.bytes_to_device : stats_.bytes_to_host) += bytes;
  transfers_counter().inc();
  bytes_counter(to_device).inc(bytes);
  if (trace_ != nullptr) {
    trace_->record_sim_linked(copy_track_, to_device ? "h2d" : "d2h",
                              obs::Category::kTransfer, start, done,
                              trace_link_,
                              {{"bytes", bytes},
                               {"pinned", pinned ? 1.0 : 0.0},
                               {"stream", static_cast<double>(stream)}});
  }
  return done;
}

SimTime GpuDevice::enqueue_kernel(std::size_t stream, std::size_t sms,
                                  SimTime duration, SimTime ready) {
  MH_CHECK(stream < stream_ready_.size(), "stream out of range");
  MH_CHECK(sms >= 1 && sms <= spec_.num_sms, "SM request out of range");
  MH_CHECK(duration >= SimTime::zero(), "negative kernel duration");

  // Launches serialize per stream (each stream has a feeding host thread —
  // the paper's "CPU threads for data access"); the kernel cannot start
  // before its stream drains, its launch retires, and its data is ready.
  const SimTime earliest =
      max(ready, stream_ready_[stream]) + kKernelLaunchOverhead;

  // Gang-schedule `sms` SMs: pick the soonest-free ones; the kernel starts
  // when the last of them frees up (they must be resident together for the
  // inter-block barrier).
  std::vector<std::size_t> order(sm_free_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return sm_free_[a] < sm_free_[b];
  });
  SimTime start = earliest;
  for (std::size_t i = 0; i < sms; ++i) start = max(start, sm_free_[order[i]]);
  const SimTime done = start + duration;
  for (std::size_t i = 0; i < sms; ++i) sm_free_[order[i]] = done;

  stream_ready_[stream] = done;
  ++stats_.kernels_launched;
  kernels_counter().inc();
  stats_.sm_busy_seconds += static_cast<double>(sms) * duration.sec();
  if (trace_ != nullptr) {
    trace_->record_sim_linked(stream_tracks_[stream], "kernel",
                              obs::Category::kGpuKernel, start, done,
                              trace_link_,
                              {{"sms", static_cast<double>(sms)}});
  }
  return done;
}

void GpuDevice::set_trace(obs::TraceSession* session,
                          const std::string& prefix) {
  trace_ = session;
  stream_tracks_.clear();
  if (trace_ == nullptr) return;
  for (std::size_t i = 0; i < stream_ready_.size(); ++i) {
    stream_tracks_.push_back(trace_->track(
        obs::ClockDomain::kSim, prefix + "stream" + std::to_string(i)));
  }
  copy_track_ = trace_->track(obs::ClockDomain::kSim, prefix + "copy-engine");
}

SimTime GpuDevice::stream_ready(std::size_t stream) const {
  MH_CHECK(stream < stream_ready_.size(), "stream out of range");
  return stream_ready_[stream];
}

SimTime GpuDevice::idle_time() const {
  SimTime t = SimTime::zero();
  for (SimTime s : stream_ready_) t = max(t, s);
  return t;
}

double GpuDevice::occupancy() const {
  const double total = idle_time().sec() * static_cast<double>(spec_.num_sms);
  return total > 0.0 ? stats_.sm_busy_seconds / total : 0.0;
}

}  // namespace mh::gpu
