#include "gpusim/device_cache.hpp"

#include "obs/metrics.hpp"

namespace mh::gpu {
namespace {
// Aggregated across every cache instance in the process; the hit-ratio
// gauge is recomputed from the two counters on each lookup so an export
// always sees a consistent cumulative ratio.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Gauge& hit_ratio;
  static CacheMetrics& get() {
    static CacheMetrics m{
        obs::MetricsRegistry::global().counter(
            "mh_gpusim_cache_hits_total",
            "device operator-cache lookups that were resident"),
        obs::MetricsRegistry::global().counter(
            "mh_gpusim_cache_misses_total",
            "device operator-cache lookups that required a transfer"),
        obs::MetricsRegistry::global().gauge(
            "mh_gpusim_cache_hit_ratio",
            "cumulative device-cache hit fraction")};
    return m;
  }
  void record(bool hit) {
    (hit ? hits : misses).inc();
    const double h = hits.value();
    const double total = h + misses.value();
    hit_ratio.set(total > 0.0 ? h / total : 0.0);
  }
};
}  // namespace

DeviceCache::DeviceCache(double capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  MH_CHECK(capacity_bytes > 0.0, "cache capacity must be positive");
}

bool DeviceCache::lookup_or_insert(std::uint64_t block_id, double bytes) {
  MH_CHECK(bytes >= 0.0, "negative block size");
  if (entries_.contains(block_id)) {
    ++hits_;
    CacheMetrics::get().record(true);
    return true;
  }
  MH_CHECK(used_bytes_ + bytes <= capacity_bytes_,
           "device memory exhausted (write-once cache cannot evict)");
  entries_.insert(block_id);
  used_bytes_ += bytes;
  ++misses_;
  CacheMetrics::get().record(false);
  return false;
}

}  // namespace mh::gpu
