#include "obs/flight_recorder.hpp"

#include <cstdlib>

#include "common/env.hpp"
#include "obs/metrics.hpp"

namespace mh::obs {
namespace {

// The global recorder is a leaked singleton (like MetricsRegistry::global):
// the atexit dump and late FaultErrors during static destruction must still
// find a live session.
std::atomic<FlightRecorder*> g_recorder{nullptr};
std::mutex g_arm_mu;

void dump_at_exit() {
  if (FlightRecorder* r = FlightRecorder::armed()) r->dump("exit");
}

}  // namespace

FlightRecorder::FlightRecorder(Config cfg)
    : cfg_(std::move(cfg)),
      session_(cfg_.spans_per_thread == 0 ? 1 : cfg_.spans_per_thread) {}

FlightRecorder::~FlightRecorder() = default;

bool FlightRecorder::dump(std::string_view reason) noexcept {
  if (cfg_.path.empty()) return false;
  bool ok = false;
  try {
    std::scoped_lock lock(dump_mu_);
    ok = session_.write_chrome_trace_file(cfg_.path);
    if (ok) {
      ++dumps_;
      MetricsRegistry::global()
          .counter("mh_flight_recorder_dumps_total",
                   "flight-recorder trace dumps by reason",
                   {{"reason", std::string(reason)}})
          .inc();
    }
  } catch (...) {
    ok = false;
  }
  return ok;
}

std::size_t FlightRecorder::dump_count() const noexcept {
  std::scoped_lock lock(dump_mu_);
  return dumps_;
}

FlightRecorder* FlightRecorder::arm(Config cfg) {
  // Ask for the ambient session before taking g_arm_mu: the process's first
  // current() call arms from MH_FLIGHT_RECORDER, which re-enters arm().
  const bool ambient_free = TraceSession::current() == nullptr;
  std::scoped_lock lock(g_arm_mu);
  if (FlightRecorder* existing = g_recorder.load(std::memory_order_acquire)) {
    return existing;
  }
  const bool dump_exit = cfg.dump_at_exit;
  const bool install = cfg.install_as_current;
  auto* rec = new FlightRecorder(std::move(cfg));  // intentionally leaked
  if (install && ambient_free) {
    TraceSession::set_current(&rec->session());
  }
  g_recorder.store(rec, std::memory_order_release);
  if (dump_exit) std::atexit(dump_at_exit);
  return rec;
}

FlightRecorder* FlightRecorder::arm_from_env() {
  const char* path = std::getenv("MH_FLIGHT_RECORDER");
  if (path == nullptr || *path == '\0') return nullptr;
  Config cfg;
  cfg.path = path;
  const auto spans = env_integer<std::size_t>("MH_FLIGHT_RECORDER_SPANS", 0);
  if (spans > 0) cfg.spans_per_thread = spans;
  return arm(std::move(cfg));
}

FlightRecorder* FlightRecorder::armed() noexcept {
  return g_recorder.load(std::memory_order_acquire);
}

void FlightRecorder::note_failure(const char* code, const char* /*what*/)
    noexcept {
  FlightRecorder* rec = armed();
  if (rec == nullptr || !rec->cfg_.dump_on_fault) return;
  // First failure wins: the lead-up to the initial fault is the evidence;
  // cascading FaultErrors after it would only overwrite with less context.
  if (rec->fault_dumped_.exchange(true, std::memory_order_acq_rel)) return;
  rec->dump(code != nullptr ? code : "fault");
}

}  // namespace mh::obs
