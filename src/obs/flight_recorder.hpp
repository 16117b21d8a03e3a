// Always-on bounded flight recorder — the "black box" of the runtime.
//
// Wraps a ring-buffer TraceSession (see TraceSession(ring_spans_per_thread))
// so tracing can stay armed in every bench and test run at a fixed memory
// budget: each thread keeps only its most recent spans, evictions are
// counted (mh_trace_dropped_spans_total), and the buffer can be dumped to a
// Chrome/Perfetto trace on demand — most importantly from the fault layer's
// failure paths, so the first FaultError of a run leaves behind the trace
// of what led up to it without anyone having re-run with MH_TRACE.
//
// Arming convention: MH_FLIGHT_RECORDER=path names the dump destination
// and arms the recorder with the default per-thread span budget (8192).
//
// arm()/arm_from_env() create the process-global recorder once, install its
// session as TraceSession::current() when no session is installed yet (so
// the engine/pool/world layers record into it by default), and register an
// atexit dump so the trace survives normal termination too. Tests that need
// isolation construct their own FlightRecorder instances instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace mh::obs {

class FlightRecorder {
 public:
  struct Config {
    std::string path;                    ///< dump destination ("" = no dump)
    std::size_t spans_per_thread = 8192; ///< ring budget per thread
    bool install_as_current = true;      ///< adopt as TraceSession::current()
    bool dump_at_exit = true;            ///< global arm only: atexit dump
    bool dump_on_fault = true;           ///< note_failure() dumps (once)
  };

  /// A free-standing recorder (tests, embedding). Does not touch the
  /// process-global slot regardless of cfg.install_as_current.
  explicit FlightRecorder(Config cfg);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The bounded session call sites record into.
  TraceSession& session() noexcept { return session_; }
  const std::string& path() const noexcept { return cfg_.path; }

  /// Write the ring contents (with dropped-span metadata) to cfg_.path.
  /// Thread-safe and exception-free; returns false when the path is empty
  /// or the write fails. `reason` labels the dump in
  /// mh_flight_recorder_dumps_total{reason=...}.
  bool dump(std::string_view reason = "manual") noexcept;
  std::size_t dump_count() const noexcept;

  // --- process-global recorder ---------------------------------------------
  /// Arm the global recorder (idempotent: later calls return the first
  /// instance). Installs the session as TraceSession::current() if none is
  /// installed and registers the atexit dump per cfg.
  static FlightRecorder* arm(Config cfg);
  /// arm() from MH_FLIGHT_RECORDER; returns nullptr (and stays unarmed)
  /// when the env var is unset or empty.
  static FlightRecorder* arm_from_env();
  /// The armed global recorder, or nullptr.
  static FlightRecorder* armed() noexcept;

  /// Failure hook (called from FaultError's constructor): dump the global
  /// recorder once per process so the first failure's lead-up is captured.
  /// No-op when unarmed; never throws; later failures are free.
  static void note_failure(const char* code, const char* what) noexcept;

 private:
  Config cfg_;
  TraceSession session_;
  mutable std::mutex dump_mu_;
  std::size_t dumps_ = 0;
  std::atomic<bool> fault_dumped_{false};
};

}  // namespace mh::obs
