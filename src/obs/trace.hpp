// Low-overhead runtime tracing (the observability layer the batching
// runtime is profiled with).
//
// A TraceSession collects *spans* — named, categorised intervals — from many
// threads into per-thread lock-free buffers: the recording fast path is one
// array store plus one release increment, no mutex, no allocation except
// when a 512-span chunk fills up. Two clock domains coexist:
//
//   - wall clock: real threads (BatchingEngine workers, ThreadPool, World
//     ranks) timestamped with mh::wall_now_us();
//   - simulated time: gpusim streams/SMs and clustersim per-node phases,
//     timestamped with SimTime (the discrete-event clock).
//
// Spans land on named *tracks* (one per thread, GPU stream, cluster node,
// ...). The exporter writes Chrome trace_event JSON — loadable in
// chrome://tracing or https://ui.perfetto.dev — with the two clock domains
// as two separate processes so their timelines never mix.
//
// Scalar metrics (counters, gauges, histograms) live in MetricsRegistry
// (obs/metrics.hpp), not here. Aggregation (category_totals) is what
// bench_breakdown's phase profile is built from.
//
// Causal tracing: every span can carry a process-unique id, the id of the
// span that causally produced it (`parent`), and a stable task id shared by
// every span of one logical task as it hops threads, batches, and ranks.
// A thread-local TraceContext propagates {task, last span} implicitly:
// ScopedSpan picks its parent/task from the ambient context and installs
// itself for its scope, and ScopedContext re-installs a captured context on
// a foreign thread (the receive side of a queue hop or a World message).
// Extra many-to-one joins (items -> batch) are recorded with add_edge().
// The exporter turns parent links and edges into Chrome trace_event flow
// events (ph:"s"/"f"), so Perfetto draws the producer->consumer arrows and
// obs/critical_path.hpp can rebuild the task DAG from the file alone.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/sim_time.hpp"
#include "common/wall_clock.hpp"

namespace mh::obs {

class Counter;  // metrics.hpp

/// Span categories — the phases of the paper's batching data path (§II-A,
/// Figure 3) plus communication.
enum class Category : std::uint8_t {
  kPreprocess,   ///< CPU data threads fetching/hashing inputs
  kBatchFlush,   ///< dispatcher staging a batch (the serial rearrange step)
  kCpuCompute,   ///< CPU-side compute share of a batch
  kGpuKernel,    ///< device kernel execution
  kTransfer,     ///< PCIe H2D/D2H
  kPageLock,     ///< host page-lock/unlock calls
  kPostprocess,  ///< CPU data threads accumulating results
  kComm,         ///< inter-node / inter-rank messaging
  kRecovery,     ///< replica promotion / checkpoint / restart after a fault
  kOther,
};
inline constexpr std::size_t kCategoryCount = 10;
const char* category_name(Category cat) noexcept;

/// Which clock a span's timestamps live on.
enum class ClockDomain : std::uint8_t { kWall, kSim };

/// One optional key/value attached to a span (key == nullptr -> unused).
/// Keys must be string literals (the span does not own them).
struct SpanArg {
  const char* key = nullptr;
  double value = 0.0;
};

/// A closed interval on one track. POD so the per-thread buffers can store
/// it lock-free; `name` and arg keys must outlive the session (literals).
struct Span {
  const char* name = nullptr;
  Category cat = Category::kOther;
  ClockDomain domain = ClockDomain::kWall;
  std::uint32_t track = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  /// Causal identity: process-unique span id (0 = unlinked), the id of the
  /// causally-preceding span (0 = root), and the stable task id shared by
  /// the whole preprocess->compute->postprocess chain (0 = none).
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t task = 0;
  std::array<SpanArg, 6> args{};

  double end_us() const noexcept { return start_us + dur_us; }
};

/// The causal coordinates a task carries across thread/batch/rank hops:
/// its stable task id plus the most recent span of its chain. Copyable and
/// cheap; an empty context (task == 0) means "no provenance".
struct TraceContext {
  std::uint64_t task = 0;
  std::uint64_t span = 0;
  explicit operator bool() const noexcept { return task != 0; }
};

/// The calling thread's ambient context (set by ScopedSpan/ScopedContext).
TraceContext current_context() noexcept;

/// Mint a fresh process-unique span/task id (shared counter across all
/// sessions, so merged multi-rank traces never collide).
std::uint64_t mint_span_id() noexcept;

/// Name + domain of a registered track.
struct TrackInfo {
  std::uint32_t id = 0;
  ClockDomain domain = ClockDomain::kWall;
  std::string name;
};

/// Total span time per category (µs), as filled by category_totals().
struct CategoryTotals {
  std::array<double, kCategoryCount> us{};
  double operator[](Category cat) const noexcept {
    return us[static_cast<std::size_t>(cat)];
  }
  SimTime sim(Category cat) const noexcept {
    return SimTime::micros((*this)[cat]);
  }
};

struct RankedSession;

class TraceSession {
 public:
  TraceSession();
  /// Bounded ("flight recorder") mode: each thread keeps only the most
  /// recent ~`ring_spans_per_thread` spans — the budget is rounded up to
  /// whole 512-span chunks (minimum two), and once a thread owns its full
  /// complement of chunks the oldest chunk is recycled in place instead of
  /// allocating. Every span evicted this way is counted: dropped_spans()
  /// is exact (recorded == kept + dropped), the process-wide
  /// `mh_trace_dropped_spans_total` counter tracks it, and the merged
  /// Chrome export carries it as metadata so readers can detect a
  /// truncated trace. 0 keeps the historical unbounded behaviour.
  explicit TraceSession(std::size_t ring_spans_per_thread);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Register (or look up) a named track. Locks; cache the id.
  std::uint32_t track(ClockDomain domain, std::string_view name);

  /// The calling thread's wall-clock track, auto-registered from the
  /// thread's label (set_thread_label) or as "thread-<n>".
  std::uint32_t thread_track();

  /// Microseconds on the wall clock since this session started.
  double now_us() const noexcept { return wall_now_us() - origin_us_; }

  /// Record one finished span. Lock-free except when a chunk fills.
  void record(const Span& span);

  /// Convenience: record a simulated-time span from SimTime endpoints.
  void record_sim(std::uint32_t track_id, const char* name, Category cat,
                  SimTime start, SimTime end,
                  std::initializer_list<SpanArg> args = {});

  /// Causal link for a simulated-time span (see record_sim_linked).
  struct SimLink {
    std::uint64_t parent = 0;  ///< id of the causally-preceding span
    std::uint64_t task = 0;    ///< stable task/batch id
  };

  /// record_sim with causal identity: mints a span id, links it to
  /// `link.parent`, tags it with `link.task`, and returns the new id so the
  /// caller can chain the next span. Returns 0 for degenerate spans.
  std::uint64_t record_sim_linked(std::uint32_t track_id, const char* name,
                                  Category cat, SimTime start, SimTime end,
                                  SimLink link,
                                  std::initializer_list<SpanArg> args = {});

  /// Record an extra causal edge `from` -> `to` (span ids) for joins a
  /// single parent link cannot express, e.g. every item of a batch feeding
  /// the batch span. Exported as a flow event alongside parent links.
  void add_edge(std::uint64_t from, std::uint64_t to);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges() const;

  // --- aggregation / export ----------------------------------------------
  /// Sum span durations per category over one clock domain, optionally
  /// restricted to tracks whose name starts with `track_prefix`.
  CategoryTotals category_totals(ClockDomain domain,
                                 std::string_view track_prefix = {}) const;

  /// All spans recorded so far (consistent per-thread prefixes).
  std::vector<Span> snapshot() const;
  std::vector<TrackInfo> tracks() const;
  std::size_t span_count() const;

  /// Spans evicted by ring-buffer recycling, summed over threads. Always 0
  /// for an unbounded session. Exact: every record() either remains
  /// visible to snapshot() or is counted here.
  std::uint64_t dropped_spans() const;
  /// Per-thread span capacity in ring mode (whole chunks); 0 = unbounded.
  std::size_t ring_capacity_spans() const noexcept;

  /// Chrome trace_event JSON (chrome://tracing, Perfetto). Wall-clock
  /// tracks under pid 1, simulated-time tracks under pid 2. Spans with
  /// causal identity additionally carry mh_id/mh_parent/mh_task args and
  /// ph:"s"/"f" flow events, so the causal DAG survives the file format.
  void write_chrome_trace(std::ostream& os) const;
  /// Write to `path`; returns false (and stays silent) on I/O failure.
  bool write_chrome_trace_file(const std::string& path) const;

  // --- process-global session (nullable) ---------------------------------
  static TraceSession* current() noexcept;
  /// Install (or clear, with nullptr) the global session; returns previous.
  static TraceSession* set_current(TraceSession* session) noexcept;

 private:
  struct Chunk;
  struct ThreadBuf;

  ThreadBuf& local_buffer(std::uint32_t* thread_track_out);
  template <typename Fn>
  void for_each_span(Fn&& fn) const;

  const std::uint64_t id_;      // process-unique, for thread-local caching
  const double origin_us_;
  // Ring mode: max chunks per thread (0 = unbounded) and the process-wide
  // dropped-span counter, resolved once at construction.
  const std::size_t ring_chunk_cap_;
  Counter* dropped_counter_ = nullptr;

  mutable std::mutex mu_;       // registry: buffers + tracks
  std::vector<std::unique_ptr<ThreadBuf>> buffers_;
  std::vector<TrackInfo> tracks_;

  mutable std::mutex edges_mu_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges_;

  friend void write_merged_chrome_trace(
      std::ostream& os, const std::vector<RankedSession>& ranks);
};

/// One per-rank session for merged export: `label` names the rank's two
/// Chrome processes ("<label> wall-clock" / "<label> simulated-time").
struct RankedSession {
  std::string label;
  const TraceSession* session = nullptr;
};

/// Stitch per-rank sessions into one Chrome/Perfetto trace with
/// rank-qualified pids (rank r: wall pid 2r+1, sim pid 2r+2). Cross-rank
/// parent links resolve against every session, so producer->consumer flow
/// arrows survive rank hops.
void write_merged_chrome_trace(std::ostream& os,
                               const std::vector<RankedSession>& ranks);
bool write_merged_chrome_trace_file(const std::string& path,
                                    const std::vector<RankedSession>& ranks);

/// Label the calling thread for trace tracks (e.g. "cpu-pool/3"); applies
/// to tracks auto-registered after the call.
void set_thread_label(std::string label);

/// RAII wall-clock span on the calling thread's track. A null session makes
/// every operation a no-op, so call sites need no `if (trace)` guards.
///
/// Causal behavior: the span mints a process-unique id, adopts the ambient
/// TraceContext as {task, parent} (a root span with no ambient context
/// starts a new task under its own id), and installs {task, id} as the
/// ambient context for its scope — so nested spans and anything launched
/// synchronously inside chain automatically. The previous context is
/// restored on destruction.
class ScopedSpan {
 public:
  ScopedSpan(TraceSession* session, const char* name, Category cat,
             std::initializer_list<SpanArg> args = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach/overwrite an arg after construction (first free slot).
  void arg(const char* key, double value) noexcept;

  /// This span's minted id (0 on a null session).
  std::uint64_t id() const noexcept { return span_.id; }
  /// Context {task, this span} — what a consumer should inherit.
  TraceContext context() const noexcept { return {span_.task, span_.id}; }

 private:
  TraceSession* session_;
  Span span_;
  TraceContext saved_;
};

/// Re-install a captured TraceContext on the current thread (the receive
/// side of a queue/message hop); restores the previous context on
/// destruction. An empty context installs "no provenance", making spans in
/// the scope roots — correct for tasks with no recorded producer.
class ScopedContext {
 public:
  explicit ScopedContext(TraceContext ctx) noexcept;
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace mh::obs
