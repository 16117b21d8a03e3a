#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mh::obs {
namespace {

std::atomic<std::uint64_t> g_next_session_id{1};
std::atomic<TraceSession*> g_current{nullptr};
// 0 = MH_FLIGHT_RECORDER not yet checked, 1 = arming, 2 = done. A plain
// flag (not a magic static) so arm_from_env()'s own re-entrant current()
// calls cannot deadlock the initialization.
std::atomic<int> g_env_arm_state{0};

// One process-global id counter for spans *and* tasks: ids stay unique even
// when several per-rank sessions are merged into one trace file.
std::atomic<std::uint64_t> g_next_span_id{1};

thread_local std::string t_thread_label;
thread_local TraceContext t_ctx;

// Per-thread cache of (session id -> buffer) so the record() fast path never
// touches the session registry. Stale entries for destroyed sessions are
// harmless: session ids are process-unique and never reused, so a dead
// entry can only ever miss.
struct CacheEntry {
  std::uint64_t session_id = 0;
  void* buf = nullptr;
  std::uint32_t thread_track = 0;
};
thread_local std::vector<CacheEntry> t_buffer_cache;

// Subsystem a track belongs to, derived from its name. Emitted as the
// second component of the Chrome "cat" field so Perfetto can filter by
// layer (engine vs pool vs gpu vs world) on top of the phase category.
const char* track_subsystem(std::string_view track) {
  if (track.starts_with("cpu-pool") || track.starts_with("gpu-driver") ||
      track.starts_with("batch-dispatcher")) {
    return "engine";
  }
  if (track.starts_with("rank")) return "world";
  if (track.find("gpu") != std::string_view::npos) return "gpu";
  if (track.starts_with("node")) return "cluster";
  return "pool";
}

}  // namespace

TraceContext current_context() noexcept { return t_ctx; }

std::uint64_t mint_span_id() noexcept {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

const char* category_name(Category cat) noexcept {
  switch (cat) {
    case Category::kPreprocess: return "preprocess";
    case Category::kBatchFlush: return "batch-flush";
    case Category::kCpuCompute: return "cpu-compute";
    case Category::kGpuKernel: return "gpu-kernel";
    case Category::kTransfer: return "transfer";
    case Category::kPostprocess: return "postprocess";
    case Category::kComm: return "comm";
    case Category::kRecovery: return "recovery";
    case Category::kOther: return "other";
  }
  return "other";
}

// A fixed-size block of spans. The owning thread appends; readers walk the
// chunk list concurrently, seeing a consistent prefix via acquire loads.
struct TraceSession::Chunk {
  static constexpr std::size_t kCapacity = 512;
  std::array<Span, kCapacity> spans;
  std::atomic<std::size_t> used{0};
  std::atomic<Chunk*> next{nullptr};
};

struct TraceSession::ThreadBuf {
  explicit ThreadBuf(std::uint32_t track) : thread_track(track) {
    head = tail = new Chunk;
  }
  ~ThreadBuf() {
    for (Chunk* c = head; c != nullptr;) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  std::uint32_t thread_track;
  Chunk* head = nullptr;  // ring mode: rotated under the session's mu_
  Chunk* tail = nullptr;  // owning thread only
  std::size_t nchunks = 1;       // owning thread only
  std::uint64_t dropped = 0;     // written by owner under mu_, read under mu_
};

TraceSession::TraceSession() : TraceSession(0) {}

TraceSession::TraceSession(std::size_t ring_spans_per_thread)
    : id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)),
      origin_us_(wall_now_us()),
      ring_chunk_cap_(
          ring_spans_per_thread == 0
              ? 0
              : std::max<std::size_t>(
                    2, (ring_spans_per_thread + Chunk::kCapacity - 1) /
                           Chunk::kCapacity)) {
  if (ring_chunk_cap_ != 0) {
    dropped_counter_ = &MetricsRegistry::global().counter(
        "mh_trace_dropped_spans_total",
        "spans evicted by ring-buffer (flight recorder) trace sessions");
  }
}

TraceSession::~TraceSession() {
  if (g_current.load(std::memory_order_relaxed) == this) {
    g_current.store(nullptr, std::memory_order_relaxed);
  }
}

TraceSession* TraceSession::current() noexcept {
  // The first ambient-session query arms the env-configured flight
  // recorder (no-op when MH_FLIGHT_RECORDER is unset), so every binary
  // that follows the ambient pickup convention honors the env contract —
  // regardless of which subsystem initializes first. Re-entrant calls
  // from arm_from_env() itself see state != 0 and fall through.
  int expected = 0;
  if (g_env_arm_state.load(std::memory_order_acquire) == 0 &&
      g_env_arm_state.compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel)) {
    FlightRecorder::arm_from_env();
    g_env_arm_state.store(2, std::memory_order_release);
  }
  return g_current.load(std::memory_order_acquire);
}

TraceSession* TraceSession::set_current(TraceSession* session) noexcept {
  return g_current.exchange(session, std::memory_order_acq_rel);
}

std::uint32_t TraceSession::track(ClockDomain domain, std::string_view name) {
  std::scoped_lock lock(mu_);
  for (const TrackInfo& t : tracks_) {
    if (t.domain == domain && t.name == name) return t.id;
  }
  const auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.push_back({id, domain, std::string(name)});
  return id;
}

TraceSession::ThreadBuf& TraceSession::local_buffer(
    std::uint32_t* thread_track_out) {
  for (const CacheEntry& e : t_buffer_cache) {
    if (e.session_id == id_) {
      if (thread_track_out != nullptr) *thread_track_out = e.thread_track;
      return *static_cast<ThreadBuf*>(e.buf);
    }
  }
  // Slow path: register this thread with the session.
  std::uint32_t track_id;
  ThreadBuf* buf;
  {
    std::scoped_lock lock(mu_);
    std::string name = t_thread_label.empty()
                           ? "thread-" + std::to_string(buffers_.size())
                           : t_thread_label;
    track_id = static_cast<std::uint32_t>(tracks_.size());
    tracks_.push_back({track_id, ClockDomain::kWall, std::move(name)});
    buffers_.push_back(std::make_unique<ThreadBuf>(track_id));
    buf = buffers_.back().get();
  }
  if (t_buffer_cache.size() >= 8) {
    t_buffer_cache.erase(t_buffer_cache.begin());
  }
  t_buffer_cache.push_back({id_, buf, track_id});
  if (thread_track_out != nullptr) *thread_track_out = track_id;
  return *buf;
}

std::uint32_t TraceSession::thread_track() {
  std::uint32_t track_id = 0;
  local_buffer(&track_id);
  return track_id;
}

void TraceSession::record(const Span& span) {
  ThreadBuf& buf = local_buffer(nullptr);
  Chunk* c = buf.tail;  // tail is written only by the owning thread
  std::size_t n = c->used.load(std::memory_order_relaxed);
  if (n == Chunk::kCapacity) {
    if (ring_chunk_cap_ != 0 && buf.nchunks >= ring_chunk_cap_) {
      // Ring mode at capacity: recycle the oldest chunk instead of
      // allocating. mu_ serialises the rotation against readers (which
      // hold mu_ for their whole walk), so a reader never observes the
      // unlinked chunk half-reset; once re-linked as the empty tail the
      // normal release/acquire protocol on `used` covers it again. One
      // lock per 512 spans — the per-span fast path stays lock-free.
      std::scoped_lock lock(mu_);
      Chunk* oldest = buf.head;
      buf.head = oldest->next.load(std::memory_order_relaxed);
      const std::uint64_t evicted =
          oldest->used.load(std::memory_order_relaxed);
      buf.dropped += evicted;
      oldest->used.store(0, std::memory_order_relaxed);
      oldest->next.store(nullptr, std::memory_order_relaxed);
      c->next.store(oldest, std::memory_order_release);
      buf.tail = c = oldest;
      if (dropped_counter_ != nullptr) {
        dropped_counter_->inc(static_cast<double>(evicted));
      }
    } else {
      Chunk* fresh = new Chunk;
      c->next.store(fresh, std::memory_order_release);
      buf.tail = c = fresh;
      ++buf.nchunks;
    }
    n = 0;
  }
  c->spans[n] = span;
  c->used.store(n + 1, std::memory_order_release);
}

std::uint64_t TraceSession::dropped_spans() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) total += buf->dropped;
  return total;
}

std::size_t TraceSession::ring_capacity_spans() const noexcept {
  return ring_chunk_cap_ * Chunk::kCapacity;
}

void TraceSession::record_sim(std::uint32_t track_id, const char* name,
                              Category cat, SimTime start, SimTime end,
                              std::initializer_list<SpanArg> args) {
  Span span;
  span.name = name;
  span.cat = cat;
  span.domain = ClockDomain::kSim;
  span.track = track_id;
  span.start_us = start.us();
  span.dur_us = (end - start).us();
  std::size_t i = 0;
  for (const SpanArg& a : args) {
    if (i == span.args.size()) break;
    span.args[i++] = a;
  }
  record(span);
}

std::uint64_t TraceSession::record_sim_linked(
    std::uint32_t track_id, const char* name, Category cat, SimTime start,
    SimTime end, SimLink link, std::initializer_list<SpanArg> args) {
  if (end < start) return 0;
  Span span;
  span.name = name;
  span.cat = cat;
  span.domain = ClockDomain::kSim;
  span.track = track_id;
  span.start_us = start.us();
  span.dur_us = (end - start).us();
  span.id = mint_span_id();
  span.parent = link.parent;
  span.task = link.task != 0 ? link.task : span.id;
  std::size_t i = 0;
  for (const SpanArg& a : args) {
    if (i == span.args.size()) break;
    span.args[i++] = a;
  }
  record(span);
  return span.id;
}

void TraceSession::add_edge(std::uint64_t from, std::uint64_t to) {
  if (from == 0 || to == 0 || from == to) return;
  std::scoped_lock lock(edges_mu_);
  edges_.emplace_back(from, to);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> TraceSession::edges()
    const {
  std::scoped_lock lock(edges_mu_);
  return edges_;
}

template <typename Fn>
void TraceSession::for_each_span(Fn&& fn) const {
  // mu_ held: blocks new thread registration; existing buffers append
  // lock-free and we see a consistent prefix of each.
  for (const auto& buf : buffers_) {
    for (const Chunk* c = buf->head; c != nullptr;
         c = c->next.load(std::memory_order_acquire)) {
      const std::size_t n = c->used.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) fn(c->spans[i]);
    }
  }
}

CategoryTotals TraceSession::category_totals(
    ClockDomain domain, std::string_view track_prefix) const {
  std::scoped_lock lock(mu_);
  std::vector<bool> match(tracks_.size(), track_prefix.empty());
  if (!track_prefix.empty()) {
    for (const TrackInfo& t : tracks_) {
      match[t.id] = t.name.starts_with(track_prefix);
    }
  }
  CategoryTotals totals;
  for_each_span([&](const Span& s) {
    if (s.domain != domain) return;
    if (s.track < match.size() && !match[s.track]) return;
    totals.us[static_cast<std::size_t>(s.cat)] += s.dur_us;
  });
  return totals;
}

std::vector<Span> TraceSession::snapshot() const {
  std::scoped_lock lock(mu_);
  std::vector<Span> out;
  for_each_span([&](const Span& s) { out.push_back(s); });
  return out;
}

std::vector<TrackInfo> TraceSession::tracks() const {
  std::scoped_lock lock(mu_);
  return tracks_;
}

std::size_t TraceSession::span_count() const {
  std::scoped_lock lock(mu_);
  std::size_t n = 0;
  for_each_span([&](const Span&) { ++n; });
  return n;
}

void TraceSession::write_chrome_trace(std::ostream& os) const {
  // A single session is the one-rank case of the merged exporter: rank 0
  // keeps the historical pids 1 (wall) / 2 (sim) and unqualified process
  // names.
  write_merged_chrome_trace(os,
                            std::vector<RankedSession>{{std::string(), this}});
}

void write_merged_chrome_trace(std::ostream& os,
                               const std::vector<RankedSession>& ranks) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Where each causal span id landed in the output, across *all* sessions —
  // flow arrows resolve against this, so producer->consumer edges survive
  // rank hops.
  struct FlowPoint {
    int pid = 0;
    std::uint32_t tid = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  std::map<std::uint64_t, FlowPoint> points;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flow_edges;

  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const TraceSession* session = ranks[r].session;
    if (session == nullptr) continue;
    // Rank r owns two Chrome "processes": its two clock domains never mix.
    const int wall_pid = static_cast<int>(2 * r + 1);
    const int sim_pid = static_cast<int>(2 * r + 2);
    auto pid_of = [&](ClockDomain d) {
      return d == ClockDomain::kWall ? wall_pid : sim_pid;
    };
    const std::string& label = ranks[r].label;

    std::scoped_lock lock(session->mu_);
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << wall_pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":";
    json::write_escaped(os,
                        label.empty() ? "wall-clock" : label + " wall-clock");
    os << "}}";
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << sim_pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":";
    json::write_escaped(
        os, label.empty() ? "simulated-time" : label + " simulated-time");
    os << "}}";

    // Truncation signal: spans evicted by ring-buffer recycling. Emitted
    // only when non-zero so unbounded sessions keep the historical file
    // shape; trace_reader sums these into ReadTrace::dropped_spans and
    // mh_trace_analyze --check refuses to attribute a truncated trace.
    {
      std::uint64_t dropped = 0;
      for (const auto& buf : session->buffers_) dropped += buf->dropped;
      if (dropped != 0) {
        sep();
        os << "{\"ph\":\"M\",\"pid\":" << wall_pid
           << ",\"name\":\"mh_dropped_spans\",\"args\":{\"value\":" << dropped
           << "}}";
      }
    }

    std::vector<const char*> subsystem(session->tracks_.size(), "pool");
    for (const TrackInfo& t : session->tracks_) {
      subsystem[t.id] = track_subsystem(t.name);
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << pid_of(t.domain) << ",\"tid\":" << t.id
         << ",\"name\":\"thread_name\",\"args\":{\"name\":";
      json::write_escaped(os, t.name);
      os << "}}";
    }

    session->for_each_span([&](const Span& s) {
      sep();
      os << "{\"ph\":\"X\",\"pid\":" << pid_of(s.domain)
         << ",\"tid\":" << s.track << ",\"ts\":";
      json::write_number(os, s.start_us);
      os << ",\"dur\":";
      json::write_number(os, std::max(s.dur_us, 0.0));
      os << ",\"name\":";
      json::write_escaped(os, s.name != nullptr ? s.name : "span");
      os << ",\"cat\":\"" << category_name(s.cat) << ","
         << (s.track < subsystem.size() ? subsystem[s.track] : "pool") << "\"";
      bool has_args = false;
      auto arg = [&](const char* key, auto value) {
        os << (has_args ? "," : ",\"args\":{");
        json::write_escaped(os, key);
        os << ":" << value;
        has_args = true;
      };
      for (const SpanArg& a : s.args) {
        if (a.key == nullptr) continue;
        os << (has_args ? "," : ",\"args\":{");
        json::write_escaped(os, a.key);
        os << ":";
        json::write_number(os, a.value);
        has_args = true;
      }
      // Causal identity rides along as numeric args so the DAG survives the
      // file format (obs/trace_reader.hpp rebuilds it from these).
      if (s.id != 0) {
        arg("mh_id", s.id);
        if (s.parent != 0) arg("mh_parent", s.parent);
        if (s.task != 0) arg("mh_task", s.task);
        points[s.id] = {pid_of(s.domain), s.track, s.start_us, s.end_us()};
        if (s.parent != 0) flow_edges.emplace_back(s.parent, s.id);
      }
      if (has_args) os << "}";
      os << "}";
    });

    for (const auto& e : session->edges()) flow_edges.push_back(e);
  }

  // Parent links and explicit add_edge() joins as Chrome flow events. Each
  // edge gets its own flow id minted here at export time, so every "s" has
  // exactly one matching "f"; both carry the span ids as args for readers.
  std::uint64_t flow_id = 0;
  for (const auto& [from, to] : flow_edges) {
    const auto pf = points.find(from);
    const auto pt = points.find(to);
    if (pf == points.end() || pt == points.end()) continue;
    ++flow_id;
    sep();
    os << "{\"ph\":\"s\",\"id\":" << flow_id << ",\"pid\":" << pf->second.pid
       << ",\"tid\":" << pf->second.tid << ",\"ts\":";
    json::write_number(os, pf->second.end_us);
    os << ",\"name\":\"dep\",\"cat\":\"mh_flow\",\"args\":{\"mh_from\":"
       << from << ",\"mh_to\":" << to << "}}";
    sep();
    os << "{\"ph\":\"f\",\"bp\":\"e\",\"id\":" << flow_id
       << ",\"pid\":" << pt->second.pid << ",\"tid\":" << pt->second.tid
       << ",\"ts\":";
    json::write_number(os, pt->second.start_us);
    os << ",\"name\":\"dep\",\"cat\":\"mh_flow\",\"args\":{\"mh_from\":"
       << from << ",\"mh_to\":" << to << "}}";
  }
  os << "\n]}\n";
}

bool TraceSession::write_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return os.good();
}

void set_thread_label(std::string label) { t_thread_label = std::move(label); }

ScopedSpan::ScopedSpan(TraceSession* session, const char* name, Category cat,
                       std::initializer_list<SpanArg> args)
    : session_(session) {
  if (session_ == nullptr) return;
  span_.name = name;
  span_.cat = cat;
  span_.domain = ClockDomain::kWall;
  span_.track = session_->thread_track();
  std::size_t i = 0;
  for (const SpanArg& a : args) {
    if (i == span_.args.size()) break;
    span_.args[i++] = a;
  }
  // Causal identity: adopt the ambient context as {task, parent} (a root
  // span starts a new task under its own id) and install ourselves for the
  // scope so nested spans chain automatically.
  span_.id = mint_span_id();
  span_.parent = t_ctx.span;
  span_.task = t_ctx.task != 0 ? t_ctx.task : span_.id;
  saved_ = t_ctx;
  t_ctx = {span_.task, span_.id};
  span_.start_us = session_->now_us();
}

ScopedSpan::~ScopedSpan() {
  if (session_ == nullptr) return;
  t_ctx = saved_;
  span_.dur_us = session_->now_us() - span_.start_us;
  session_->record(span_);
}

void ScopedSpan::arg(const char* key, double value) noexcept {
  if (session_ == nullptr) return;
  for (SpanArg& slot : span_.args) {
    if (slot.key == nullptr || std::string_view(slot.key) == key) {
      slot = {key, value};
      return;
    }
  }
}

ScopedContext::ScopedContext(TraceContext ctx) noexcept : saved_(t_ctx) {
  t_ctx = ctx;
}

ScopedContext::~ScopedContext() { t_ctx = saved_; }

}  // namespace mh::obs
