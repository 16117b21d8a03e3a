// Tests for src/obs: span recording on both clock domains, nesting, thread
// tracks, counters/histograms, aggregation, the Chrome trace exporter
// (the JSON it writes must actually parse), the metrics registry, the
// background health sampler, and the Prometheus/JSON exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/device_cache.hpp"
#include "gpusim/gpu_executor.hpp"
#include "mutate.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_diff.hpp"
#include "obs/trace_reader.hpp"
#include "runtime/batching.hpp"
#include "runtime/thread_pool.hpp"

// Provided by the sanitizer runtimes; null in a build without them.
extern "C" void __sanitizer_set_death_callback(void (*callback)())
    __attribute__((weak));

namespace mh::obs {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker — enough to assert the
// exporter emits well-formed JSON (matching quotes/brackets, no trailing
// commas, valid numbers), without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SanityOnHandWrittenCases) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5e-3,"x\"y"],"b":null})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").valid());
  EXPECT_FALSE(JsonChecker(R"([1,2)").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":01x})").valid());
}

TEST(JsonParser, DeepNestingIsATypedErrorNotACrash) {
  // The parser recurses once per level: a million '[' used to overflow the
  // stack (SIGSEGV in mh_health --check). Past kMaxDepth it now fails.
  constexpr std::size_t kDeep = 200000;
  const auto parse = [](const std::string& text, std::string* error) {
    json::JsonValue v;
    return json::parse(text, &v, error);
  };
  const auto nest = [](std::size_t depth, std::string_view open,
                       std::string_view close) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += open;
    text += "1";
    for (std::size_t i = 0; i < depth; ++i) text += close;
    return text;
  };
  for (const auto& [open, close] :
       {std::pair<std::string_view, std::string_view>{"[", "]"},
        {"{\"a\":", "}"}}) {
    std::string error;
    EXPECT_FALSE(parse(nest(kDeep, open, close), &error)) << open;
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
    // Unterminated too: the cap fires before the end of input is reached.
    error.clear();
    const std::string deep = nest(kDeep, open, close);
    EXPECT_FALSE(parse(deep.substr(0, kDeep * open.size()), &error)) << open;
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
    // Exactly at the cap still parses; one more level does not.
    EXPECT_TRUE(parse(nest(json::JsonParser::kMaxDepth, open, close), &error))
        << error;
    EXPECT_FALSE(
        parse(nest(json::JsonParser::kMaxDepth + 1, open, close), &error));
  }
}

TEST(JsonValue, WholeAcceptsOnlyInRangeWholeNumbers) {
  json::JsonValue v;
  std::string error;
  ASSERT_TRUE(json::parse(
      R"({"n": 42, "frac": 1.5, "neg": -3, "huge": 1e300,)"
      R"( "two64": 18446744073709551616, "top": 9007199254740992,)"
      R"( "s": "7"})",
      &v, &error))
      << error;
  constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t out = 99;
  EXPECT_TRUE(v.whole("absent", kAny, &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(v.whole("n", kAny, &out));
  EXPECT_EQ(out, 42u);
  EXPECT_TRUE(v.whole("n", 42, &out));
  EXPECT_FALSE(v.whole("n", 41, &out));
  EXPECT_TRUE(v.whole("top", kAny, &out));
  EXPECT_EQ(out, 9007199254740992u);
  out = 99;
  for (const char* key : {"frac", "neg", "huge", "two64", "s"}) {
    EXPECT_FALSE(v.whole(key, kAny, &out)) << key;
    EXPECT_EQ(out, 99u) << key;  // left alone on failure
  }
}

TEST(TraceReader, OutOfRangeNumbersAreTypedErrorsNamingTheField) {
  const auto read = [](const std::string& event, std::string* error) {
    std::istringstream is("{\"traceEvents\":[" + event + "]}");
    ReadTrace trace;
    return read_chrome_trace(is, &trace, error);
  };
  const std::string span = R"("ph":"X","name":"a","ts":0,"dur":1)";
  std::string error;
  ASSERT_TRUE(read("{" + span + R"(,"pid":2147483647,"tid":0})", &error))
      << error;
  for (const auto& [event, field] :
       {std::pair<std::string, std::string>{
            "{" + span + R"(,"pid":1e300,"tid":0})", "pid"},
        {"{" + span + R"(,"pid":2147483648,"tid":0})", "pid"},
        {"{" + span + R"(,"pid":1,"tid":-1})", "tid"},
        {"{" + span + R"(,"pid":1.5,"tid":0})", "pid"},
        {"{" + span + R"(,"pid":1,"tid":0,"args":{"mh_id":1e300}})", "mh_id"},
        {"{" + span + R"(,"pid":1,"tid":0,"args":{"mh_parent":-2}})",
         "mh_parent"},
        {R"({"ph":"s","id":1e300,"pid":1,"tid":0,"ts":0})", "id"},
        {R"({"ph":"f","id":1,"pid":1,"tid":0,"ts":0,"args":{"mh_to":0.5}})",
         "mh_to"},
        {R"({"ph":"M","name":"mh_dropped_spans","pid":1,"args":{"value":-3}})",
         "value"}}) {
    error.clear();
    EXPECT_FALSE(read(event, &error)) << event;
    EXPECT_NE(error.find("'" + field + "'"), std::string::npos)
        << event << " -> " << error;
  }
}

// Seeded mutation of the two readers that take outside bytes: a dashboard
// and a Chrome trace, each built in memory, are truncated, bit-flipped,
// spliced and given exponents, and each reader must answer with a result
// or a typed error — never throw, crash or trip a sanitizer. A failure
// names the case's seed; the sanitizer death callback below names the seed
// in flight when a report ends the process.
std::atomic<std::uint64_t> g_mutation_seed{0};

// The domain edit: an exponent after a number (huge, tiny or negative),
// which reaches the readers' whole-number fields.
void add_exponent(std::string& out, Rng& rng) {
  std::vector<std::size_t> ends;
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(out[i])) != 0 &&
        std::isdigit(static_cast<unsigned char>(out[i + 1])) == 0) {
      ends.push_back(i + 1);
    }
  }
  if (ends.empty()) return;
  static const char* const kExponents[] = {"e300", "e19", "e-400", "e400",
                                            "e9"};
  std::size_t at = ends[rng.below(ends.size())];
  if (rng.below(4) == 0) {
    // Make the number negative too.
    std::size_t start = at;
    while (start > 0 &&
           (std::isdigit(static_cast<unsigned char>(out[start - 1])) != 0 ||
            out[start - 1] == '.')) {
      --start;
    }
    out.insert(start, "-");
    ++at;
  }
  out.insert(at, kExponents[rng.below(std::size(kExponents))]);
}

TEST(ReaderMutation, DashboardAndTraceReadersNeverCrashOrThrow) {
  if (__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback([] {
      std::fprintf(stderr, "ReaderMutation: case seed %llu in flight\n",
                   static_cast<unsigned long long>(g_mutation_seed.load()));
    });
  }

  HealthPlane::Config config;
  config.ranks = 3;
  HealthPlane plane(config);
  ScenarioTelemetry tel(3);
  for (int t = 1; t <= 4; ++t) {
    for (std::size_t r = 0; r < 3; ++r) {
      tel.gauge(r, "mh_rank_alive", r == 1 && t >= 2 ? 0.0 : 1.0);
      tel.gauge(r, "mh_rank_queue_depth", static_cast<double>(r + t));
    }
    tel.counter(0, "mh_tasks", 10.0 * t);
    plane.tick(tel.collect(t), t);
  }
  const std::string dashboard = plane.dashboard_json();
  ASSERT_TRUE(check_dashboard_text(dashboard).ok);

  TraceSession session;
  {
    ScopedSpan outer(&session, "outer", Category::kPreprocess, {{"n", 3.0}});
    ScopedSpan inner(&session, "inner", Category::kCpuCompute);
    session.add_edge(outer.id(), inner.id());
  }
  const auto track = session.track(ClockDomain::kSim, "node0/phases");
  const std::uint64_t pre = session.record_sim_linked(
      track, "pre", Category::kPreprocess, SimTime::micros(0.0),
      SimTime::micros(2.0), {});
  session.record_sim_linked(track, "gpu", Category::kGpuKernel,
                            SimTime::micros(2.0), SimTime::micros(5.0),
                            {pre, 7});
  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string trace_text = os.str();
  {
    std::istringstream is(trace_text);
    ReadTrace trace;
    std::string error;
    ASSERT_TRUE(read_chrome_trace(is, &trace, &error)) << error;
  }

  // A fixed budget: 2000 cases per reader, seeds 1..2000 for the
  // dashboard and 10001..12000 for the trace.
  constexpr std::uint64_t kCases = 2000;
  std::size_t dashboard_range_errors = 0;
  std::size_t trace_range_errors = 0;
  for (std::uint64_t i = 1; i <= kCases; ++i) {
    const std::uint64_t seed = i;
    g_mutation_seed = seed;
    const std::string doc = mutate(dashboard, seed, add_exponent);
    try {
      const DashboardCheck check = check_dashboard_text(doc);
      EXPECT_TRUE(check.ok || !check.problems.empty())
          << "dashboard seed " << seed << ": rejected without a problem";
      for (const std::string& p : check.problems) {
        if (p.find("not a whole number") != std::string::npos) {
          ++dashboard_range_errors;
        }
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "dashboard seed " << seed << " threw: " << e.what();
    }
  }
  for (std::uint64_t i = 1; i <= kCases; ++i) {
    const std::uint64_t seed = 10000 + i;
    g_mutation_seed = seed;
    std::istringstream is(mutate(trace_text, seed, add_exponent));
    ReadTrace trace;
    std::string error;
    try {
      const bool ok = read_chrome_trace(is, &trace, &error);
      EXPECT_TRUE(ok || !error.empty())
          << "trace seed " << seed << ": rejected without an error";
      if (!ok && error.find("not a whole number") != std::string::npos) {
        ++trace_range_errors;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trace seed " << seed << " threw: " << e.what();
    }
  }
  // The exponent mutations reach the integer fields of both readers.
  EXPECT_GT(dashboard_range_errors, 0u);
  EXPECT_GT(trace_range_errors, 0u);
}

// ---------------------------------------------------------------------------

TEST(TraceSession, CategoryNamesAreDistinct) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const char* n = category_name(static_cast<Category>(i));
    ASSERT_NE(n, nullptr);
    names.emplace_back(n);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(TraceSession, RecordsSpansFromManyThreads) {
  TraceSession session;
  constexpr int kThreads = 8, kPerThread = 2000;  // spills 512-span chunks
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, t] {
      set_thread_label("worker-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(&session, "tick", Category::kCpuCompute,
                        {{"i", static_cast<double>(i)}});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(session.span_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(session.snapshot().size(), session.span_count());
  // Every labelled thread got its own wall-clock track.
  int worker_tracks = 0;
  for (const auto& info : session.tracks()) {
    if (info.name.rfind("worker-", 0) == 0) {
      EXPECT_EQ(info.domain, ClockDomain::kWall);
      ++worker_tracks;
    }
  }
  EXPECT_EQ(worker_tracks, kThreads);
}

TEST(TraceSession, ScopedSpansNestOnOneTrack) {
  TraceSession session;
  {
    ScopedSpan outer(&session, "outer", Category::kPreprocess);
    std::this_thread::sleep_for(1ms);
    {
      ScopedSpan inner(&session, "inner", Category::kPostprocess);
      std::this_thread::sleep_for(1ms);
    }
    std::this_thread::sleep_for(1ms);
  }
  const auto spans = session.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes (and records) first; outer must contain it.
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.track, outer.track);
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_GE(outer.start_us + outer.dur_us, inner.start_us + inner.dur_us);
  EXPECT_GT(inner.dur_us, 0.0);
}

TEST(TraceSession, NullSessionScopedSpanIsANoOp) {
  ScopedSpan span(nullptr, "nothing", Category::kOther);
  span.arg("k", 1.0);  // must not crash
}

TEST(TraceSession, ThreadPoolWorkersLabelTheirTracks) {
  TraceSession session;
  rt::ThreadPool pool(2, "pool");
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      ScopedSpan span(&session, "task", Category::kCpuCompute);
      ++ran;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 16);
  int pool_tracks = 0;
  for (const auto& info : session.tracks()) {
    if (info.name == "pool/0" || info.name == "pool/1") ++pool_tracks;
  }
  EXPECT_GE(pool_tracks, 1);  // both only if both workers got a task
}

TEST(TraceSession, SimDomainTotalsRespectTrackPrefix) {
  TraceSession session;
  const auto a = session.track(ClockDomain::kSim, "node0/phases");
  const auto a2 = session.track(ClockDomain::kSim, "node01/phases");
  EXPECT_NE(a, a2);
  EXPECT_EQ(a, session.track(ClockDomain::kSim, "node0/phases"));  // dedup
  session.record_sim(a, "kernels", Category::kGpuKernel, SimTime::micros(10),
                     SimTime::micros(40));
  session.record_sim(a, "h2d", Category::kTransfer, SimTime::micros(0),
                     SimTime::micros(10), {{"bytes", 4096.0}});
  session.record_sim(a2, "kernels", Category::kGpuKernel, SimTime::micros(0),
                     SimTime::micros(500));
  {
    ScopedSpan wall(&session, "cpu", Category::kGpuKernel);
    std::this_thread::sleep_for(100us);
  }

  // "node0/" must not swallow node01's track.
  const auto only_a = session.category_totals(ClockDomain::kSim, "node0/");
  EXPECT_DOUBLE_EQ(only_a[Category::kGpuKernel], 30.0);
  EXPECT_DOUBLE_EQ(only_a[Category::kTransfer], 10.0);
  EXPECT_DOUBLE_EQ(only_a.sim(Category::kGpuKernel).us(), 30.0);

  const auto all_sim = session.category_totals(ClockDomain::kSim);
  EXPECT_DOUBLE_EQ(all_sim[Category::kGpuKernel], 530.0);

  // The wall-clock span stays in its own domain.
  const auto wall = session.category_totals(ClockDomain::kWall);
  EXPECT_GT(wall[Category::kGpuKernel], 0.0);
  EXPECT_DOUBLE_EQ(wall[Category::kTransfer], 0.0);
}

TEST(TraceSession, CurrentSessionInstallAndRestore) {
  ASSERT_EQ(TraceSession::current(), nullptr);
  TraceSession session;
  TraceSession* prev = TraceSession::set_current(&session);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(TraceSession::current(), &session);
  {
    ScopedSpan span(TraceSession::current(), "global", Category::kOther);
  }
  EXPECT_EQ(TraceSession::set_current(nullptr), &session);
  EXPECT_EQ(TraceSession::current(), nullptr);
  EXPECT_EQ(session.span_count(), 1u);
}

TEST(TraceSession, ChromeTraceIsValidJsonWithBothClockDomains) {
  TraceSession session;
  {
    // Name with characters the exporter must escape.
    ScopedSpan span(&session, "wall \"quoted\"\\slash", Category::kCpuCompute,
                    {{"x", 1.5}});
  }
  const auto sim = session.track(ClockDomain::kSim, "node0/phases");
  session.record_sim(sim, "kernels", Category::kGpuKernel, SimTime::micros(5),
                     SimTime::micros(25), {{"sms", 16.0}});

  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string json = os.str();

  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  // Both clock domains present as separate processes.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("node0/phases"), std::string::npos);
}

TEST(TraceSession, GpuDeviceEmitsSimSpans) {
  TraceSession session;
  gpu::GpuDevice device(gpu::DeviceSpec::tesla_m2090(), 2);
  device.set_trace(&session, "gpu/");
  SimTime t = device.enqueue_transfer(0, 1 << 20, /*pinned=*/true,
                                      SimTime::zero());
  t = device.enqueue_kernel(0, 8, SimTime::micros(100), t);
  device.enqueue_transfer(0, 1 << 20, /*pinned=*/true, t, /*to_device=*/false);

  const auto totals = session.category_totals(ClockDomain::kSim, "gpu/");
  EXPECT_GT(totals[Category::kTransfer], 0.0);
  EXPECT_GT(totals[Category::kGpuKernel], 0.0);

  bool have_stream0 = false, have_copy = false;
  for (const auto& info : session.tracks()) {
    if (info.name == "gpu/stream0") have_stream0 = true;
    if (info.name == "gpu/copy-engine") have_copy = true;
  }
  EXPECT_TRUE(have_stream0);
  EXPECT_TRUE(have_copy);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CountersGaugesHistogramsRegisterAndUpdate) {
  MetricsRegistry reg;
  Counter& c = reg.counter("requests_total", "requests");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);

  Gauge& g = reg.gauge("depth");
  g.set(7.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);

  Histogram& h = reg.histogram("sizes");
  h.observe(1.0);
  h.observe(60.0);
  h.observe(0.25);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 61.25);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 60.0);

  // Same (name, labels) yields the same instrument; different labels a new
  // time series.
  EXPECT_EQ(&reg.counter("requests_total"), &c);
  Counter& c2 = reg.counter("requests_total", "", {{"rank", "1"}});
  EXPECT_NE(&c2, &c);
  EXPECT_EQ(reg.size(), 4u);
}

TEST(Metrics, LogBucketGeometryIsSharedAndMonotonic) {
  // frexp(1.0) = 0.5 * 2^1, so 1.0 lands in the bucket with upper bound 2.
  EXPECT_EQ(log_bucket_index(1.0), 32u);
  EXPECT_EQ(log_bucket_index(1e-300), 0u);
  EXPECT_EQ(log_bucket_index(1e300), kHistogramBuckets - 1);
  for (std::size_t i = 1; i < kHistogramBuckets; ++i) {
    EXPECT_GT(log_bucket_upper(i), log_bucket_upper(i - 1));
  }
  // A value lands at or below its bucket's upper bound.
  for (double v : {0.001, 0.4, 1.5, 100.0, 7e6}) {
    EXPECT_LE(v, log_bucket_upper(log_bucket_index(v)));
  }
}

// ---------------------------------------------------------------------------
// Exporters

TEST(Export, PrometheusEscapesLabelValuesAndSanitizesNames) {
  MetricsRegistry reg;
  reg.counter("weird.metric-name", "help", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = prometheus_text(reg);
  // Name sanitized to [a-zA-Z0-9_:].
  EXPECT_NE(text.find("weird_metric_name"), std::string::npos);
  // Label value escaped per the exposition format: \" \\ \n.
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  // No raw newline inside the label value (every line is a full sample).
  for (std::istringstream is(text); !is.eof();) {
    std::string line;
    std::getline(is, line);
    if (line.empty()) continue;
    const bool header = line.rfind("# ", 0) == 0;
    EXPECT_TRUE(header || line.find(' ') != std::string::npos) << line;
  }
}

TEST(Export, PrometheusHistogramExpandsToCumulativeBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("batch_items", "items per batch");
  h.observe(2.0);
  h.observe(2.0);
  h.observe(200.0);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE batch_items histogram"), std::string::npos);
  // 2.0 = 0.5 * 2^2 lands in the bucket with upper bound 4; 200 in 256.
  EXPECT_NE(text.find("batch_items_bucket{le=\"4\"} 2"), std::string::npos);
  EXPECT_NE(text.find("batch_items_bucket{le=\"256\"} 3"), std::string::npos);
  EXPECT_NE(text.find("batch_items_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("batch_items_sum 204"), std::string::npos);
  EXPECT_NE(text.find("batch_items_count 3"), std::string::npos);
}

TEST(Export, JsonSnapshotRoundTripsThroughChecker) {
  MetricsRegistry reg;
  reg.counter("c_total", "with \"quotes\" and \\slashes",
              {{"kind", "a\nb"}})
      .inc(42.0);
  reg.gauge("g", "level").set(-1.5);
  Histogram& h = reg.histogram("h", "dist");
  h.observe(3.0);
  const std::string json = json_snapshot(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
}

TEST(Export, WriteMetricsFilesProducesBothFormats) {
  MetricsRegistry reg;
  reg.counter("written_total").inc(5.0);
  const std::string path =
      ::testing::TempDir() + "/mh_metrics_test.json";
  ASSERT_TRUE(write_metrics_files(reg, path));
  std::ifstream jf(path);
  std::stringstream jbuf;
  jbuf << jf.rdbuf();
  EXPECT_TRUE(JsonChecker(jbuf.str()).valid());
  std::ifstream pf(path + ".prom");
  std::stringstream pbuf;
  pbuf << pf.rdbuf();
  EXPECT_NE(pbuf.str().find("written_total 5"), std::string::npos);
  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());
}

// ---------------------------------------------------------------------------
// Sampler

TEST(Sampler, CountersStayMonotonicAcrossTicks) {
  MetricsRegistry reg;
  Sampler sampler({std::chrono::milliseconds(1), &reg});
  std::atomic<int> probe_runs{0};
  sampler.add_probe([&probe_runs] { ++probe_runs; });

  const Counter& ticks = reg.counter("mh_sampler_ticks_total");
  double last = ticks.value();
  EXPECT_DOUBLE_EQ(last, 0.0);
  for (int i = 0; i < 5; ++i) {
    sampler.sample_now();
    const double now = ticks.value();
    EXPECT_GT(now, last);  // strictly increasing: one tick per call
    last = now;
  }
  EXPECT_EQ(probe_runs.load(), 5);
  EXPECT_EQ(sampler.ticks(), 5u);

  sampler.start();
  EXPECT_TRUE(sampler.running());
  while (ticks.value() < 8.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const double after_stop = ticks.value();
  EXPECT_GE(after_stop, 8.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_DOUBLE_EQ(ticks.value(), after_stop);  // no ticks after stop
}

TEST(Sampler, RemovedProbesStopRunning) {
  MetricsRegistry reg;
  Sampler sampler({std::chrono::milliseconds(100), &reg});
  std::atomic<int> a{0}, b{0};
  const std::uint64_t ida = sampler.add_probe([&a] { ++a; });
  sampler.add_probe([&b] { ++b; });
  sampler.sample_now();
  sampler.remove_probe(ida);
  sampler.sample_now();
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(Sampler, ProbesPublishThreadPoolGauges) {
  MetricsRegistry reg;
  rt::ThreadPool pool(2, "probe-pool");
  Sampler sampler({std::chrono::milliseconds(1), &reg});
  sampler.add_probe([&pool, &reg] { pool.sample_metrics(reg); });

  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  pool.wait_idle();
  sampler.sample_now();

  const Labels labels{{"pool", "probe-pool"}};
  EXPECT_DOUBLE_EQ(reg.gauge("mh_pool_workers", "", labels).value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("mh_pool_executed", "", labels).value(), 32.0);
  EXPECT_DOUBLE_EQ(reg.gauge("mh_pool_queue_depth", "", labels).value(), 0.0);
  const double util =
      reg.gauge("mh_pool_utilization", "", labels).value();
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.0);
}

// ---------------------------------------------------------------------------
// Runtime instrumentation end to end

TEST(Metrics, BatchingEngineExportsCountersAndSplitGauges) {
  MetricsRegistry reg;
  using Engine = rt::BatchingEngine<int, int>;
  Engine::Config cfg;
  cfg.cpu_threads = 2;
  cfg.max_batch = 16;
  cfg.flush_interval = std::chrono::milliseconds(1);
  cfg.metrics = &reg;
  Engine engine(cfg);
  std::atomic<int> done{0};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) { return x + 1; },
       [](std::span<const int> xs) {
         std::vector<int> out;
         for (int x : xs) out.push_back(x + 1);
         return out;
       },
       [&done](int&&) { ++done; },
       /*input_hash=*/0x1234ull});
  for (int i = 0; i < 200; ++i) engine.submit(kind, i);
  engine.wait();
  engine.sample_metrics();
  EXPECT_EQ(done.load(), 200);

  // The registry is the engine's one counter sink: it holds exactly what
  // Stats holds, field by field.
  const auto stats = engine.stats();
  const auto as_double = [](std::size_t n) { return static_cast<double>(n); };
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(reg.counter("mh_batching_batches_total").value(),
            as_double(stats.batches));
  EXPECT_EQ(
      reg.counter("mh_batching_flushes_total", "", {{"reason", "timer"}})
          .value(),
      as_double(stats.timer_flushes));
  EXPECT_EQ(
      reg.counter("mh_batching_flushes_total", "", {{"reason", "size"}})
          .value(),
      as_double(stats.size_flushes));
  EXPECT_EQ(
      reg.counter("mh_batching_flushes_total", "", {{"reason", "explicit"}})
          .value(),
      as_double(stats.explicit_flushes));
  EXPECT_EQ(
      reg.counter("mh_batching_items_total", "", {{"side", "cpu"}}).value(),
      as_double(stats.cpu_items));
  EXPECT_EQ(
      reg.counter("mh_batching_items_total", "", {{"side", "gpu"}}).value(),
      as_double(stats.gpu_items));
  EXPECT_EQ(stats.cpu_items + stats.gpu_items, 200u);
  EXPECT_EQ(reg.histogram("mh_batching_batch_items").snapshot().count,
            static_cast<std::uint64_t>(stats.batches));

  // Per-kind sampled levels exist after sample_metrics(): nothing pending
  // after wait(); the live split fraction is a valid fraction.
  const Labels kind_labels{{"kind", std::to_string(kind)}};
  EXPECT_DOUBLE_EQ(
      reg.gauge("mh_batching_pending_depth", "", kind_labels).value(), 0.0);
  const double split =
      reg.gauge("mh_batching_split_fraction", "", kind_labels).value();
  EXPECT_GE(split, 0.0);
  EXPECT_LE(split, 1.0);
}

// ---------------------------------------------------------------------------
// Causal tracing: ambient contexts, flow-event export, and the analyzer

TEST(TraceContext, ScopedSpanAdoptsAmbientContextAndRestores) {
  TraceSession session;
  EXPECT_FALSE(current_context());
  std::uint64_t outer_id = 0, task = 0, inner_id = 0;
  {
    ScopedSpan outer(&session, "outer", Category::kPreprocess);
    outer_id = outer.id();
    task = outer.context().task;
    ASSERT_NE(outer_id, 0u);
    // A root span (no ambient context) starts a new task under its own id.
    EXPECT_EQ(task, outer_id);
    EXPECT_EQ(current_context().task, task);
    EXPECT_EQ(current_context().span, outer_id);
    {
      ScopedSpan inner(&session, "inner", Category::kCpuCompute);
      inner_id = inner.id();
      EXPECT_NE(inner_id, outer_id);
      EXPECT_EQ(inner.context().task, task);  // same logical task
      EXPECT_EQ(current_context().span, inner_id);
    }
    EXPECT_EQ(current_context().span, outer_id);  // restored on scope exit
  }
  EXPECT_FALSE(current_context());
  const auto spans = session.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first: its parent is the enclosing span, same task id.
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[0].task, task);
  EXPECT_EQ(spans[1].parent, 0u);  // the root has no producer
}

TEST(TraceContext, ScopedContextCarriesProvenanceAcrossThreads) {
  TraceSession session;
  TraceContext ctx;
  {
    ScopedSpan producer(&session, "produce", Category::kPreprocess);
    ctx = producer.context();
  }
  ASSERT_TRUE(ctx);
  std::thread consumer([&session, ctx] {
    ScopedContext provenance(ctx);  // the receive side of a queue hop
    ScopedSpan span(&session, "consume", Category::kPostprocess);
    EXPECT_EQ(span.context().task, ctx.task);
  });
  consumer.join();
  bool found = false;
  for (const Span& s : session.snapshot()) {
    if (std::string_view(s.name) != "consume") continue;
    found = true;
    EXPECT_EQ(s.parent, ctx.span);  // chains to the producer across threads
    EXPECT_EQ(s.task, ctx.task);
  }
  EXPECT_TRUE(found);
}

TEST(TraceExport, FlowEventsPairUpAndCatCarriesSubsystem) {
  TraceSession session;
  TraceContext ctx;
  {
    ScopedSpan producer(&session, "produce", Category::kPreprocess);
    ctx = producer.context();
  }
  std::uint64_t batch_id = 0;
  std::thread engine_thread([&session, &batch_id, ctx] {
    set_thread_label("cpu-pool/7");
    ScopedContext provenance(ctx);
    ScopedSpan batch(&session, "batch", Category::kBatchFlush);
    batch_id = batch.id();
  });
  engine_thread.join();
  session.add_edge(ctx.span, batch_id);  // an explicit many-to-one join

  std::ostringstream os;
  session.write_chrome_trace(os);
  std::istringstream is(os.str());
  ReadTrace trace;
  std::string error;
  ASSERT_TRUE(read_chrome_trace(is, &trace, &error)) << error;

  // Spans carry their causal identity through the file format.
  ASSERT_EQ(trace.spans.size(), 2u);
  bool saw_engine_cat = false;
  for (const ReadSpan& s : trace.spans) {
    EXPECT_NE(s.id, 0u);
    EXPECT_EQ(s.task, ctx.task);
    // "cat" is "<category>,<subsystem>" — the engine-labelled track maps to
    // the engine subsystem, the unlabelled test thread to the pool default.
    if (s.name == "batch") {
      EXPECT_EQ(s.cat, "batch-flush,engine");
      saw_engine_cat = true;
      EXPECT_EQ(s.parent, ctx.span);
    } else {
      EXPECT_EQ(s.cat, "preprocess,pool");
    }
  }
  EXPECT_TRUE(saw_engine_cat);

  // One parent link + one add_edge join -> two flows; every "s" start has
  // exactly one "f" finish with the same flow id and endpoints.
  std::map<std::uint64_t, int> starts, finishes;
  for (const ReadFlow& f : trace.flows) {
    (f.start ? starts : finishes)[f.flow_id]++;
    EXPECT_EQ(f.from, ctx.span);
    EXPECT_EQ(f.to, batch_id);
  }
  EXPECT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts, finishes);
  const auto edges = trace.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(ctx.span, batch_id));
}

TEST(TraceExport, ControlCharactersInNamesAreEscaped) {
  TraceSession session;
  std::thread t([&session] {
    set_thread_label("weird\nlabel\ttab\x01ctl");
    ScopedSpan span(&session, "tick", Category::kOther);
  });
  t.join();
  {
    ScopedSpan span(&session, "span\nwith\rnewlines", Category::kOther);
  }
  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string json = os.str();
  // The checker rejects bare control characters inside strings, so a valid
  // verdict means every one of them was escaped.
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  std::istringstream is(json);
  ReadTrace trace;
  std::string error;
  EXPECT_TRUE(read_chrome_trace(is, &trace, &error)) << error;
}

TEST(TraceExport, EngineRunKeepsTaskChainConnected) {
  // End to end through the batching engine: every postprocess span must
  // belong to a task whose enqueue span is in the trace, and its parent
  // must be a real recorded span (the compute that produced the result).
  TraceSession session;
  using Engine = rt::BatchingEngine<int, int>;
  Engine::Config cfg;
  cfg.cpu_threads = 2;
  cfg.max_batch = 16;
  cfg.flush_interval = std::chrono::milliseconds(1);
  cfg.trace = &session;
  Engine engine(cfg);
  std::atomic<int> done{0};
  const rt::KindId kind = engine.register_kind(
      {[](const int& x) { return x + 1; },
       [](std::span<const int> xs) {
         std::vector<int> out;
         for (int x : xs) out.push_back(x + 1);
         return out;
       },
       [&done](int&&) { ++done; },
       /*input_hash=*/0xce11ull});
  for (int i = 0; i < 100; ++i) engine.submit(kind, i);
  engine.wait();
  EXPECT_EQ(done.load(), 100);

  const auto spans = session.snapshot();
  std::map<std::uint64_t, const Span*> by_id;
  std::map<std::uint64_t, int> enqueue_tasks;
  for (const Span& s : spans) {
    if (s.id != 0) by_id[s.id] = &s;
    if (std::string_view(s.name) == "enqueue") enqueue_tasks[s.task]++;
  }
  EXPECT_EQ(enqueue_tasks.size(), 100u);  // one task id per submitted item
  int posts = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "postprocess") continue;
    ++posts;
    EXPECT_EQ(enqueue_tasks.count(s.task), 1u) << "orphaned task " << s.task;
    ASSERT_NE(s.parent, 0u);
    ASSERT_EQ(by_id.count(s.parent), 1u);
    // The producer is compute work, on either side of the split.
    const Category producer_cat = by_id[s.parent]->cat;
    EXPECT_TRUE(producer_cat == Category::kCpuCompute ||
                producer_cat == Category::kGpuKernel)
        << static_cast<int>(producer_cat);
  }
  EXPECT_EQ(posts, 100);
}

TEST(CriticalPath, AttributionTelescopesToSyntheticMakespan) {
  TraceSession session;
  const auto track = session.track(ClockDomain::kSim, "node0/phases");
  // pre [0,10) -> (10us dependency stall) -> compute [20,50) -> post [50,60)
  const std::uint64_t pre = session.record_sim_linked(
      track, "pre", Category::kPreprocess, SimTime::micros(0),
      SimTime::micros(10), {});
  const std::uint64_t mid = session.record_sim_linked(
      track, "compute", Category::kCpuCompute, SimTime::micros(20),
      SimTime::micros(50), {pre, pre});
  session.record_sim_linked(track, "post", Category::kPostprocess,
                            SimTime::micros(50), SimTime::micros(60),
                            {mid, pre});

  std::stringstream ss;
  session.write_chrome_trace(ss);
  ReadTrace trace;
  std::string error;
  ASSERT_TRUE(read_chrome_trace(ss, &trace, &error)) << error;
  const TraceAnalysis analysis = analyze_trace(trace);

  EXPECT_TRUE(analysis.sim_domain);
  EXPECT_EQ(analysis.causal_spans, 3u);
  EXPECT_EQ(analysis.connected_components, 1u);
  EXPECT_NEAR(analysis.makespan_us(), 60.0, 1e-6);
  // The attribution telescopes: 10 pre + 30 compute + 10 post + 10 wait.
  EXPECT_NEAR(analysis.critical.total_us(), analysis.makespan_us(), 1e-6);
  EXPECT_NEAR(analysis.critical[Category::kPreprocess], 10.0, 1e-6);
  EXPECT_NEAR(analysis.critical[Category::kCpuCompute], 30.0, 1e-6);
  EXPECT_NEAR(analysis.critical[Category::kPostprocess], 10.0, 1e-6);
  EXPECT_NEAR(analysis.critical.wait_us, 10.0, 1e-6);
  EXPECT_EQ(analysis.path.size(), 3u);
}

TEST(Sampler, StopRunsOneFinalProbePass) {
  MetricsRegistry reg;
  // Period far beyond the test: the background loop never ticks on its own,
  // so the only tick is the final flush stop() performs after the join —
  // without it a run shorter than one period would publish nothing.
  Sampler sampler({std::chrono::milliseconds(3600 * 1000), &reg});
  std::atomic<int> runs{0};
  sampler.add_probe([&runs] { ++runs; });
  sampler.start();
  sampler.stop();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(sampler.ticks(), 1u);
  sampler.stop();  // idempotent: no thread to join, no extra tick
  EXPECT_EQ(runs.load(), 1);
}

TEST(Sampler, SlowProbeDoesNotStretchTheSchedule) {
  // Regression: the loop used to wait_for(period) *after* each tick, so a
  // probe taking P milliseconds turned a T-period schedule into T+P — the
  // sampler drifted further behind with every tick. Deadline-based
  // wait_until absorbs probe time into the idle wait instead: a probe
  // using ~75% of the period must not cost ~43% of the ticks.
  MetricsRegistry reg;
  const auto period = std::chrono::milliseconds(40);
  Sampler sampler({period, &reg});
  sampler.add_probe(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); });
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  sampler.stop();
  // Ideal: 30 periodic ticks (+1 final flush). The drifting loop would
  // manage only ~17. Bounds are generous for noisy CI machines but far
  // above what drift could ever produce.
  EXPECT_GE(sampler.ticks(), 22u);
  EXPECT_LE(sampler.ticks(), 33u);  // no catch-up bursts either
  // The lag gauge is exported and sane: a tick fires at-or-after its
  // deadline, never before.
  const double lag = reg.gauge("mh_sampler_tick_lag_seconds").value();
  EXPECT_GE(lag, 0.0);
  EXPECT_LT(lag, 1.0);
}

// ---------------------------------------------------------------------------
// Ring-buffer (flight recorder) trace sessions

TEST(FlightRing, WrapKeepsNewestSpansAndCountsDropsExactly) {
  TraceSession session(1024);  // exactly two 512-span chunks
  EXPECT_EQ(session.ring_capacity_spans(), 1024u);
  const auto track = session.track(ClockDomain::kSim, "node0/t");
  // 5000 spans through a 1024-span ring: chunks rotate whole, so the
  // arithmetic is exact — ceil((5000-1024)/512) = 8 rotations drop
  // 8*512 = 4096 spans, keeping the newest 904.
  for (int i = 0; i < 5000; ++i) {
    session.record_sim(track, "tick", Category::kCpuCompute,
                       SimTime::micros(i), SimTime::micros(i + 1));
  }
  EXPECT_EQ(session.dropped_spans(), 4096u);
  EXPECT_EQ(session.span_count(), 904u);
  // The survivors are precisely the most recent spans (starts 4096..4999),
  // not an arbitrary subset.
  double min_start = 1e300, max_start = -1.0;
  for (const Span& s : session.snapshot()) {
    min_start = std::min(min_start, s.start_us);
    max_start = std::max(max_start, s.start_us);
  }
  EXPECT_DOUBLE_EQ(min_start, 4096.0);
  EXPECT_DOUBLE_EQ(max_start, 4999.0);
}

TEST(FlightRing, TinyAndZeroBudgetsClampSanely) {
  // Budgets below one chunk still get the two-chunk minimum; 0 stays
  // unbounded and never drops.
  TraceSession tiny(1);
  EXPECT_EQ(tiny.ring_capacity_spans(), 2 * 512u);
  TraceSession unbounded(0);
  EXPECT_EQ(unbounded.ring_capacity_spans(), 0u);
  const auto track = unbounded.track(ClockDomain::kSim, "t");
  for (int i = 0; i < 3000; ++i) {
    unbounded.record_sim(track, "tick", Category::kOther, SimTime::micros(i),
                         SimTime::micros(i + 1));
  }
  EXPECT_EQ(unbounded.dropped_spans(), 0u);
  EXPECT_EQ(unbounded.span_count(), 3000u);
}

TEST(FlightRing, DropAccountingIsExactUnderMultiThreadChurn) {
  Counter& global =
      MetricsRegistry::global().counter("mh_trace_dropped_spans_total");
  const double before = global.value();
  TraceSession session(1024);
  constexpr int kThreads = 4, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(&session, "churn", Category::kCpuCompute);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every record() either survived into the snapshot or was counted as
  // dropped — nothing lost, nothing double-counted, on any interleaving.
  const std::uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(session.span_count() + session.dropped_spans(), total);
  EXPECT_GT(session.dropped_spans(), 0u);
  // Each thread's ring holds at most its capacity.
  EXPECT_LE(session.span_count(),
            static_cast<std::size_t>(kThreads) *
                session.ring_capacity_spans());
  // The process-wide counter advanced by exactly this session's drops.
  EXPECT_DOUBLE_EQ(global.value(),
                   before + static_cast<double>(session.dropped_spans()));
}

TEST(FlightRing, DroppedSpanMetadataSurvivesExportAndRead) {
  TraceSession session(1024);
  const auto track = session.track(ClockDomain::kSim, "node0/t");
  for (int i = 0; i < 3000; ++i) {
    session.record_sim(track, "tick", Category::kCpuCompute,
                       SimTime::micros(i), SimTime::micros(i + 1));
  }
  ASSERT_GT(session.dropped_spans(), 0u);
  std::stringstream ss;
  session.write_chrome_trace(ss);
  EXPECT_TRUE(JsonChecker(ss.str()).valid()) << ss.str().substr(0, 400);
  ReadTrace trace;
  std::string error;
  ASSERT_TRUE(read_chrome_trace(ss, &trace, &error)) << error;
  EXPECT_EQ(trace.dropped_spans, session.dropped_spans());
  EXPECT_EQ(trace.spans.size(), session.span_count());
}

TEST(FlightRecorderTest, DumpWritesLoadableTraceAndCounts) {
  const std::string path = ::testing::TempDir() + "/mh_flight_dump.json";
  FlightRecorder rec({.path = path,
                      .spans_per_thread = 1024,
                      .install_as_current = false,
                      .dump_at_exit = false,
                      .dump_on_fault = false});
  ASSERT_EQ(rec.session().ring_capacity_spans(), 1024u);
  for (int i = 0; i < 2000; ++i) {
    ScopedSpan span(&rec.session(), "work", Category::kCpuCompute);
  }
  EXPECT_EQ(rec.dump_count(), 0u);
  ASSERT_TRUE(rec.dump("test"));
  EXPECT_EQ(rec.dump_count(), 1u);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  ReadTrace trace;
  std::string error;
  ASSERT_TRUE(read_chrome_trace(is, &trace, &error)) << error;
  EXPECT_EQ(trace.spans.size(), rec.session().span_count());
  EXPECT_EQ(trace.dropped_spans, rec.session().dropped_spans());
  EXPECT_GT(trace.dropped_spans, 0u);
  std::remove(path.c_str());

  // A recorder with no destination refuses to dump (and says so).
  FlightRecorder mute({.path = "",
                       .spans_per_thread = 1024,
                       .install_as_current = false,
                       .dump_at_exit = false,
                       .dump_on_fault = false});
  EXPECT_FALSE(mute.dump("test"));
  EXPECT_EQ(mute.dump_count(), 0u);
}

// ---------------------------------------------------------------------------
// Differential critical-path analysis (trace_diff)

// Build the canonical three-span chain pre -> compute -> post on one sim
// track, with the compute span stretched by `extra_us` and everything after
// it shifted right — the shape of a real "one phase got slower" regression.
ReadTrace synthetic_trace(double extra_us) {
  TraceSession session;
  const auto track = session.track(ClockDomain::kSim, "node0/phases");
  const std::uint64_t pre = session.record_sim_linked(
      track, "pre", Category::kPreprocess, SimTime::micros(0),
      SimTime::micros(10), {});
  const std::uint64_t mid = session.record_sim_linked(
      track, "compute", Category::kCpuCompute, SimTime::micros(20),
      SimTime::micros(50 + extra_us), {pre, pre});
  session.record_sim_linked(track, "post", Category::kPostprocess,
                            SimTime::micros(50 + extra_us),
                            SimTime::micros(60 + extra_us), {mid, pre});
  std::stringstream ss;
  session.write_chrome_trace(ss);
  ReadTrace trace;
  std::string error;
  EXPECT_TRUE(read_chrome_trace(ss, &trace, &error)) << error;
  return trace;
}

TEST(TraceDiffTest, RecoversInjectedPhaseDeltaWithSign) {
  const ReadTrace base = synthetic_trace(0.0);
  const ReadTrace cur = synthetic_trace(30.0);
  const TraceDiff d = diff_traces(base, cur);

  EXPECT_NEAR(d.makespan_delta_us(), 30.0, 1e-6);
  EXPECT_EQ(d.base_dropped, 0u);
  EXPECT_EQ(d.cur_dropped, 0u);
  // >= 90% of the makespan delta lands on the phase that actually grew,
  // with the right sign; the untouched phases stay near zero.
  double compute_delta = 0.0, others = 0.0, sum = 0.0;
  for (const DiffEntry& e : d.phases) {
    sum += e.delta_us();
    if (e.name == category_name(Category::kCpuCompute)) {
      compute_delta = e.delta_us();
    } else {
      others += std::abs(e.delta_us());
    }
  }
  EXPECT_GE(compute_delta, 0.9 * 30.0);
  EXPECT_LT(others, 0.1 * 30.0);
  // The phase deltas telescope to the makespan delta.
  EXPECT_NEAR(sum, d.makespan_delta_us(), 1e-6);
  EXPECT_NEAR(d.attributed_fraction, 1.0, 1e-6);
  // Ranked by |delta|: the grown phase leads the report.
  ASSERT_FALSE(d.phases.empty());
  EXPECT_EQ(d.phases.front().name, category_name(Category::kCpuCompute));
  // Stretched, not re-routed: same chain, same track.
  EXPECT_FALSE(d.rerouted);
  EXPECT_GT(d.path_similarity, 0.5);

  // An improvement attributes with a negative sign.
  const TraceDiff rev = diff_traces(cur, base);
  EXPECT_NEAR(rev.makespan_delta_us(), -30.0, 1e-6);
  double rev_compute = 0.0;
  for (const DiffEntry& e : rev.phases) {
    if (e.name == category_name(Category::kCpuCompute)) {
      rev_compute = e.delta_us();
    }
  }
  EXPECT_LE(rev_compute, -0.9 * 30.0);
}

TEST(TraceDiffTest, GroupsRanksAndClassesCarryTheDelta) {
  const TraceDiff d = diff_traces(synthetic_trace(0.0), synthetic_trace(30.0));
  // Rollup: the delta is compute, not wait or comm.
  double compute = 0.0, wait = 0.0, comm = 0.0;
  for (const DiffEntry& e : d.groups) {
    if (e.name == "compute") compute = e.delta_us();
    if (e.name == "wait") wait = e.delta_us();
    if (e.name == "comm") comm = e.delta_us();
  }
  EXPECT_NEAR(compute, 30.0, 1e-6);
  EXPECT_NEAR(wait, 0.0, 1e-6);
  EXPECT_NEAR(comm, 0.0, 1e-6);
  // The single rank carries the full finish-time delta.
  ASSERT_FALSE(d.ranks.empty());
  EXPECT_NEAR(d.ranks.front().delta_us(), 30.0, 1e-6);
  // The "compute" task class grew by the injected amount.
  double class_delta = 0.0;
  for (const DiffEntry& e : d.classes) {
    if (e.name == "compute") class_delta = e.delta_us();
  }
  EXPECT_NEAR(class_delta, 30.0, 1e-6);
}

TEST(TraceDiffTest, ReportsAreWellFormed) {
  const TraceDiff d = diff_traces(synthetic_trace(0.0), synthetic_trace(30.0));
  std::ostringstream json;
  write_diff_json(json, d);
  EXPECT_TRUE(JsonChecker(json.str()).valid()) << json.str().substr(0, 400);
  EXPECT_NE(json.str().find("\"attributed_fraction\""), std::string::npos);
  EXPECT_NE(json.str().find("\"phases\""), std::string::npos);

  std::ostringstream text;
  write_diff(text, d);
  EXPECT_NE(text.str().find("makespan"), std::string::npos);
  EXPECT_NE(text.str().find(category_name(Category::kCpuCompute)),
            std::string::npos);

  std::ostringstream md;
  write_diff_markdown(md, d, "bench_example");
  EXPECT_NE(md.str().find("Regression attribution: bench_example"),
            std::string::npos);
  EXPECT_NE(md.str().find("| phase |"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram tail quantile (p999)

TEST(Metrics, HistogramQuantileInterpolatesAndClamps) {
  MetricsRegistry reg;
  Histogram& empty = reg.histogram("empty");
  EXPECT_DOUBLE_EQ(empty.snapshot().p999(), 0.0);

  // A single observation: every quantile is that value (clamped to
  // [min, max] past the interpolation).
  Histogram& one = reg.histogram("one");
  one.observe(7.0);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(one.snapshot().p999(), 7.0);

  // A spread: quantiles are monotone in q, bounded by [min, max], and the
  // tail estimate sits above the bulk.
  Histogram& h = reg.histogram("spread");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  const double p50 = s.quantile(0.5);
  const double p999 = s.p999();
  EXPECT_LE(p50, p999);
  EXPECT_GE(p999, 900.0);
  EXPECT_LE(p999, 1000.0);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(s.quantile(1.0), s.max);
  EXPECT_GE(s.quantile(0.0), 0.0);
}

TEST(Export, P999AppearsInBothExporters) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_us", "latency");
  h.observe(10.0);
  h.observe(2000.0);
  const std::string prom = prometheus_text(reg);
  EXPECT_NE(prom.find("lat_us_p999 "), std::string::npos);
  const std::string json = json_snapshot(reg);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

TEST(Metrics, GpusimPublishesOccupancyAndCacheHitRatio) {
  // gpusim counters land in the process-global registry.
  MetricsRegistry& reg = MetricsRegistry::global();
  const double kernels_before =
      reg.counter("mh_gpusim_kernels_total").value();

  gpu::GpuDevice dev(gpu::DeviceSpec::tesla_m2090(), 4);
  gpu::DeviceCache cache(dev.spec().memory_bytes);
  std::vector<gpu::GpuTaskDesc> batch(8);
  for (auto& t : batch) {
    t.shape = gpu::ApplyTaskShape{3, 10, 20};
    t.h_block_ids = {1, 2, 3};
  }
  gpu::BatchConfig cfg;
  cfg.streams = 4;
  gpu::run_apply_batch(dev, &cache, batch, cfg, SimTime::zero());

  EXPECT_GT(reg.counter("mh_gpusim_kernels_total").value(), kernels_before);
  const double occupancy = reg.gauge("mh_gpusim_stream_occupancy").value();
  EXPECT_GT(occupancy, 0.0);
  EXPECT_LE(occupancy, 1.0);
  // 8 tasks sharing 3 h blocks: first task misses, the rest hit.
  const double ratio = reg.gauge("mh_gpusim_cache_hit_ratio").value();
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 1.0);
  EXPECT_GE(reg.counter("mh_gpusim_cache_hits_total").value(), 1.0);
  EXPECT_GE(reg.counter("mh_gpusim_transfers_total").value(), 1.0);
}

}  // namespace
}  // namespace mh::obs
