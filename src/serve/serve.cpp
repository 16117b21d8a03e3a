#include "serve/serve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <string_view>

#include "common/diagnostics.hpp"
#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "runtime/deadline.hpp"

namespace mh::serve {

const char* request_class_name(RequestClass c) noexcept {
  switch (c) {
    case RequestClass::kApply: return "apply";
    case RequestClass::kCompress: return "compress";
    case RequestClass::kReconstruct: return "reconstruct";
  }
  return "apply";
}

namespace {

struct Request {
  SimTime arrival;
  SimTime deadline;
  std::uint32_t tenant = 0;
};

struct Event {
  enum Kind : std::uint8_t {
    kArrival,        ///< arg = tenant
    kFlushCheck,     ///< arg = request class
    kWorkerDone,     ///< arg = worker
    kRankRestart,    ///< arg = rank
    kTelemetryTick,  ///< arg unused
  };
  double at = 0.0;
  std::uint64_t seq = 0;  ///< insertion order: the deterministic tie-break
  Kind kind = kArrival;
  std::size_t arg = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

/// The whole server as one discrete-event simulation. Single-threaded and
/// seeded, so every stat in ServeResult is bit-reproducible.
class Sim {
 public:
  explicit Sim(const ServeConfig& config)
      : cfg_(config),
        faults_(config.faults != nullptr ? config.faults
                                         : &fault::FaultInjector::global()),
        metrics_(config.metrics != nullptr ? *config.metrics
                                           : obs::MetricsRegistry::global()) {
    MH_CHECK(!cfg_.tenants.empty(), "serve needs at least one tenant");
    MH_CHECK(cfg_.workers >= 1, "serve needs at least one worker");
    MH_CHECK(cfg_.backend_ranks >= 1, "serve needs at least one rank");
    MH_CHECK(cfg_.max_batch >= 1, "batch cap must be positive");
    tenants_.resize(cfg_.tenants.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      Tenant& ten = tenants_[t];
      const TenantSpec& spec = cfg_.tenants[t];
      ten.rng = Rng(hash_combine(cfg_.seed, 0x7e4a7c15u + t));
      ten.tokens = spec.burst;
      // Normalized class mix as a CDF for the per-request class draw.
      double total = 0.0;
      for (double m : spec.mix) total += std::max(m, 0.0);
      if (total <= 0.0) total = 1.0;
      double cum = 0.0;
      for (std::size_t c = 0; c < kRequestClasses; ++c) {
        cum += std::max(spec.mix[c], 0.0) / total;
        ten.mix_cdf[c] = cum;
      }
      ten.mix_cdf[kRequestClasses - 1] = 1.0;
      ten.stats.name = spec.name;
      const obs::Labels labels{{"tenant", spec.name}};
      ten.m_latency = &metrics_.histogram(
          "mh_serve_latency_ms", "per-tenant served request latency", labels);
      ten.m_ok = &metrics_.counter("mh_serve_requests_total",
                                   "terminal request outcomes",
                                   {{"tenant", spec.name}, {"outcome", "ok"}});
      ten.m_shed_rate = &metrics_.counter(
          "mh_serve_requests_total", {},
          {{"tenant", spec.name}, {"outcome", "shed_rate_limit"}});
      ten.m_shed_queue = &metrics_.counter(
          "mh_serve_requests_total", {},
          {{"tenant", spec.name}, {"outcome", "shed_queue_full"}});
      ten.m_error = &metrics_.counter(
          "mh_serve_requests_total", {},
          {{"tenant", spec.name}, {"outcome", "backend_error"}});
    }
    workers_.resize(cfg_.workers);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      workers_[w].rank = w % cfg_.backend_ranks;
    }
    alive_.assign(cfg_.backend_ranks, true);
    if (cfg_.health != nullptr) {
      tel_.emplace(tenants_.size());
    }
  }

  ServeResult run() {
    // Seed the event horizon: one first arrival per tenant, one telemetry
    // tick when a health plane is attached.
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      schedule_next_arrival(t, 0.0);
    }
    if (tel_) schedule(cfg_.telemetry_tick.sec(), Event::kTelemetryTick, 0);

    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      const double now = ev.at;
      switch (ev.kind) {
        case Event::kArrival: on_arrival(ev.arg, now); break;
        case Event::kFlushCheck: try_dispatch(now); break;
        case Event::kWorkerDone: on_worker_done(ev.arg, now); break;
        case Event::kRankRestart: on_rank_restart(ev.arg, now); break;
        case Event::kTelemetryTick: on_telemetry(now); break;
      }
    }

    return finish();
  }

 private:
  struct Tenant {
    Rng rng{0};
    double tokens = 0.0;
    SimTime last_refill;
    std::array<double, kRequestClasses> mix_cdf{};
    std::array<std::deque<Request>, kRequestClasses> queue;
    std::size_t queued = 0;  ///< across the three class FIFOs
    // Telemetry window accumulators (reset every tick).
    std::size_t win_responses = 0;
    std::size_t win_bad = 0;  ///< SLO misses + backend errors this window
    TenantStats stats;
    obs::Histogram* m_latency = nullptr;
    obs::Counter* m_ok = nullptr;
    obs::Counter* m_shed_rate = nullptr;
    obs::Counter* m_shed_queue = nullptr;
    obs::Counter* m_error = nullptr;
  };

  struct Worker {
    std::size_t rank = 0;
    bool busy = false;
    RequestClass cls = RequestClass::kApply;
    std::vector<Request> batch;
  };

  void schedule(double at, Event::Kind kind, std::size_t arg) {
    events_.push(Event{at, seq_++, kind, arg});
  }

  void schedule_next_arrival(std::size_t t, double now) {
    const TenantSpec& spec = cfg_.tenants[t];
    if (spec.arrival_rps <= 0.0) return;
    // Exponential interarrival: the open-loop Poisson stream.
    const double u = tenants_[t].rng.next_double();
    const double dt = -std::log(1.0 - u) / spec.arrival_rps;
    const double at = now + dt;
    if (at <= cfg_.duration.sec()) schedule(at, Event::kArrival, t);
  }

  RequestClass draw_class(Tenant& ten) {
    const double u = ten.rng.next_double();
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
      if (u < ten.mix_cdf[c]) return static_cast<RequestClass>(c);
    }
    return RequestClass::kReconstruct;
  }

  void on_arrival(std::size_t t, double now) {
    Tenant& ten = tenants_[t];
    const TenantSpec& spec = cfg_.tenants[t];
    schedule_next_arrival(t, now);
    ++ten.stats.offered;
    const RequestClass cls = draw_class(ten);
    // Token bucket refill since the last arrival.
    const SimTime snow = SimTime::seconds(now);
    ten.tokens = std::min(
        spec.burst,
        ten.tokens + (snow - ten.last_refill).sec() * spec.rate_rps);
    ten.last_refill = snow;
    if (ten.tokens < 1.0) {
      ++ten.stats.shed_rate_limit;
      ten.m_shed_rate->inc();
      return;  // typed kShedRateLimit response, immediately
    }
    if (ten.queued >= spec.queue_cap) {
      ++ten.stats.shed_queue_full;
      ten.m_shed_queue->inc();
      return;  // typed kShedQueueFull response, immediately
    }
    ten.tokens -= 1.0;
    ++ten.stats.admitted;
    const std::size_t c = static_cast<std::size_t>(cls);
    ten.queue[c].push_back(
        Request{snow, snow + spec.slo, static_cast<std::uint32_t>(t)});
    ++ten.queued;
    ++pending_[c];
    if (pending_[c] >= cfg_.max_batch) {
      try_dispatch(now);
    } else {
      schedule_class_check(c, now);
    }
  }

  // --- flush policy ----------------------------------------------------

  double oldest_arrival(std::size_t c) const {
    double oldest = std::numeric_limits<double>::infinity();
    for (const Tenant& ten : tenants_) {
      if (!ten.queue[c].empty()) {
        oldest = std::min(oldest, ten.queue[c].front().arrival.sec());
      }
    }
    return oldest;
  }

  double earliest_deadline(std::size_t c) const {
    double earliest = std::numeric_limits<double>::infinity();
    for (const Tenant& ten : tenants_) {
      if (!ten.queue[c].empty()) {
        earliest = std::min(earliest, ten.queue[c].front().deadline.sec());
      }
    }
    return earliest;
  }

  /// Simulated seconds a class-c batch of n items keeps a worker busy.
  double service_time(std::size_t c, std::size_t n) const {
    return cfg_.batch_setup[c].sec() +
           static_cast<double>(n) * cfg_.per_item[c].sec();
  }

  /// When the class's next batch must be dispatched (policy-dependent).
  double flush_due_at(std::size_t c) const {
    if (cfg_.policy == FlushPolicy::kTimer) {
      return oldest_arrival(c) + cfg_.flush_window.sec();
    }
    // The serving discipline: the same last-responsible-moment arithmetic
    // the BatchingEngine's deadline hook runs on the wall clock, with the
    // known-cost service estimate of the class's next batch.
    return rt::deadline_flush_at(
        earliest_deadline(c),
        service_time(c, std::min(pending_[c], cfg_.max_batch)),
        cfg_.deadline_margin.sec());
  }

  void schedule_class_check(std::size_t c, double now) {
    if (pending_[c] == 0) return;
    schedule(std::max(flush_due_at(c), now), Event::kFlushCheck, c);
  }

  // --- batching + service ----------------------------------------------

  std::size_t free_live_worker() const {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].busy && alive_[workers_[w].rank]) return w;
    }
    return workers_.size();
  }

  /// Weighted round-robin batch formation across tenants: each visit takes
  /// up to round(weight) items from the tenant's class FIFO, and the
  /// cursor persists across batches — a hog tenant's backlog cannot
  /// starve the others (its surplus waits for its next turn).
  std::vector<Request> form_batch(std::size_t c) {
    std::vector<Request> batch;
    batch.reserve(std::min(pending_[c], cfg_.max_batch));
    std::size_t empty_visits = 0;
    while (batch.size() < cfg_.max_batch && pending_[c] > 0 &&
           empty_visits < tenants_.size()) {
      const std::size_t t = rr_[c];
      rr_[c] = (rr_[c] + 1) % tenants_.size();
      Tenant& ten = tenants_[t];
      if (ten.queue[c].empty()) {
        ++empty_visits;
        continue;
      }
      empty_visits = 0;
      const std::size_t quantum = static_cast<std::size_t>(
          std::max<long long>(1, std::llround(cfg_.tenants[t].weight)));
      for (std::size_t k = 0; k < quantum && !ten.queue[c].empty() &&
                              batch.size() < cfg_.max_batch;
           ++k) {
        batch.push_back(ten.queue[c].front());
        ten.queue[c].pop_front();
        --ten.queued;
        --pending_[c];
      }
    }
    return batch;
  }

  void try_dispatch(double now) {
    for (;;) {
      const std::size_t w = free_live_worker();
      if (w == workers_.size()) return;
      // Most urgent due class first (earliest front deadline).
      std::size_t pick = kRequestClasses;
      double pick_deadline = std::numeric_limits<double>::infinity();
      bool pick_size = false;
      for (std::size_t c = 0; c < kRequestClasses; ++c) {
        if (pending_[c] == 0) continue;
        const bool size_trigger = pending_[c] >= cfg_.max_batch;
        if (!size_trigger && now < flush_due_at(c)) continue;
        const double dl = earliest_deadline(c);
        if (dl < pick_deadline) {
          pick_deadline = dl;
          pick = c;
          pick_size = size_trigger;
        }
      }
      if (pick == kRequestClasses) return;
      dispatch(pick, pick_size, w, now);
      if (pending_[pick] > 0) schedule_class_check(pick, now);
    }
  }

  void dispatch(std::size_t c, bool size_trigger, std::size_t w, double now) {
    std::vector<Request> batch = form_batch(c);
    MH_CHECK(!batch.empty(), "dispatched an empty batch");
    ++stats_.batches;
    stats_.max_batch_seen = std::max(stats_.max_batch_seen, batch.size());
    if (size_trigger) {
      ++stats_.size_flushes;
    } else if (cfg_.policy == FlushPolicy::kDeadline) {
      ++stats_.deadline_flushes;
    } else {
      ++stats_.timer_flushes;
    }
    Worker& worker = workers_[w];
    // The send fault site models a backend rank dying mid-stream: the
    // whole batch gets typed error responses (no hang, no silent drop)
    // and the rank's capacity is gone until it restarts.
    if (faults_->armed() && faults_->should_fail(fault::FaultSite::kSend)) {
      if (alive_[worker.rank]) {
        alive_[worker.rank] = false;
        ++stats_.rank_deaths;
        schedule(now + cfg_.rank_restart.sec(), Event::kRankRestart,
                 worker.rank);
      }
      const double respond_at = now + cfg_.error_latency.sec();
      for (const Request& req : batch) {
        Tenant& ten = tenants_[req.tenant];
        ++ten.stats.backend_errors;
        ten.m_error->inc();
        ++ten.win_responses;
        ++ten.win_bad;
      }
      last_response_ = std::max(last_response_, respond_at);
      return;  // the worker stays free; its rank does not
    }
    const double service = service_time(c, batch.size());
    worker.busy = true;
    worker.cls = static_cast<RequestClass>(c);
    worker.batch = std::move(batch);
    ++busy_workers_;
    schedule(now + service, Event::kWorkerDone, w);
  }

  void on_worker_done(std::size_t w, double now) {
    Worker& worker = workers_[w];
    for (const Request& req : worker.batch) {
      Tenant& ten = tenants_[req.tenant];
      const double latency_ms = (SimTime::seconds(now) - req.arrival).ms();
      ++ten.stats.completed;
      ten.m_ok->inc();
      ten.stats.latency_ms.observe(latency_ms);
      ten.m_latency->observe(latency_ms);
      ++ten.win_responses;
      if (SimTime::seconds(now) > req.deadline) {
        ++ten.stats.slo_misses;
        ++ten.win_bad;
      }
    }
    last_response_ = std::max(last_response_, now);
    worker.batch.clear();
    worker.busy = false;
    --busy_workers_;
    try_dispatch(now);
  }

  void on_rank_restart(std::size_t r, double now) {
    alive_[r] = true;
    ++stats_.rank_restarts;
    try_dispatch(now);
  }

  // --- telemetry -------------------------------------------------------

  void on_telemetry(double now) {
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      Tenant& ten = tenants_[t];
      const double burn =
          ten.win_responses > 0
              ? static_cast<double>(ten.win_bad) /
                    static_cast<double>(ten.win_responses)
              : 0.0;
      tel_->gauge(t, "mh_serve_slo_burn", burn);
      tel_->gauge(t, "mh_serve_queue_depth",
                  static_cast<double>(ten.queued));
      tel_->counter(t, "mh_serve_shed_total",
                    static_cast<double>(ten.stats.shed_rate_limit +
                                        ten.stats.shed_queue_full));
      tel_->counter(t, "mh_serve_completed_total",
                    static_cast<double>(ten.stats.completed));
      tel_->counter(t, "mh_serve_error_total",
                    static_cast<double>(ten.stats.backend_errors));
      ten.win_responses = 0;
      ten.win_bad = 0;
    }
    const auto events = cfg_.health->tick(tel_->collect(now), now);
    for (const obs::AlertEvent& ev : events) {
      if (ev.state == obs::AlertState::kFiring) ++stats_.alerts_fired;
      if (ev.state == obs::AlertState::kResolved) ++stats_.alerts_resolved;
    }
    // Keep ticking while the run is live, then a short grace so firing
    // alerts can observe clean windows and resolve.
    std::size_t queued = 0;
    for (const Tenant& ten : tenants_) queued += ten.queued;
    if (now < cfg_.duration.sec() || queued > 0 || busy_workers_ > 0) {
      schedule(now + cfg_.telemetry_tick.sec(), Event::kTelemetryTick, 0);
    } else if (grace_ticks_ > 0) {
      --grace_ticks_;
      schedule(now + cfg_.telemetry_tick.sec(), Event::kTelemetryTick, 0);
    }
  }

  // --- wrap-up ---------------------------------------------------------

  ServeResult finish() {
    ServeResult out;
    std::size_t in_slo = 0;
    for (Tenant& ten : tenants_) {
      // Every admitted request got exactly one typed terminal outcome.
      MH_CHECK(ten.stats.offered == ten.stats.admitted +
                                        ten.stats.shed_rate_limit +
                                        ten.stats.shed_queue_full,
               "serve lost an arrival");
      MH_CHECK(ten.stats.admitted ==
                   ten.stats.completed + ten.stats.backend_errors,
               "serve lost an admitted request");
      ten.stats.latency = summarize(ten.stats.latency_ms);
      out.latency_ms = merge(out.latency_ms, ten.stats.latency_ms);
      in_slo += ten.stats.completed - ten.stats.slo_misses;
      out.tenants.push_back(std::move(ten.stats));
    }
    out.latency = summarize(out.latency_ms);
    stats_.goodput_rps =
        cfg_.duration.sec() > 0.0
            ? static_cast<double>(in_slo) / cfg_.duration.sec()
            : 0.0;
    stats_.makespan = SimTime::seconds(std::max(last_response_, 0.0));
    out.stats = stats_;
    return out;
  }

  ServeConfig cfg_;
  fault::FaultInjector* faults_;
  obs::MetricsRegistry& metrics_;
  std::vector<Tenant> tenants_;
  std::vector<Worker> workers_;
  std::vector<bool> alive_;
  std::optional<obs::ScenarioTelemetry> tel_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::uint64_t seq_ = 0;
  std::array<std::size_t, kRequestClasses> pending_{};
  std::array<std::size_t, kRequestClasses> rr_{};
  std::size_t busy_workers_ = 0;
  std::size_t grace_ticks_ = 6;
  double last_response_ = 0.0;
  ServeStats stats_;
};

}  // namespace

ServeResult run_serve(const ServeConfig& config) { return Sim(config).run(); }

std::vector<obs::AlertRule> serve_rules(double burn_threshold) {
  return {
      {obs::AlertRule::Kind::kSloBurn, "slo_burn", "mh_serve_slo_burn", "",
       burn_threshold, 2, 3},
  };
}

double capacity_rps(const ServeConfig& config) {
  // Arrival-weighted mean per-item cost at full batches.
  double weight_total = 0.0;
  double cost = 0.0;
  for (const TenantSpec& spec : config.tenants) {
    double mix_total = 0.0;
    for (double m : spec.mix) mix_total += std::max(m, 0.0);
    if (mix_total <= 0.0) mix_total = 1.0;
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
      const double w =
          spec.arrival_rps * std::max(spec.mix[c], 0.0) / mix_total;
      weight_total += w;
      cost += w * (config.batch_setup[c].sec() /
                       static_cast<double>(config.max_batch) +
                   config.per_item[c].sec());
    }
  }
  if (weight_total <= 0.0 || cost <= 0.0) return 0.0;
  return static_cast<double>(config.workers) * weight_total / cost;
}

ServeConfig default_serve_config(double load) {
  ServeConfig config;
  const char* names[] = {"alpha", "bravo", "charlie", "delta"};
  const double shares[] = {0.4, 0.3, 0.2, 0.1};
  const double weights[] = {4.0, 3.0, 2.0, 1.0};
  for (std::size_t t = 0; t < 4; ++t) {
    TenantSpec spec;
    spec.name = names[t];
    spec.weight = weights[t];
    spec.arrival_rps = shares[t];  // placeholder share; scaled below
    config.tenants.push_back(std::move(spec));
  }
  // Scale the shares to `load` x the full-batch capacity of this config
  // (capacity_rps only needs the mix, which is already final).
  ServeConfig probe = config;
  for (std::size_t t = 0; t < probe.tenants.size(); ++t) {
    probe.tenants[t].arrival_rps = shares[t] * 1000.0;
  }
  const double capacity = capacity_rps(probe);
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    TenantSpec& spec = config.tenants[t];
    spec.arrival_rps = shares[t] * load * capacity;
    // Admission provisioned above fair share: the saturation knee shows
    // queueing first, shedding caps the far side of the curve.
    spec.rate_rps = 1.25 * shares[t] * capacity;
    spec.burst = 2.0 * static_cast<double>(config.max_batch);
  }
  return config;
}

void apply_env_overrides(ServeConfig& config) {
  config.workers = std::max<std::size_t>(
      1, env_integer("MH_SERVE_WORKERS", config.workers));
  config.backend_ranks = std::max<std::size_t>(
      1, env_integer("MH_SERVE_RANKS", config.backend_ranks));
  config.max_batch = std::max<std::size_t>(
      1, env_integer("MH_SERVE_MAX_BATCH", config.max_batch));
  config.flush_window =
      SimTime::micros(env_number("MH_SERVE_WINDOW_US",
                                 config.flush_window.us()));
  config.deadline_margin =
      SimTime::micros(env_number("MH_SERVE_MARGIN_US",
                                 config.deadline_margin.us()));
  config.duration =
      SimTime::seconds(env_number("MH_SERVE_DURATION_S",
                                  config.duration.sec()));
  config.seed = env_integer("MH_SERVE_SEED", config.seed);
  const double slo_ms = env_number("MH_SERVE_SLO_MS", 0.0);
  const double load = env_number("MH_SERVE_LOAD", 0.0);
  for (TenantSpec& spec : config.tenants) {
    if (slo_ms > 0.0) spec.slo = SimTime::millis(slo_ms);
    if (load > 0.0) spec.arrival_rps *= load;
  }
  if (const char* policy = std::getenv("MH_SERVE_POLICY");
      policy != nullptr && *policy != '\0') {
    config.policy = std::string_view(policy) == "timer"
                        ? FlushPolicy::kTimer
                        : FlushPolicy::kDeadline;
  }
}

}  // namespace mh::serve
