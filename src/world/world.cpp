#include "world/world.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/diagnostics.hpp"

namespace mh::world {
namespace {
// Remote-send resilience: re-attempts after the first failure, and their
// backoff (1 ms doubling to a 20 ms cap, jitter from a fixed seed).
constexpr std::size_t kSendMaxRetries = 3;
constexpr double kSendBackoffMs = 1.0;
constexpr double kSendBackoffMaxMs = 20.0;
constexpr std::uint64_t kSendSeed = 0x5eedULL;
}  // namespace

World::World(std::size_t ranks)
    : metrics_(obs::MetricsRegistry::global()),
      m_tasks_(metrics_.counter("mh_world_tasks_total",
                                "tasks and AM handlers executed")),
      m_send_retries_(metrics_.counter(
          "mh_world_send_retries_total",
          "remote sends re-attempted after an injected failure")),
      m_send_failures_(metrics_.counter(
          "mh_world_send_failures_total",
          "remote sends dropped after exhausting retries")),
      m_dead_ranks_(metrics_.gauge("mh_world_dead_ranks",
                                   "ranks declared permanently dead")),
      faults_(fault::FaultInjector::global()),
      send_rng_(kSendSeed),
      rank_dead_(ranks, false) {
  MH_CHECK(ranks >= 1, "world needs at least one rank");
  pools_.reserve(ranks);
  m_rank_messages_.reserve(ranks);
  m_rank_bytes_.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    // Named pool: each rank's single worker labels its trace track
    // "rank<r>/0" so World tasks land on per-rank timelines.
    pools_.push_back(
        std::make_unique<rt::ThreadPool>(1, "rank" + std::to_string(r)));
    const obs::Labels labels{{"rank", std::to_string(r)}};
    m_rank_messages_.push_back(&metrics_.counter(
        "mh_world_messages_total",
        "remote active messages delivered to the rank", labels));
    m_rank_bytes_.push_back(&metrics_.counter(
        "mh_world_bytes_total",
        "payload bytes of remote active messages delivered to the rank",
        labels));
  }
}

World::~World() {
  try {
    fence();
  } catch (...) {
    // Errors were observable through fence(); the destructor must not throw.
  }
}

void World::enqueue(std::size_t rank, std::function<void()> fn,
                    const char* span_name, obs::Category cat) {
  MH_CHECK(rank < pools_.size(), "rank out of range");
  MH_CHECK(fn != nullptr, "null task");
  {
    std::scoped_lock lock(mu_);
    ++outstanding_;
  }
  // Capture the session at enqueue time so a task cannot record into a
  // session installed after it was queued (and torn down before it runs).
  // The sender's causal context rides along in the closure — the simulated
  // message header — so the handler's span chains to its producer even
  // across a rank hop.
  obs::TraceSession* trace = obs::TraceSession::current();
  const obs::TraceContext ctx = obs::current_context();
  pools_[rank]->submit(
      [this, fn = std::move(fn), trace, span_name, cat, ctx] {
        try {
          obs::ScopedContext provenance(ctx);
          obs::ScopedSpan span(trace, span_name, cat);
          fn();
        } catch (...) {
          std::scoped_lock lock(mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
        complete_one();
      });
}

void World::complete_one() {
  m_tasks_.inc();
  std::scoped_lock lock(mu_);
  ++stats_.tasks;
  MH_CHECK(outstanding_ > 0, "completion underflow");
  if (--outstanding_ == 0) quiescent_.notify_all();
}

void World::submit(std::size_t rank, std::function<void()> task) {
  enqueue(rank, std::move(task), "task", obs::Category::kCpuCompute);
}

std::vector<std::size_t> World::dead_ranks() const {
  std::scoped_lock lock(mu_);
  std::vector<std::size_t> dead;
  for (std::size_t r = 0; r < rank_dead_.size(); ++r) {
    if (rank_dead_[r]) dead.push_back(r);
  }
  return dead;
}

bool World::rank_alive(std::size_t rank) const {
  MH_CHECK(rank < pools_.size(), "rank out of range");
  std::scoped_lock lock(mu_);
  return !rank_dead_[rank];
}

void World::send(std::size_t from, std::size_t to, double bytes,
                 std::function<void()> handler) {
  MH_CHECK(from < pools_.size(), "source rank out of range");
  MH_CHECK(to < pools_.size(), "destination rank out of range");
  MH_CHECK(bytes >= 0.0, "negative payload");
  if (from != to) {
    // Remote path: the send itself can fail. Retry with backoff on the
    // sending thread (a blocked sender is how a real AM layer behaves);
    // exhausting the retries declares the destination dead.
    {
      std::scoped_lock lock(mu_);
      if (rank_dead_[to]) {
        ++stats_.send_failures;
        m_send_failures_.inc();
        if (!first_error_) {
          first_error_ = std::make_exception_ptr(fault::FaultError(
              fault::ErrorCode::kRankDead,
              "send to dead rank " + std::to_string(to)));
        }
        return;
      }
    }
    for (std::size_t attempt = 0;
         faults_.armed(fault::FaultSite::kSend) &&
         faults_.should_fail(fault::FaultSite::kSend);
         ++attempt) {
      if (attempt >= kSendMaxRetries) {
        // Permanently dead: drop the handler, record the typed error for
        // fence(), and report the rank through dead_ranks()/metrics.
        std::scoped_lock lock(mu_);
        if (!rank_dead_[to]) {
          rank_dead_[to] = true;
          double dead = 0.0;
          for (const bool d : rank_dead_) dead += d ? 1.0 : 0.0;
          m_dead_ranks_.set(dead);
        }
        ++stats_.send_failures;
        m_send_failures_.inc();
        if (!first_error_) {
          first_error_ = std::make_exception_ptr(fault::FaultError(
              fault::ErrorCode::kRankDead,
              "rank " + std::to_string(to) + " declared dead: send failed " +
                  std::to_string(attempt + 1) + " time(s)"));
        }
        return;
      }
      double delay_ms = 0.0;
      {
        std::scoped_lock lock(mu_);
        ++stats_.send_retries;
        delay_ms = fault::backoff_ms(kSendBackoffMs, kSendBackoffMaxMs,
                                     attempt, send_rng_);
      }
      m_send_retries_.inc();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
    m_rank_messages_[to]->inc();
    m_rank_bytes_[to]->inc(bytes);
    {
      std::scoped_lock lock(mu_);
      ++stats_.messages;
      stats_.bytes += bytes;
    }
    // The send span is the causal link the wire crossing hangs off: the
    // remote handler's "am" span chains to it (enqueue captures the
    // ambient context while this span is live).
    obs::ScopedSpan send_span(obs::TraceSession::current(), "send",
                              obs::Category::kComm,
                              {{"bytes", bytes},
                               {"to", static_cast<double>(to)}});
    enqueue(to, std::move(handler), "am", obs::Category::kComm);
    return;
  }
  enqueue(to, std::move(handler), "task", obs::Category::kCpuCompute);
}

void World::fence() {
  std::unique_lock lock(mu_);
  quiescent_.wait(lock, [this] { return outstanding_ == 0; });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

World::Stats World::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace mh::world
