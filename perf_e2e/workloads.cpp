#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numbers>
#include <set>
#include <span>
#include <thread>

#include "apps/coulomb.hpp"
#include "common/rng.hpp"
#include "dht/distributed_function.hpp"
#include "dht/owner_map.hpp"
#include "linalg/batch_gemm.hpp"
#include "runtime/batching.hpp"
#include "split.hpp"
#include "tensor/transform.hpp"
#include "world/world.hpp"
#include "world/world_apply.hpp"

namespace mh::perf {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  const std::chrono::duration<double> dt = Clock::now() - t0;
  return dt.count();
}

// --- inputs (seed 0 reproduces the two examples) ---------------------------

constexpr double kCoulombEps = 1e-3;
constexpr std::int64_t kCoulombMaxDisp = 2;
constexpr double kCoulombScreen = 1e-3;
constexpr double kRankTol = 1e-5;  // hybrid CPU side, as coulomb_smoothing

constexpr double kPacketWidth = 0.18;
constexpr double kStepWidth = 0.08;  // smoothing propagator width per step
constexpr std::int64_t kTdseMaxDisp = 2;
constexpr double kTdseScreen = 1e-4;
constexpr int kTdseSteps = 3;

constexpr std::size_t kWorldRanks = 2;
constexpr int kSubtreeLevel = 2;

// Probe tolerances (relative to the largest reference probe value).
// world_apply sums contributions in another order than ops::apply. The
// hybrid CPU side contracts rank-reduced blocks: an all-CPU split deviates
// by about 1.3e-6, so its bound is the rank-reduction tolerance itself.
constexpr double kProbeTol = 1e-12;
constexpr double kRankReducedProbeTol = kRankTol;

std::vector<apps::GaussianSite> coulomb_sites(std::uint64_t seed) {
  std::vector<apps::GaussianSite> sites;
  sites.push_back({{0.42, 0.5, 0.5}, 0.12, 1.0});
  sites.push_back({{0.62, 0.5, 0.5}, 0.08, 0.7});
  if (seed != 0) {
    Rng rng(seed);
    for (apps::GaussianSite& s : sites) {
      for (double& c : s.center) c += rng.uniform(-0.01, 0.01);
      s.width *= rng.uniform(0.98, 1.02);
    }
  }
  return sites;
}

mra::ScalarFn wave_packet(std::uint64_t seed) {
  std::array<double, 4> center{0.5, 0.5, 0.5, 0.5};
  if (seed != 0) {
    Rng rng(seed ^ 0x9ac4e7ULL);
    for (double& c : center) c += rng.uniform(-0.01, 0.01);
  }
  return [center](std::span<const double> x) {
    double r2 = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double u = (x[i] - center[i]) / kPacketWidth;
      r2 += u * u;
    }
    return std::exp(-r2);
  };
}

/// Values of `f` on a fixed probe grid (5^3 points in 3-D, 3^4 in 4-D).
std::vector<double> probe(const mra::Function& f) {
  const std::vector<double> coords =
      f.ndim() == 3 ? std::vector<double>{0.3, 0.42, 0.52, 0.62, 0.75}
                    : std::vector<double>{0.35, 0.5, 0.65};
  const std::size_t d = f.ndim();
  std::size_t points = 1;
  for (std::size_t i = 0; i < d; ++i) points *= coords.size();
  std::vector<double> values;
  values.reserve(points);
  std::vector<double> x(d);
  for (std::size_t p = 0; p < points; ++p) {
    std::size_t rest = p;
    for (std::size_t i = 0; i < d; ++i) {
      x[i] = coords[rest % coords.size()];
      rest /= coords.size();
    }
    values.push_back(f.eval(x));
  }
  return values;
}

bool bitwise_equal(const mra::Function& a, const mra::Function& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (const auto& [key, node] : a.nodes()) {
    const auto it = b.nodes().find(key);
    if (it == b.nodes().end()) return false;
    const Tensor& x = node.coeffs;
    const Tensor& y = it->second.coeffs;
    if (node.has_children != it->second.has_children ||
        x.size() != y.size() ||
        (x.size() != 0 &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

/// Compute every operator block (and reduced rank) an Apply of `f` reads,
/// so that timed operations only hit the cache.
void fill_block_cache(const ops::SeparatedConvolution& op,
                      const mra::Function& f, const ops::ApplyOptions& opts) {
  std::set<int> levels;
  for (const mra::Key& key : f.leaf_keys()) levels.insert(key.level());
  const std::int64_t cap = op.params().max_disp;
  for (const int n : levels) {
    op.displacements(n);
    for (std::size_t mu = 0; mu < op.rank(); ++mu) {
      for (std::int64_t m = -cap; m <= cap; ++m) {
        op.h_block(mu, n, m);
        if (opts.rank_reduce) op.reduced_rank(mu, n, m, opts.rank_tol);
      }
    }
  }
}

}  // namespace

/// Call counts the traced pass takes at layer call sites (incremented once
/// per task, from whichever thread ran it).
struct LayerCounts {
  std::atomic<std::size_t> lookups{0};      ///< h_block + reduced_rank calls
  std::atomic<std::size_t> accumulates{0};  ///< Function::accumulate calls
};

/// Everything one traced operation records: a span log per thread that
/// runs layer calls, the call counts, and the running task index.
struct TracedPass {
  explicit TracedPass(obs::TraceSession& s)
      : session(s), main(s), cpu(s), gpu(s) {}
  obs::TraceSession& session;
  SpanLog main;  ///< the driving thread
  SpanLog cpu;   ///< coulomb_hybrid: the CPU-pool thread
  SpanLog gpu;   ///< coulomb_hybrid: the GPU-driver thread
  LayerCounts counts;
  std::size_t tasks = 0;  ///< tasks started so far (task index base)
};

namespace {

/// ops::apply_task_compute written out through the public calls it makes:
/// the operand gather (ops.lookup) and the fused GEMM chain (linalg.gemm).
/// Same operations in the same order, so the result is bitwise equal.
Tensor replay_task(const ops::SeparatedConvolution& op, const Tensor& source,
                   int level, const ops::Displacement& disp,
                   const ops::ApplyOptions& opts, ops::ApplyStats& stats,
                   LayerCounts& counts, TaskPhases& phases) {
  const std::size_t d = op.params().ndim;
  const std::size_t k = op.params().k;
  const std::size_t rank = op.rank();
  const double rr_tol = opts.rank_tol > 0.0 ? opts.rank_tol
                                            : op.params().thresh;
  thread_local std::vector<std::shared_ptr<const Tensor>> blocks;
  thread_local std::vector<MatrixView> mats;
  thread_local std::vector<double> coeffs;
  thread_local std::vector<std::size_t> kreds;
  blocks.clear();
  mats.clear();
  coeffs.clear();
  kreds.clear();
  for (std::size_t mu = 0; mu < rank; ++mu) {
    std::size_t kred = k;
    for (std::size_t dim = 0; dim < d; ++dim) {
      blocks.push_back(op.h_block(mu, level, disp[dim]));
      mats.push_back(MatrixView(*blocks.back()));
      if (opts.rank_reduce) {
        kred = std::min(kred, op.reduced_rank(mu, level, disp[dim], rr_tol));
      }
    }
    coeffs.push_back(op.term_coeff(mu));
    kreds.push_back(opts.rank_reduce ? kred : k);
    stats.gemms += d;
    stats.flops += transform_flops(d, k);
    if (opts.rank_reduce && kred < k) stats.rank_reduced_gemms += d;
  }
  counts.lookups += rank * d * (opts.rank_reduce ? 2 : 1);
  phases.end("ops.lookup", kOpsLayer);
  Tensor result = Tensor::cube(d, k);
  fused_apply_accumulate(source, {mats.data(), mats.size()},
                         {coeffs.data(), coeffs.size()},
                         opts.rank_reduce
                             ? std::span<const std::size_t>{kreds.data(),
                                                            kreds.size()}
                             : std::span<const std::size_t>{},
                         result);
  ++stats.tasks;
  phases.end("linalg.gemm", kLinalgLayer);
  return result;
}

/// ops::apply replayed call by call in its order: make_apply_tasks, per
/// task the operand gather (source leaf and M*d operator blocks),
/// fused_apply_accumulate and accumulate, then sum_down.
mra::Function replay_apply(const ops::SeparatedConvolution& op,
                           const mra::Function& f, ops::ApplyStats& stats,
                           TracedPass& pass) {
  std::vector<ops::ApplyTask> tasks;
  {
    obs::ScopedSpan span(&pass.session, "ops.enumerate", kOpsLayer);
    tasks = ops::make_apply_tasks(op, f);
  }
  mra::Function out(f.params());
  {
    obs::ScopedSpan span(&pass.session, "mra.accumulate", kMraLayer);
    out.accumulate(mra::Key::root(f.ndim()), Tensor::cube(f.ndim(), f.k()));
  }
  for (const ops::ApplyTask& task : tasks) {
    TaskPhases phases(&pass.main, pass.tasks++);
    const Tensor r =
        replay_task(op, f.leaf_coeffs(task.source), task.source.level(),
                    task.disp, {}, stats, pass.counts, phases);
    out.accumulate(task.target, r);
    phases.end("mra.accumulate", kMraLayer);
  }
  pass.counts.accumulates += tasks.size() + 1;
  obs::ScopedSpan span(&pass.session, "mra.sum_down", kMraLayer);
  out.sum_down();
  return out;
}

double imbalance(const std::vector<std::size_t>& loads) {
  if (loads.empty()) return 0.0;
  double sum = 0.0;
  double hi = 0.0;
  for (const std::size_t l : loads) {
    sum += static_cast<double>(l);
    hi = std::max(hi, static_cast<double>(l));
  }
  return sum > 0.0 ? hi * static_cast<double>(loads.size()) / sum : 0.0;
}

}  // namespace

// --- coulomb_hybrid: Apply through the batching runtime ---------------------

/// One Apply split into preprocess (enumerate + submit), compute (batched
/// per kind; CPU side rank-reduced apply_task_compute, "GPU" side one
/// batch_fused_apply per batch at full rank) and postprocess (accumulate).
class HybridApply {
 public:
  HybridApply(const ops::SeparatedConvolution& op, ops::ApplyOptions cpu_opts)
      : op_(op), cpu_opts_(cpu_opts), engine_(engine_config()) {
    for (std::size_t mu = 0; mu < op_.rank(); ++mu) {
      coeffs_.push_back(op_.term_coeff(mu));
    }
    kind_ = engine_.register_kind(
        {[this](const Input& in) { return compute_cpu(in); },
         [this](std::span<const Input> batch) { return compute_gpu(batch); },
         [this](Output&& out) { postprocess(std::move(out)); },
         /*input_hash=*/op_.params().k});
  }

  HybridApply(const HybridApply&) = delete;
  HybridApply& operator=(const HybridApply&) = delete;

  /// One Apply of f. With `pass` set, the kind lambdas replay their layer
  /// calls into the pass's per-thread span logs.
  OpOut run(const mra::Function& f, TracedPass* pass) {
    pass_ = pass;
    obs::TraceSession* trace = pass != nullptr ? &pass->session : nullptr;
    cpu_stats_ = {};
    gpu_stats_ = {};
    mra::Function out(f.params());
    out.accumulate(mra::Key::root(f.ndim()), Tensor::cube(f.ndim(), f.k()));
    {
      std::scoped_lock lock(out_mu_);
      out_ = &out;
    }
    std::vector<ops::ApplyTask> tasks;
    {
      obs::ScopedSpan span(trace, "ops.enumerate", kOpsLayer);
      tasks = ops::make_apply_tasks(op_, f);
    }
    const std::size_t task_base = pass != nullptr ? pass->tasks : 0;
    if (pass != nullptr) pass->tasks += tasks.size();
    {
      obs::ScopedSpan span(trace, "runtime.submit", kRuntimeLayer);
      const std::size_t done0 = engine_.stats().completed;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        // Windowed client: without it the whole Apply is pending at once
        // and a size flush ships thousands of items in one batch, so batch
        // sizes and peak memory change from run to run.
        while (i % kWindowCheck == 0 &&
               i - (engine_.stats().completed - done0) >= kMaxInFlight) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        const ops::ApplyTask& task = tasks[i];
        engine_.submit(kind_, Input{&f.leaf_coeffs(task.source),
                                    task.source.level(), task.disp,
                                    task.target, task_base + i});
      }
    }
    {
      obs::ScopedSpan span(trace, "runtime.drain", kRuntimeLayer);
      engine_.wait();
    }
    {
      std::scoped_lock lock(out_mu_);
      out_ = nullptr;
    }
    {
      obs::ScopedSpan span(trace, "mra.sum_down", kMraLayer);
      out.sum_down();
    }
    ops::ApplyStats total = cpu_stats_;
    total.tasks += gpu_stats_.tasks;
    total.gemms += gpu_stats_.gemms;
    total.flops += gpu_stats_.flops;
    total.rank_reduced_gemms += gpu_stats_.rank_reduced_gemms;
    pass_ = nullptr;
    OpOut result;
    result.out = std::move(out);
    result.steps.push_back(total);
    return result;
  }

  auto engine_stats() const { return engine_.stats(); }

 private:
  struct Input {
    const Tensor* source = nullptr;
    int level = 0;
    ops::Displacement disp{};
    mra::Key target;
    std::size_t task = 0;  ///< index in the traced pass
  };
  struct Output {
    mra::Key target;
    Tensor r;
    std::size_t task = kNoTask;
  };
  using Engine = rt::BatchingEngine<Input, Output>;

  static constexpr std::size_t kMaxInFlight = 2048;  ///< submitted, not done
  static constexpr std::size_t kWindowCheck = 64;    ///< submits per check

  static Engine::Config engine_config() {
    Engine::Config cfg;
    cfg.cpu_threads = 1;
    cfg.cpu_fraction = -1.0;  // auto-tune towards k* = n/(m+n)
    cfg.flush_interval = std::chrono::milliseconds(2);
    cfg.max_batch = 60;  // the paper's batch size
    return cfg;
  }

  // Runs on the single CPU-pool thread only.
  Output compute_cpu(const Input& in) {
    if (pass_ == nullptr) {
      return {in.target,
              ops::apply_task_compute(op_, *in.source, in.level, in.disp,
                                      cpu_opts_, &cpu_stats_)};
    }
    TaskPhases phases(&pass_->cpu, in.task);
    return {in.target,
            replay_task(op_, *in.source, in.level, in.disp, cpu_opts_,
                        cpu_stats_, pass_->counts, phases),
            in.task};
  }

  // Runs on the GPU-driver thread only.
  std::vector<Output> compute_gpu(std::span<const Input> batch) {
    const std::size_t d = op_.params().ndim;
    const std::size_t k = op_.params().k;
    const std::size_t per_item = op_.rank() * d;
    TaskPhases phases(pass_ != nullptr ? &pass_->gpu : nullptr, kNoTask);
    std::vector<std::shared_ptr<const Tensor>> blocks;
    std::vector<linalg::GemmMat> mats;
    blocks.reserve(batch.size() * per_item);
    mats.reserve(batch.size() * per_item);
    for (const Input& in : batch) {
      for (std::size_t mu = 0; mu < op_.rank(); ++mu) {
        for (std::size_t dim = 0; dim < d; ++dim) {
          blocks.push_back(op_.h_block(mu, in.level, in.disp[dim]));
          mats.push_back({blocks.back()->data(), k, k});
        }
      }
    }
    if (pass_ != nullptr) pass_->counts.lookups += batch.size() * per_item;
    phases.end("ops.lookup", kOpsLayer);
    std::vector<Output> outs;
    outs.reserve(batch.size());
    std::vector<linalg::FusedApplyItem> items;
    items.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      outs.push_back({batch[i].target, Tensor::cube(d, k), batch[i].task});
      items.push_back({batch[i].source->data(),
                       {mats.data() + i * per_item, per_item},
                       {coeffs_.data(), coeffs_.size()},
                       {},
                       outs.back().r.data()});
    }
    linalg::batch_fused_apply(d, k, items, linalg::thread_workspace());
    gpu_stats_.tasks += batch.size();
    gpu_stats_.gemms += batch.size() * per_item;
    gpu_stats_.flops += static_cast<double>(batch.size() * op_.rank()) *
                        transform_flops(d, k);
    phases.end("linalg.gemm", kLinalgLayer);
    return outs;
  }

  // Postprocess runs on the CPU pool.
  void postprocess(Output&& o) {
    TaskPhases phases(pass_ != nullptr ? &pass_->cpu : nullptr, o.task);
    {
      std::scoped_lock lock(out_mu_);
      out_->accumulate(o.target, o.r);
    }
    if (pass_ != nullptr) ++pass_->counts.accumulates;
    phases.end("mra.accumulate", kMraLayer);
  }

  const ops::SeparatedConvolution& op_;
  const ops::ApplyOptions cpu_opts_;
  std::vector<double> coeffs_;
  // Set by run() while the engine is idle; read by the kind lambdas.
  TracedPass* pass_ = nullptr;
  ops::ApplyStats cpu_stats_;  // CPU-pool thread only
  ops::ApplyStats gpu_stats_;  // GPU-driver thread only
  std::mutex out_mu_;
  mra::Function* out_ = nullptr;  // guarded by out_mu_
  // Last: the engine's threads call back into the members above.
  Engine engine_;
  rt::KindId kind_ = 0;
};

// --- Workload -----------------------------------------------------------------

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  if (name == "coulomb_d3") return WorkloadKind::kCoulombD3;
  if (name == "tdse_d4") return WorkloadKind::kTdseD4;
  if (name == "coulomb_world2") return WorkloadKind::kCoulombWorld2;
  if (name == "coulomb_hybrid") return WorkloadKind::kCoulombHybrid;
  return std::nullopt;
}

Workload::Workload(WorkloadKind kind, std::uint64_t seed) : kind_(kind) {
  if (kind_ == WorkloadKind::kTdseD4) {
    fp_.ndim = 4;
    fp_.k = 10;
    fp_.thresh = 5e-4;
    fp_.initial_level = 1;
    fp_.max_level = 2;
    input_fn_ = wave_packet(seed);
  } else {
    fp_.ndim = 3;
    fp_.k = 5;
    fp_.thresh = 5e-4;
    fp_.initial_level = 1;
    fp_.max_level = 5;
    input_fn_ = apps::gaussian_mixture(coulomb_sites(seed));
  }
  if (kind_ == WorkloadKind::kCoulombHybrid) {
    cpu_opts_.rank_reduce = true;
    cpu_opts_.rank_tol = kRankTol;
  }
}

Workload::~Workload() = default;

SetupTimes Workload::setup(bool keep) {
  SetupTimes times;
  const auto t0 = Clock::now();
  mra::Function input = mra::Function::project(input_fn_, fp_);
  times.project_s = seconds_since(t0);
  std::unique_ptr<ops::SeparatedConvolution> op;
  if (kind_ == WorkloadKind::kTdseD4) {
    op.reset(new ops::SeparatedConvolution(apps::make_smoothing_operator(
        fp_.ndim, fp_.k, kStepWidth, kTdseMaxDisp, kTdseScreen)));
  } else {
    op.reset(new ops::SeparatedConvolution(apps::make_coulomb_operator(
        fp_.ndim, fp_.k, kCoulombEps, kCoulombMaxDisp, kCoulombScreen)));
  }
  fill_block_cache(*op, input, cpu_opts_);
  std::unique_ptr<dht::SubtreeOwnerMap> owners;
  std::unique_ptr<dht::DistributedFunction> scattered;
  std::unique_ptr<world::World> world;
  if (kind_ == WorkloadKind::kCoulombWorld2) {
    const auto ts = Clock::now();
    owners = std::make_unique<dht::SubtreeOwnerMap>(kWorldRanks,
                                                    kSubtreeLevel);
    scattered = std::make_unique<dht::DistributedFunction>(input, *owners);
    times.scatter_s = seconds_since(ts);
    world = std::make_unique<world::World>(kWorldRanks);
  }
  times.total_s = seconds_since(t0);
  if (keep) {
    // Users of the old state go first: the engine and World threads.
    hybrid_.reset();
    world_ = std::move(world);
    scattered_ = std::move(scattered);
    owners_ = std::move(owners);
    op_ = std::move(op);
    input_ = std::move(input);
  }
  return times;
}

void Workload::prepare() {
  // The serial full-rank reference (tdse_d4: all three steps).
  ref_ = serial(nullptr);
  ref_probes_ = probe(ref_.out);

  if (kind_ == WorkloadKind::kCoulombHybrid) {
    hybrid_ = std::make_unique<HybridApply>(*op_, cpu_opts_);
  }
  // Warm-up: thread start-up, workspaces, and (hybrid) the split's rates.
  if (kind_ == WorkloadKind::kCoulombWorld2 ||
      kind_ == WorkloadKind::kCoulombHybrid) {
    run();
  }
}

OpOut Workload::serial(TracedPass* pass) const {
  const bool tdse = kind_ == WorkloadKind::kTdseD4;
  const double step_mass =
      std::pow(std::sqrt(std::numbers::pi) * kStepWidth, 4.0);
  OpOut result;
  const mra::Function* psi = &input_;
  for (int step = 0; step < (tdse ? kTdseSteps : 1); ++step) {
    ops::ApplyStats stats;
    result.out = pass != nullptr ? replay_apply(*op_, *psi, stats, *pass)
                                 : ops::apply(*op_, *psi, {}, &stats);
    result.steps.push_back(stats);
    if (tdse) {
      // Unit-mass propagator normalization, as examples/tdse_mini.
      obs::ScopedSpan span(pass != nullptr ? &pass->session : nullptr,
                           "mra.scale", kMraLayer);
      result.out.scale(1.0 / step_mass);
      result.mass.push_back(result.out.integral());
    }
    psi = &result.out;
  }
  return result;
}

OpOut Workload::run(TracedPass* pass) {
  OpOut result;
  switch (kind_) {
    case WorkloadKind::kCoulombD3:
    case WorkloadKind::kTdseD4:
      result = serial(pass);
      break;
    case WorkloadKind::kCoulombWorld2: {
      // world_apply cannot be opened from outside: one opaque row.
      ops::ApplyStats stats;
      obs::ScopedSpan span(pass != nullptr ? &pass->session : nullptr,
                           "world.apply", kWorldLayer);
      result.out = world::world_apply(*world_, *op_, *scattered_, &stats);
      result.steps.push_back(stats);
      break;
    }
    case WorkloadKind::kCoulombHybrid:
      result = hybrid_->run(input_, pass);
      break;
  }
  return result;
}

bool Workload::check(const OpOut& op, std::string* why) const {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (op.steps.size() != ref_.steps.size()) return fail("step count");
  for (std::size_t i = 0; i < op.steps.size(); ++i) {
    const ops::ApplyStats& a = op.steps[i];
    const ops::ApplyStats& b = ref_.steps[i];
    if (a.tasks != b.tasks || a.gemms != b.gemms || a.flops != b.flops) {
      return fail("ApplyStats counts differ from the reference");
    }
  }
  if (op.mass != ref_.mass) return fail("mass differs from the reference");
  const std::vector<double> values = probe(op.out);
  double scale = 0.0;
  for (const double v : ref_probes_) scale = std::max(scale, std::abs(v));
  const double tol = kind_ == WorkloadKind::kTdseD4 ? 0.0
                     : kind_ == WorkloadKind::kCoulombHybrid
                         ? kRankReducedProbeTol
                         : kProbeTol;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!(std::abs(values[i] - ref_probes_[i]) <= tol * scale)) {
      return fail("probe " + std::to_string(i) + " off by " +
                  std::to_string(std::abs(values[i] - ref_probes_[i]) /
                                 scale) +
                  " relative");
    }
  }
  return true;
}

bool Workload::traced(obs::TraceSession& session,
                      std::map<std::string, double>& layer,
                      std::string* why) {
  TracedPass pass(session);
  const ops::CacheStats cache0 = op_->cache_stats();
  world::World::Stats world0;
  if (world_ != nullptr) world0 = world_->stats();
  decltype(hybrid_->engine_stats()) engine0;
  if (hybrid_ != nullptr) engine0 = hybrid_->engine_stats();

  OpOut result;
  std::uint64_t root_id = 0;
  {
    obs::ScopedSpan root(&session, "apply", kRootSpan);
    root_id = root.id();
    result = run(&pass);
  }
  std::vector<std::uint64_t> task_ids(pass.tasks, 0);
  pass.main.flush({}, root_id, session.thread_track(), task_ids);
  // coulomb_hybrid: worker-thread calls nest in the driving thread's span
  // they ran under (runtime.submit or runtime.drain), whose self time is
  // then runtime time that no worker layer call covers.
  std::vector<SpanLog::Parent> driving;
  for (const obs::Span& s : session.snapshot()) {
    if (s.parent == root_id) driving.push_back({s.id, s.start_us, s.end_us()});
  }
  std::sort(driving.begin(), driving.end(),
            [](const SpanLog::Parent& a, const SpanLog::Parent& b) {
              return a.start_us < b.start_us;
            });
  pass.cpu.flush(driving, root_id,
                 session.track(obs::ClockDomain::kWall, "cpu-pool"), task_ids);
  pass.gpu.flush(driving, root_id,
                 session.track(obs::ClockDomain::kWall, "gpu-driver"),
                 task_ids);
  const LayerSplit split = split_spans(session.snapshot(), "apply");

  bool ok = check(result, why);
  if (ok && (kind_ == WorkloadKind::kCoulombD3 ||
             kind_ == WorkloadKind::kTdseD4) &&
      !bitwise_equal(result.out, ref_.out)) {
    if (why != nullptr) *why = "traced replay is not bitwise equal to apply";
    ok = false;
  }

  ops::ApplyStats total;
  for (const ops::ApplyStats& s : result.steps) {
    total.tasks += s.tasks;
    total.gemms += s.gemms;
    total.flops += s.flops;
    total.rank_reduced_gemms += s.rank_reduced_gemms;
  }
  const ops::CacheStats cache1 = op_->cache_stats();
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);

  layer["trace.apply_s"] = split.total_s;
  layer["split.unattributed"] = split.unattributed;
  layer["split.overlap"] = split.overlap;
  layer["ops.enumerate_s"] = split.row("ops.enumerate");
  layer["ops.lookup_s"] = split.row("ops.lookup");
  layer["ops.lookups"] = static_cast<double>(pass.counts.lookups.load());
  layer["ops.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses)
                                                   : 0.0;
  layer["ops.rank_reduced_gemms"] =
      static_cast<double>(total.rank_reduced_gemms);
  layer["linalg.gemm_s"] = split.row("linalg.gemm");
  layer["linalg.flops"] = total.flops;
  layer["linalg.gflops"] = split.row("linalg.gemm") > 0.0
                               ? total.flops / split.row("linalg.gemm") / 1e9
                               : 0.0;
  layer["mra.accumulate_s"] = split.row("mra.accumulate");
  layer["mra.accumulates"] =
      static_cast<double>(pass.counts.accumulates.load());
  layer["mra.sum_down_s"] = split.row("mra.sum_down");
  layer["mra.scale_s"] = split.row("mra.scale");
  layer["mra.out_leaves"] = static_cast<double>(result.out.num_leaves());
  layer["runtime.submit_s"] = split.row("runtime.submit");
  layer["runtime.drain_s"] = split.row("runtime.drain");
  layer["world.apply_s"] = split.row("world.apply");
  if (world_ != nullptr) {
    const world::World::Stats w = world_->stats();
    layer["world.messages"] = static_cast<double>(w.messages - world0.messages);
    layer["world.bytes"] = w.bytes - world0.bytes;
    layer["world.send_retries"] =
        static_cast<double>(w.send_retries - world0.send_retries);
    layer["dht.load_imbalance"] = imbalance(scattered_->apply_loads(*op_));
  }
  if (hybrid_ != nullptr) {
    const auto e = hybrid_->engine_stats();
    const double batches = static_cast<double>(e.batches - engine0.batches);
    const double cpu = static_cast<double>(e.cpu_items - engine0.cpu_items);
    const double gpu = static_cast<double>(e.gpu_items - engine0.gpu_items);
    layer["runtime.batches"] = batches;
    layer["runtime.items_per_batch"] =
        batches > 0.0
            ? static_cast<double>(e.submitted - engine0.submitted) / batches
            : 0.0;
    layer["runtime.cpu_share"] = cpu + gpu > 0.0 ? cpu / (cpu + gpu) : 0.0;
    layer["runtime.timer_flushes"] =
        static_cast<double>(e.timer_flushes - engine0.timer_flushes);
    layer["runtime.gpu_fallback_items"] =
        static_cast<double>(e.gpu_fallback_items - engine0.gpu_fallback_items);
  }
  return ok;
}

std::map<std::string, double> Workload::sizes() const {
  double tasks = 0.0;
  double gemms = 0.0;
  double flops = 0.0;
  for (const ops::ApplyStats& s : ref_.steps) {
    tasks += static_cast<double>(s.tasks);
    gemms += static_cast<double>(s.gemms);
    flops += s.flops;
  }
  return {{"input.d", static_cast<double>(fp_.ndim)},
          {"input.k", static_cast<double>(fp_.k)},
          {"input.M", static_cast<double>(op_->rank())},
          {"input.leaves", static_cast<double>(input_.num_leaves())},
          {"ops.tasks", tasks},
          {"ops.gemms", gemms},
          {"ops.gflop", flops / 1e9}};
}

}  // namespace mh::perf
