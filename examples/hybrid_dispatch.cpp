// Runtime example: the paper's asynchronous batching engine (§II-A,
// Algorithms 3-6) driving a real Apply with real threads.
//
// Every (leaf, displacement) task is split into
//   preprocess  — enumerate the task and submit its compute input,
//   compute     — Formula 1, batched per kind and split CPU/"GPU"
//                 (the GPU side runs the fused-kernel code path on the
//                 host — this machine has no CUDA device),
//   postprocess — accumulate the contribution into the output tree.
// The result is verified against the one-call serial Apply.
#include <cmath>
#include <cstdio>
#include <mutex>

#include "apps/coulomb.hpp"
#include "fault/fault.hpp"
#include "mra/function.hpp"
#include "ops/apply.hpp"
#include "runtime/batching.hpp"

int main() {
  using namespace mh;

  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.5) / 0.12;
    return std::exp(-u * u);
  };
  mra::FunctionParams params;
  params.ndim = 1;
  params.k = 8;
  params.thresh = 1e-7;
  params.initial_level = 3;
  const mra::Function f = mra::Function::project(f_fn, params);
  const auto op = apps::make_smoothing_operator(1, params.k, 0.06,
                                                /*max_disp=*/16,
                                                /*screen_thresh=*/1e-8);

  // Reference: the serial Apply.
  const mra::Function reference = ops::apply(op, f);

  // The batched hybrid run.
  struct Input {
    const Tensor* source;
    int level;
    ops::Displacement disp;
    mra::Key target;
  };
  struct Output {
    mra::Key target;
    Tensor r;
  };

  using Engine = rt::BatchingEngine<Input, Output>;
  Engine::Config cfg;
  cfg.cpu_threads = 4;
  cfg.cpu_fraction = -1.0;  // auto-tune towards k* = n/(m+n)
  cfg.flush_interval = std::chrono::milliseconds(2);
  cfg.max_batch = 60;  // the paper's batch size
  Engine engine(cfg);

  mra::Function out(params);
  std::mutex out_mu;

  const rt::KindId kind = engine.register_kind(
      {// compute (CPU version): one task.
       [&](const Input& in) {
         return Output{in.target, ops::apply_task_compute(
                                      op, *in.source, in.level, in.disp)};
       },
       // compute (the "GPU" version): one aggregated batch — on real
       // hardware this is the custom fused kernel; here the same numerics
       // run through the fused-kernel code organization.
       [&](std::span<const Input> batch) {
         std::vector<Output> outs;
         outs.reserve(batch.size());
         for (const Input& in : batch) {
           outs.push_back({in.target, ops::apply_task_compute(
                                          op, *in.source, in.level, in.disp)});
         }
         return outs;
       },
       // postprocess: accumulate into the output tree.
       [&](Output&& o) {
         std::scoped_lock lock(out_mu);
         out.accumulate(o.target, o.r);
       },
       /*input_hash=*/params.k});

  // Preprocess: enumerate tasks and submit their compute inputs.
  const auto tasks = ops::make_apply_tasks(op, f);
  for (const ops::ApplyTask& task : tasks) {
    engine.submit(kind, Input{&f.leaf_coeffs(task.source),
                              task.source.level(), task.disp, task.target});
  }
  engine.wait();
  out.sum_down();

  const auto stats = engine.stats();
  std::printf("tasks submitted:   %zu\n", stats.submitted);
  std::printf("batches dispatched: %zu (max batch %zu)\n", stats.batches,
              stats.max_batch_seen);
  std::printf("split: %zu tasks on CPU threads, %zu on the GPU path\n",
              stats.cpu_items, stats.gpu_items);
  std::printf("flush triggers: %zu size, %zu timer, %zu explicit\n",
              stats.size_flushes, stats.timer_flushes,
              stats.explicit_flushes);
  std::printf("task kind hash: %016llx\n",
              static_cast<unsigned long long>(engine.kind_hash(kind)));

  // Under MH_FAULTS (the engine defaults to the process injector) the run
  // is a chaos drill; show what the resilience layer absorbed.
  if (fault::FaultInjector::global().armed()) {
    std::printf("faults armed (MH_FAULTS): %zu GPU batch failures, "
                "%zu retries, %zu items fell back to CPU\n",
                stats.gpu_failures, stats.gpu_retries,
                stats.gpu_fallback_items);
    std::printf("breaker: %zu opens, %zu closes\n", stats.breaker_opens,
                stats.breaker_closes);
  }

  // Verify against the serial Apply.
  double max_err = 0.0;
  for (double x = 0.05; x < 1.0; x += 0.05) {
    const double p[1] = {x};
    max_err = std::max(max_err, std::abs(out.eval(p) - reference.eval(p)));
  }
  const bool match = max_err < 1e-10;
  std::printf("max |batched - serial| over probes: %.3e %s\n", max_err,
              match ? "(bit-equivalent path: OK)" : "(MISMATCH!)");
  return match ? 0 : 1;
}
