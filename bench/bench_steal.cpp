// Extension experiment (not in the paper): dynamic load balancing via
// cross-rank work stealing, against the static process maps whose
// imbalance the paper names as its scaling limit ("the process map assigns
// more work to some of the nodes").
//
// Depth-skewed power-law subtree groups are placed by the hashed locality
// map at 4–64 simulated nodes; idle nodes then migrate whole groups off
// stragglers, paying the steal round trip plus the coefficient transfer in
// simulated time. Two victim policies run side by side: locality-biased
// (prefer groups whose DHT anchor the thief owns — those ship descriptors,
// not coefficients) and uniform random. Gated acceptance at the 16- and
// 64-node tiers: biased stealing beats the static locality map by >= 1.3x
// and never loses to the random-victim policy.
//
// Set MH_TRACE=<path> to export the 4-node hybrid steal run as a merged
// multi-rank Chrome trace (one TraceSession per simulated rank) for
// mh_trace_analyze --check.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_harness.hpp"
#include "common/diagnostics.hpp"
#include "dht/owner_map.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

namespace {

using namespace mh;
using namespace mh::bench;

// Per-group coefficient homes: distinct subtree anchors hashed onto ranks
// by a SubtreeOwnerMap. Seeded differently from the placement hash, so a
// group's home rank usually differs from where the work map put it — the
// gap the locality-biased steal policy exploits.
std::vector<std::size_t> group_homes(std::size_t ngroups, std::size_t nodes,
                                     std::uint64_t seed) {
  const int level = dht::anchor_level(ngroups, 3) + 1;
  const auto anchors = dht::subtree_anchors(ngroups, 3, level, seed);
  const dht::SubtreeOwnerMap map(nodes, level, seed + 1);
  return dht::owners_of(map, anchors);
}

// The 4-node hybrid steal run with one TraceSession per simulated rank,
// merged into a single Chrome trace, analyzed (and optionally written to
// MH_TRACE for the offline critical-path check in CI). Gates overlap
// efficiency at the default seed — steal/migrate spans must chain into
// their thief's causal timeline, not float as orphans.
void traced_multirank_point(Harness& h, const cluster::Workload& w,
                            cluster::ClusterConfig cfg,
                            const cluster::GroupMap& placement,
                            const std::vector<std::size_t>& homes,
                            bool gate) {
  const std::size_t nodes = cfg.nodes;
  std::vector<std::unique_ptr<obs::TraceSession>> sessions;
  for (std::size_t i = 0; i < nodes; ++i) {
    sessions.push_back(std::make_unique<obs::TraceSession>());
    cfg.node_traces.push_back(sessions.back().get());
  }
  // Honors MH_STEAL_VICTIM so a victim-policy change can be traced and
  // diffed (mh_trace_diff) against the checked-in baseline trace; the
  // default reproduces the baseline exactly.
  const auto dyn = cluster::run_cluster_apply_stealing(
      w, placement, homes, cfg, cluster::StealPolicy::from_env());
  if (!dyn.result.feasible) return;

  std::vector<obs::RankedSession> ranked;
  for (std::size_t i = 0; i < nodes; ++i) {
    ranked.push_back({"rank" + std::to_string(i), sessions[i].get()});
  }
  std::stringstream ss;
  obs::write_merged_chrome_trace(ss, ranked);
  obs::ReadTrace trace;
  std::string error;
  MH_CHECK(obs::read_chrome_trace(ss, &trace, &error),
           "merged steal trace must parse: " + error);
  const obs::TraceAnalysis a = obs::analyze_trace(trace);
  std::size_t steal_spans = 0;
  for (const obs::ReadSpan& s : trace.spans) {
    if (s.name == "steal" || s.name == "migrate") ++steal_spans;
  }
  std::cout << "\ntraced 4-node hybrid steal run: " << dyn.steals.steals
            << " migrations (" << steal_spans << " steal/migrate spans), "
            << "overlap efficiency " << fmt(a.overlap_efficiency, 3)
            << ", components " << a.connected_components << "\n";
  h.scalar("traced4_overlap_efficiency", a.overlap_efficiency, "",
           Direction::kHigherIsBetter, gate);

  if (const char* path = std::getenv("MH_TRACE");
      path != nullptr && *path != '\0') {
    std::ofstream out(path);
    if (out) {
      obs::write_merged_chrome_trace(out, ranked);
      print_footnote(std::string("trace: wrote merged steal run to ") +
                     path);
    } else {
      print_footnote(std::string("trace: could not write ") + path);
    }
  }
}

int run(int argc, char** argv) {
  Harness h("steal", argc, argv);
  print_header(
      "Work stealing (extension) — depth-skewed subtree groups, CPU-only "
      "nodes, locality-biased vs random-victim vs static");
  const std::uint64_t seed = h.seed_or(4242);
  // Gate only at the default seed: a --seed override changes the workload
  // itself, not the scheduler.
  const bool gate = seed == 4242;
  const std::size_t per_node = 1200;
  bool traced_point_done = false;

  TextTable t({"nodes", "static (s)", "imbal", "biased steal (s)", "speedup",
               "random steal (s)", "owned", "migrated MB"});
  struct GatedPoint {
    std::size_t nodes;
    double speedup, biased_s, random_s;
  };
  std::vector<GatedPoint> gated;
  for (const std::size_t nodes : {4u, 16u, 64u}) {
    if (h.quick() && nodes > 16) continue;
    const std::size_t tasks = per_node * nodes;
    const std::size_t ngroups = nodes * 8;
    cluster::Workload w = cluster::make_workload(
        "steal", gpu::ApplyTaskShape{3, 10, 100}, tasks, ngroups, 2.5, seed);

    auto cfg = apps::titan_config();
    cfg.nodes = nodes;
    cfg.mode = cluster::ComputeMode::kCpuOnly;

    const auto placement =
        cluster::locality_group_map(w.group_sizes, nodes, 17);
    const auto homes = group_homes(ngroups, nodes, seed);

    const RunSec st = run_cluster(w, placement.loads(w.group_sizes), cfg);
    cluster::StealPolicy biased;  // locality-biased is the default
    const auto dyn =
        cluster::run_cluster_apply_stealing(w, placement, homes, cfg, biased);
    cluster::StealPolicy random_pol;
    random_pol.victim = cluster::StealPolicy::Victim::kRandom;
    const auto rnd = cluster::run_cluster_apply_stealing(w, placement, homes,
                                                         cfg, random_pol);
    MH_CHECK(st.feasible && dyn.result.feasible && rnd.result.feasible,
             "CPU-only points must be feasible");
    MH_CHECK(!dyn.result.empty, "steal run must not be empty");

    const double biased_s = dyn.result.makespan.sec();
    const double random_s = rnd.result.makespan.sec();
    const double speedup = st.sec / biased_s;
    t.add_row({std::to_string(nodes), fmt(st, 2),
               fmt(cluster::imbalance(placement.loads(w.group_sizes)), 2) +
                   "x",
               fmt(biased_s, 2), fmt(speedup, 2) + "x", fmt(random_s, 2),
               std::to_string(dyn.steals.owned_steals) + "/" +
                   std::to_string(dyn.steals.steals),
               fmt(dyn.steals.migrated_bytes / 1e6, 1)});

    const std::string prefix = "nodes_" + std::to_string(nodes);
    h.scalar(prefix + "_static_s", st.sec, "s", Direction::kLowerIsBetter,
             gate);
    h.scalar(prefix + "_steal_biased_s", biased_s, "s",
             Direction::kLowerIsBetter, gate);
    h.scalar(prefix + "_steal_random_s", random_s, "s",
             Direction::kLowerIsBetter, gate);
    h.scalar(prefix + "_steal_speedup", speedup, "x",
             Direction::kHigherIsBetter, gate);
    // Migration volume is informative, not gated: policy tuning may move
    // it without being a regression.
    h.scalar(prefix + "_migrated_mb", dyn.steals.migrated_bytes / 1e6, "MB",
             Direction::kLowerIsBetter, false);

    if (gate && nodes >= 16) {
      gated.push_back({nodes, speedup, biased_s, random_s});
    }

    if (nodes == 4) {
      auto traced_cfg = cfg;
      traced_cfg.mode = cluster::ComputeMode::kHybrid;
      traced_cfg.cpu_compute_threads = 15;
      traced_multirank_point(h, w, traced_cfg, placement, homes, gate);
      traced_point_done = true;
    }
  }
  MH_CHECK(traced_point_done, "4-node traced point must run");
  t.print(std::cout);
  for (const GatedPoint& p : gated) {
    // Acceptance: on skewed workloads at 16+ nodes, locality-biased
    // stealing reclaims >= 1.3x of the static map's makespan and never
    // loses to random-victim selection.
    MH_CHECK(p.speedup >= 1.3,
             "biased stealing must beat the static locality map by 1.3x at " +
                 std::to_string(p.nodes) + " nodes");
    MH_CHECK(p.biased_s <= p.random_s * 1.001,
             "locality-biased must not lose to random-victim stealing at " +
                 std::to_string(p.nodes) + " nodes");
  }
  print_footnote(
      "static = the paper's hashed locality map (whole subtrees, no\n"
      "rebalancing); its imbalance column is the straggler the steal loop\n"
      "drains. biased steals prefer groups whose DHT anchor the thief\n"
      "owns (owned column: owned/total migrations) and pay only the\n"
      "descriptor bytes for them, so they match or beat random victims at\n"
      "every node count while moving less data.");
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
