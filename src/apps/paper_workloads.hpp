// Workload descriptors and reference values for every experiment in the
// paper's §III. Each bench binary pulls its setup from here so that all
// calibration lives in one translation unit (see DESIGN.md §5).
//
// Where the paper states a task count (Table IV: 154,468; Table VI:
// 542,113) we use it verbatim. Where it does not, the count is calibrated
// so an anchor row of the table lands near the published time; the `terms`
// field of the shape likewise folds the per-kernel multiplication count
// ("hundreds of small matrices per kernel") calibrated per experiment.
// EXPERIMENTS.md records which rows are anchors and which are predictions.
#pragma once

#include <cstddef>
#include <vector>

#include "clustersim/cluster.hpp"
#include "clustersim/workload.hpp"

namespace mh::apps {

/// The runtime configuration used by all table benches: the default
/// cluster configuration (Titan nodes of 16-core Interlagos + M2090,
/// batches of 60 compute tasks, 16 CPU threads, 6 CUDA streams; the model
/// constants per DESIGN.md §5) with cuBLAS-like batches booked as one
/// analytic span each.
cluster::ClusterConfig titan_config();

/// Paper reference numbers for one table row (negative = not reported).
struct PaperRow {
  double value1 = -1.0;
  double value2 = -1.0;
  double value3 = -1.0;
  double value4 = -1.0;
  double value5 = -1.0;
};

// --- Table I: Coulomb d=3, k=10, eps=1e-8; single node; thread/stream
// scale-up. Count calibrated to the 1-thread CPU row (132.5 s).
cluster::Workload table1_workload();

// --- Table II: Coulomb d=3, k=20, eps=1e-10; single node, cuBLAS regime.
// Count calibrated to the 16-thread CPU row (173.3 s).
cluster::Workload table2_workload();

// --- Table III: Coulomb d=3, k=10, eps=1e-10; 2-16 nodes, even map,
// custom vs cuBLAS. Count+terms calibrated to the 2-node custom row (88 s).
cluster::Workload table3_workload();

// --- Table IV: Coulomb d=3, k=10, eps=1e-11; 16-100 nodes, even map.
// Task count from the paper: 154,468.
cluster::Workload table4_workload();

// --- Table V: Coulomb d=3, k=30, eps=1e-12; 1-8 nodes, locality map,
// rank reduction on the CPU. Calibrated to the 1-node CPU rows (447/147 s).
cluster::Workload table5_workload();
/// Rank fraction kred/k for Table V's k=30 operator (447 s -> 147 s).
double table5_rank_fraction();

// --- Table VI: 4-D TDSE, k=14, eps=1e-14; 100-500 nodes, locality map,
// cuBLAS kernels, rank reduction on the CPU. Task count from the paper:
// 542,113.
cluster::Workload table6_workload();
double table6_rank_fraction();

}  // namespace mh::apps
