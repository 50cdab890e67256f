// Runs the benchmark's cells. A single-tenant cell makes the same public
// calls, in the same order, as RunExperiment (src/workloads/driver.cc) after
// the figure-harness grid has built its system, workload and policy — so its
// ExperimentResult is RunExperiment's — and adds host-time spans around each
// call when a tracer is given. Every cell ends with the correctness gate: its
// digest and the invariants that hold for any seed.
#ifndef PERFBENCH_SRC_RUNNER_H_
#define PERFBENCH_SRC_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/cells.h"
#include "perfbench/src/layer_trace.h"
#include "src/workloads/driver.h"

namespace perfbench {

struct CellOutcome {
  std::string label;
  std::uint64_t digest = 0;  // of the simulated results (DigestResult)
  std::string error;         // empty when the cell passed its invariants
  double wall_s = 0.0;       // host seconds for the whole cell
  double setup_s = 0.0;      // of which set-up
  double measured_s = 0.0;   // of which the measured phase
  std::uint64_t ops = 0;     // simulated ops in the measured phase
  std::string dims;          // traffic dimensions, for the run notes
};

struct PassResult {
  std::vector<CellOutcome> cells;
  double wall_s = 0.0;         // host seconds for every cell, probes included
  double setup_s = 0.0;        // probes plus every cell's set-up
  double measured_s = 0.0;
  std::uint64_t ops = 0;
  double cpu_s = 0.0;          // process user+sys seconds over the pass
  double codec_probe_s = 0.0;  // traced passes: time spent outside the cells
};

// One pass over every cell of `plan`; `tracer` null = untraced.
PassResult RunPass(const WorkloadPlan& plan, LayerTracer* tracer);

// The footprint of Table-2 workload `name` with generator seed `seed`: what
// the figure harnesses size each system from.
std::size_t ProbeFootprint(const std::string& name, std::uint64_t seed);

// One single-tenant cell on a footprint-sized system. `probe_seed` picks the
// pages of the traced run's codec probe.
CellOutcome RunCell(const Cell& cell, std::uint64_t workload_seed, std::size_t footprint,
                    LayerTracer* tracer, std::uint64_t probe_seed);

// The ExperimentConfig a cell runs with: the cell's own plus the grid's
// per-policy filter settings (bench/experiment_grid.cc, RunOneCell).
tierscape::ExperimentConfig CellConfig(const Cell& cell);

// The cell's policy against `system`; the Timed subclass when tracing.
std::unique_ptr<tierscape::PlacementPolicy> MakePolicy(const PolicySpec& spec,
                                                       tierscape::TieredSystem& system,
                                                       LayerTracer* tracer);

// FNV-1a over every simulated field of the result and its full window
// history. Wall-clock fields (solve_ms, total_solve_ms) are left out.
std::uint64_t DigestResult(const tierscape::ExperimentResult& result);

// Process user+sys CPU seconds so far.
double CpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUNNER_H_
