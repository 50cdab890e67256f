// Parallel experiment-grid runner for the bench harnesses (DESIGN.md §4,
// EXPERIMENTS.md "Running the grid in parallel").
//
// A bench binary declares its full set of (system, workload, policy) cells up
// front, then calls ExperimentGrid::Run(). Cells execute on the process-wide
// ThreadPool::Shared(), sized from the hardware or by TIERSCAPE_BENCH_THREADS
// (1 = the whole process runs serially); each worker runs its cell against a
// *private* Observability instance and writes the ExperimentResult into a
// slot owned by its index, so the pipeline invariant (thread_pool.h) holds
// for the grid exactly as it does for the migration pipeline. Results, table
// rows, and observability artifacts are committed on the submitting thread
// in ascending cell order, which makes every output — stdout tables, merged
// metric snapshots, merged traces — byte-identical for any thread count.
//
// Nested parallelism: each cell's migration fan-out and ratio sweep run on
// the same shared pool (ParallelFor is reentrant), so cores that finished
// cells freed pick up the compress work of the cells still running. The pool
// size is wall-clock-only: it never changes virtual-time results.
#ifndef BENCH_EXPERIMENT_GRID_H_
#define BENCH_EXPERIMENT_GRID_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/tier_specs.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/trace.h"
#include "src/workloads/driver.h"

namespace tierscape {
namespace bench {

// True when TIERSCAPE_BENCH_SMOKE=1: the CI smoke leg runs every bench at
// tiny scale; standard cells get their op budget capped by SmokeOps.
bool BenchSmoke();

// The smoke-mode op budget for a cell that would normally run `ops`.
std::uint64_t SmokeOps(std::uint64_t ops);

// Facts about the Run() invocation a cell executes under, passed to custom
// cell bodies so they can mirror the runner's own smoke scaling for the parts
// the runner cannot see into.
struct CellContext {
  bool smoke = false;  // TIERSCAPE_BENCH_SMOKE
};

// One experiment cell. Either the standard (make_system, workload, policy)
// triple or a fully custom `run` body (micro benches with bespoke drivers).
struct CellSpec {
  // Unique within the grid; becomes the cell/<label>/ metric prefix and the
  // trace track name in the merged artifacts.
  std::string label;

  // Builds the cell's fresh system with the cell-private Observability
  // already wired in (SystemFactory below covers the common case).
  std::function<std::unique_ptr<TieredSystem>(Observability&)> make_system;
  std::string workload;
  double scale = 1.0;
  PolicySpec policy;
  ExperimentConfig config;

  // Optional: runs on the worker right after the experiment, while the
  // cell's system is still alive, to fold system state (e.g. nominal load
  // cost) into the result. Purity rules apply: it may only read `system` and
  // write `result`.
  std::function<void(TieredSystem&, ExperimentResult&)> inspect;

  // Optional custom cell body; when set it replaces the standard run
  // entirely (make_system/workload/policy/config/inspect are ignored).
  std::function<ExperimentResult(Observability&, const CellContext&)> run;
};

// Factory adapter for the common case: copies `config`, points its obs at
// the cell's private instance, and constructs the system.
std::function<std::unique_ptr<TieredSystem>(Observability&)> SystemFactory(SystemConfig config);

class ExperimentGrid {
 public:
  // `name` is the bench binary name; it prefixes the artifact files
  //   $TIERSCAPE_OBS_DIR/<name>.metrics.jsonl   (merged, wall/ excluded)
  //   $TIERSCAPE_OBS_DIR/<name>.trace.json      (merged, TIERSCAPE_TRACE=1)
  // and the per-cell wall-time records appended to $TIERSCAPE_BENCH_JSON.
  // When TIERSCAPE_BENCH_THREADS is set (>= 1; invalid = 1), resizes the
  // shared pool to it.
  explicit ExperimentGrid(std::string name);
  ~ExperimentGrid();

  ExperimentGrid(const ExperimentGrid&) = delete;
  ExperimentGrid& operator=(const ExperimentGrid&) = delete;

  // Queues a cell; returns its index within the next Run() batch.
  std::size_t Add(CellSpec spec);

  // Runs every queued cell and returns their results in Add() order.
  // May be called repeatedly (later batches can depend on earlier results,
  // e.g. a DRAM-normalization cell); artifact state accumulates across
  // batches in cell order.
  std::vector<ExperimentResult> Run();

  const std::string& name() const { return name_; }

  // Deterministic serializations of every cell committed so far — the exact
  // bytes the destructor writes. Lets tests and micro_grid compare whole runs
  // without touching the filesystem. The metrics form excludes wall/ (those
  // values depend on the host and thread count); the trace form carries the
  // per-cell tracks.
  std::string MergedMetricsJsonl() const;
  std::string MergedTraceJson() const;

  // The per-cell wall records the destructor appends to
  // $TIERSCAPE_BENCH_JSON (sans the totals line): one {"bench","cell",
  // "wall_ms"} line per cell plus one {"bench","cell","metric","value"} line
  // per wall/ metric the cell registered — e.g. micro_solver's
  // wall/solver/solve_ms scaling curve. Host-dependent values; never part of
  // the determinism comparison.
  std::string WallRecordsJsonl() const;

 private:
  struct CellTiming {
    std::string label;
    double wall_ms = 0.0;
    // (name, value) of every wall/-prefixed metric in the cell's private
    // registry: gauges report their value, counters their count.
    std::vector<std::pair<std::string, double>> wall_metrics;
  };

  std::string name_;
  std::string obs_dir_;    // "" disables artifact dump
  std::string json_path_;  // "" disables wall-time records
  bool trace_ = false;

  std::vector<CellSpec> pending_;
  std::vector<std::string> labels_;  // all labels ever added (uniqueness)

  // Committed per-cell state, ascending cell order across batches.
  std::vector<LabeledSnapshot> snapshots_;
  std::vector<TraceRecorder::Event> trace_events_;
  std::vector<CellTiming> timings_;
  double total_wall_ms_ = 0.0;
  int last_threads_ = 1;  // shared pool size at the last Run()
};

}  // namespace bench
}  // namespace tierscape

#endif  // BENCH_EXPERIMENT_GRID_H_
