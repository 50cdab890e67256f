// The benchmark's own checks:
//  * its cell driver returns exactly RunExperiment's result on small cells of
//    every policy kind (two-tier, Waterfall, analytical with warm start);
//  * the traced run (spans, Timed policy subclasses, registry snapshots,
//    codec probe) produces the same digests as the untraced run, for
//    single-tenant cells and for the colocation cell.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/cells.h"
#include "perfbench/src/layer_trace.h"
#include "perfbench/src/runner.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

// A small cell of `plan_name`'s cell `index`.
Cell SmallCell(const std::string& plan_name, std::size_t index) {
  Cell cell = MakePlan(plan_name, 7)->cells.at(index);
  cell.config.ops = 3000;
  return cell;
}

void DriverMatchesRunExperiment(const Cell& cell) {
  const std::uint64_t seed = cell.seed;
  const std::size_t footprint = ProbeFootprint(cell.workload, seed);

  tierscape::Observability obs;
  tierscape::SystemConfig system_config = AssemblyConfig(cell.assembly, footprint);
  system_config.obs = &obs;
  tierscape::TieredSystem system(system_config);
  auto workload = MakeTable2Workload(cell.workload, seed);
  auto policy = MakePolicy(cell.policy, system, nullptr);
  tierscape::ExperimentResult reference =
      tierscape::RunExperiment(system, *workload, policy.get(), CellConfig(cell));
  reference.policy = cell.policy.label;

  const CellOutcome untraced = RunCell(cell, seed, footprint, nullptr, 1);
  LayerTracer tracer;
  const CellOutcome traced = RunCell(cell, seed, footprint, &tracer, 1);
  tracer.EndPass();

  Expect(untraced.error.empty(), cell.label + ": untraced error " + untraced.error);
  Expect(traced.error.empty(), cell.label + ": traced error " + traced.error);
  Expect(untraced.digest == DigestResult(reference),
         cell.label + ": driver digest differs from RunExperiment's");
  Expect(traced.digest == untraced.digest, cell.label + ": traced digest differs from untraced");
  bool has_windows = false;
  for (const LayerMetric& metric : tracer.Report(0.0, 0.0)) {
    if (metric.name == "core.windows") {
      has_windows = metric.value > 0.0;
    }
  }
  Expect(has_windows, cell.label + ": traced run recorded no windows");
}

void ColocationTracedMatchesUntraced() {
  WorkloadPlan plan = *MakePlan("colocation", 7);
  plan.colocation->config.windows = 2;
  plan.colocation->config.ops_per_window = 200;
  const PassResult untraced = RunPass(plan, nullptr);
  LayerTracer tracer;
  const PassResult traced = RunPass(plan, &tracer);
  Expect(untraced.cells.at(0).error.empty(), "colocation: " + untraced.cells.at(0).error);
  Expect(traced.cells.at(0).digest == untraced.cells.at(0).digest,
         "colocation: traced digest differs from untraced");
}

}  // namespace
}  // namespace perfbench

int main() {
  using perfbench::SmallCell;
  perfbench::DriverMatchesRunExperiment(SmallCell("kv-compressed", 0));     // GSwap*
  perfbench::DriverMatchesRunExperiment(SmallCell("kv-compressed", 2));     // AM-TCO
  perfbench::DriverMatchesRunExperiment(SmallCell("spectrum-cascade", 0));  // Waterfall
  perfbench::DriverMatchesRunExperiment(SmallCell("spectrum-cascade", 2));  // AM-A
  perfbench::ColocationTracedMatchesUntraced();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_test: all checks passed\n");
  return EXIT_SUCCESS;
}
