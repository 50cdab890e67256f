// The experiment-grid runner's hard invariant (bench/experiment_grid.h):
// the shared pool's size is a wall-clock-only knob, so every deterministic
// output — per-cell results, merged metrics, merged trace — must be
// byte-identical at any parallelism. micro_grid checks this for 1 vs 4
// threads at bench scale; here a small grid sweeps {1, 4, 8} (including
// more workers than cells) so the invariant is enforced in `ctest` too.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "bench/experiment_grid.h"
#include "src/common/thread_pool.h"

namespace tierscape {
namespace bench {
namespace {

void AddCells(ExperimentGrid& grid) {
  const char* workloads[] = {"memcached-ycsb", "redis-ycsb"};
  const PolicySpec policies[] = {HememSpec(), WaterfallSpec(), AmSpec("AM-TCO", 0.3)};
  for (const char* workload : workloads) {
    const std::size_t footprint = WorkloadFootprint(workload);
    for (const PolicySpec& policy : policies) {
      CellSpec cell;
      cell.label = std::string(workload) + "/" + policy.label;
      cell.make_system =
          SystemFactory(StandardMixConfig(footprint + footprint / 2, 3 * footprint));
      cell.workload = workload;
      cell.policy = policy;
      cell.config.ops = 20'000;
      grid.Add(std::move(cell));
    }
  }
}

// Every virtual-time field of every result, rendered to one comparable blob.
std::string Render(const std::vector<ExperimentResult>& results) {
  std::ostringstream out;
  for (const ExperimentResult& r : results) {
    out << r.workload << "/" << r.policy << " ovh=" << r.perf_overhead_pct
        << " tco=" << r.mean_tco_savings << " faults=" << r.total_faults
        << " migrated=" << r.migrated_pages << "\n";
  }
  return out.str();
}

struct GridRun {
  std::string results;
  std::string metrics;
  std::string trace;
};

GridRun RunAt(const char* name, int threads) {
  ExperimentGrid grid(name);
  EXPECT_TRUE(ThreadPool::SetSharedThreadsForTesting(threads).ok());
  AddCells(grid);
  GridRun run;
  run.results = Render(grid.Run());
  run.metrics = grid.MergedMetricsJsonl();
  run.trace = grid.MergedTraceJson();
  return run;
}

TEST(GridTest, DeterministicAcrossBenchThreads) {
  const GridRun serial = RunAt("grid_test.t1", 1);
  EXPECT_FALSE(serial.results.empty());
  EXPECT_FALSE(serial.metrics.empty());

  for (const int threads : {4, 8}) {
    const GridRun parallel =
        RunAt(("grid_test.t" + std::to_string(threads)).c_str(), threads);
    EXPECT_EQ(serial.results, parallel.results) << "results diverged at " << threads;
    EXPECT_EQ(serial.metrics, parallel.metrics) << "metrics diverged at " << threads;
    EXPECT_EQ(serial.trace, parallel.trace) << "trace diverged at " << threads;
  }
}

TEST(GridTest, MergedMetricsCarryCellPrefixes) {
  ExperimentGrid grid("grid_test.prefix");
  ASSERT_TRUE(ThreadPool::SetSharedThreadsForTesting(2).ok());
  AddCells(grid);
  grid.Run();
  const std::string metrics = grid.MergedMetricsJsonl();
  // Every cell contributes its own namespaced snapshot, and the wall/ scope
  // (host-dependent values) is excluded from the deterministic artifact.
  EXPECT_NE(metrics.find("cell/memcached-ycsb/Waterfall/"), std::string::npos);
  EXPECT_NE(metrics.find("cell/redis-ycsb/AM-TCO/"), std::string::npos);
  EXPECT_EQ(metrics.find("wall/"), std::string::npos);
}

}  // namespace
}  // namespace bench
}  // namespace tierscape
