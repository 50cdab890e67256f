// The benchmark's workloads: each is a fixed list of cells (system x Table-2
// workload x policy), built from the run seed through the simulator's own
// constructors. Nothing here goes through bench/bench_common.h, so editing a
// figure harness cannot move the benchmark.
#ifndef PERFBENCH_SRC_CELLS_H_
#define PERFBENCH_SRC_CELLS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/placement.h"
#include "src/core/tier_specs.h"
#include "src/multitenant/multi_tenant_daemon.h"
#include "src/workloads/driver.h"
#include "src/workloads/workload.h"

namespace perfbench {

enum class Assembly { kStandardMix, kSpectrum };
enum class PolicyKind { kTwoTier, kWaterfall, kAnalytical };

struct PolicySpec {
  std::string label;      // column name, e.g. "GSwap*" or "AM-TCO"
  PolicyKind kind = PolicyKind::kTwoTier;
  std::string slow_tier;  // kTwoTier: the tier label it demotes to
  double alpha = -1.0;    // kAnalytical: the TCO knob
};

// One single-tenant cell, run exactly like a figure-harness grid cell.
struct Cell {
  std::string label;       // "<workload>/<policy>", plus "#<stream>" for streams > 0
  std::string workload;    // Table-2 name
  std::uint64_t seed = 0;  // the workload's generator seed (MakeTable2Workload)
  Assembly assembly = Assembly::kStandardMix;
  PolicySpec policy;
  tierscape::ExperimentConfig config;
};

// One tenant of the colocation mix (bench/fig16_colocation.cc's kMix).
struct TenantEntry {
  const char* workload;
  double scale;
  double alpha;
  double priority;
};

// The colocation cell: fig16's mix under one arbiter policy.
struct ColocationCell {
  std::string label;
  int tenants = 8;
  tierscape::MultiTenantConfig config;  // obs and system left for the runner
};

struct WorkloadPlan {
  std::string name;
  std::string why;
  std::uint64_t seed = 0;
  // Table-2 workloads whose footprint is probed once per pass, in order
  // (the figure harnesses size each system from such a probe).
  std::vector<std::string> probes;
  std::vector<Cell> cells;
  std::optional<ColocationCell> colocation;
};

// The cells of workload `name` for run seed `seed`; nullopt if unknown.
std::optional<WorkloadPlan> MakePlan(const std::string& name, std::uint64_t seed);

// Seed of Table-2 workload `name` in a run seeded `run_seed`.
std::uint64_t WorkloadSeed(std::uint64_t run_seed, const std::string& name);

// Builds Table-2 workload `name` with every generator seed derived from
// `seed` by SplitSeed. Null for a name the benchmark does not use.
std::unique_ptr<tierscape::Workload> MakeTable2Workload(const std::string& name,
                                                        std::uint64_t seed);

// The tier assembly a cell runs on, sized from the probed footprint.
tierscape::SystemConfig AssemblyConfig(Assembly assembly, std::size_t footprint);

// The colocation tenant at `index` (round-robin over fig16's mix).
const TenantEntry& ColocationTenant(int index);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CELLS_H_
