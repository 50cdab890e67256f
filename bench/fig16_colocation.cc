// Figure 16: multi-tenant colocation — N tenants with mixed workloads share
// one DRAM pool and one compressed-pool budget under a GlobalArbiter
// (DESIGN.md §4f). Sweeps tenant count x arbiter policy on the standard tier
// mix.
//
// Every tenant runs its own TS-Daemon (analytical model at a per-tenant
// alpha); the arbiter re-divides the shared capacity at each window boundary.
// Expected shape: static shares waste DRAM on TCO-focused tenants while
// starving performance-hungry ones; the utility policy routes DRAM toward
// the tenants with the steepest marginal TCO-vs-performance gradient, so at
// matched performance it saves more aggregate TCO (the TS_CHECK at the
// bottom holds this outside smoke mode).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/experiment_grid.h"
#include "src/common/logging.h"
#include "src/multitenant/multi_tenant_daemon.h"
#include "src/workloads/tenant_mix.h"

using namespace tierscape;
using namespace tierscape::bench;

namespace {

constexpr int kTenantCounts[] = {2, 4, 8, 16};
constexpr ArbiterPolicy kPolicies[] = {ArbiterPolicy::kStaticShares, ArbiterPolicy::kFairShare,
                                       ArbiterPolicy::kPriorityWeighted, ArbiterPolicy::kUtility};

// The colocation mix, round-robin by tenant index: performance-hungry tenants
// (high alpha — slack TCO budgets, steep gradients when squeezed) interleaved
// with TCO-focused ones (low alpha — most pages belong compressed, so spare
// DRAM is wasted on them).
struct MixEntry {
  const char* workload;
  double scale;
  double alpha;
  double priority;
};
constexpr MixEntry kMix[] = {
    {"masim", 0.40, 0.70, 3.0},
    {"memcached-ycsb", 0.50, 0.30, 1.0},
    {"graphsage", 0.40, 0.50, 2.0},
    {"redis-ycsb", 0.35, 0.10, 1.0},
};

ExperimentResult RunColocationCell(int tenants, ArbiterPolicy policy, Observability& obs,
                                   const CellContext& ctx) {
  // Shared pools sized against the mix's total footprint: DRAM is
  // over-subscribed (~55%) so grants genuinely bite; the compressed budget is
  // ample; per-tenant NVMM absorbs whatever the DRAM grant rejects.
  std::size_t total_footprint = 0;
  std::size_t max_footprint = 0;
  for (int i = 0; i < tenants; ++i) {
    const MixEntry& entry = kMix[i % std::size(kMix)];
    const std::size_t footprint = WorkloadFootprint(entry.workload, entry.scale);
    total_footprint += footprint;
    max_footprint = std::max(max_footprint, footprint);
  }

  MultiTenantConfig config;
  config.arbiter.policy = policy;
  config.arbiter.dram_pool_bytes = total_footprint * 55 / 100;
  config.arbiter.ct_pool_bytes = total_footprint;
  // A high floor plus EWMA smoothing keep dynamic grants close to fair and
  // stable across windows: rebalance churn is pure migration slowdown, and
  // the utility gradient only needs the marginal frames to shift (§6.2).
  config.arbiter.fair_share_floor = 0.65;
  config.arbiter.share_smoothing = 0.35;
  config.system = StandardMixConfig(/*dram_bytes=*/0, /*nvmm_bytes=*/3 * max_footprint);
  config.ops_per_window = ctx.smoke ? 300 : 1200;
  config.windows = ctx.smoke ? 3 : 6;
  // Tenant shards run on the shared pool, nested inside the grid's cells
  // (thread_pool.h); wall-clock only.
  config.threads = 4;
  config.obs = &obs;

  MultiTenantDaemon daemon(config);
  for (int i = 0; i < tenants; ++i) {
    const MixEntry& entry = kMix[i % std::size(kMix)];
    TenantSpec spec;
    spec.label = std::string(entry.workload) + "-" + std::to_string(i);
    spec.alpha = entry.alpha;
    spec.priority = entry.priority;
    const Status added =
        daemon.AddTenant(std::move(spec), [&entry](std::uint64_t seed) {
          return MakeTenantApp(entry.workload, entry.scale, seed);
        });
    TS_CHECK(added.ok()) << added.ToString();
  }
  const Status ran = daemon.Run();
  TS_CHECK(ran.ok()) << ran.ToString();

  const MultiTenantDaemon::Totals totals = daemon.ComputeTotals();
  std::size_t rebalanced = 0;
  for (const MultiTenantDaemon::WindowRecord& window : daemon.history()) {
    rebalanced += window.rebalanced_bytes;
  }
  ExperimentResult result;
  result.workload = "mixed x" + std::to_string(tenants);
  result.policy = std::string(ArbiterPolicyName(policy));
  result.slowdown = totals.mean_slowdown;
  result.perf_overhead_pct = (totals.mean_slowdown - 1.0) * 100.0;
  result.final_tco_savings = totals.aggregate_tco_savings;
  result.mean_tco_savings = totals.aggregate_tco_savings;
  result.total_faults = totals.total_faults;
  result.extras.emplace_back("tenants", static_cast<double>(tenants));
  result.extras.emplace_back("max_slowdown", totals.max_slowdown);
  result.extras.emplace_back("aggregate_tco", totals.aggregate_tco);
  result.extras.emplace_back("rebalanced_mib", static_cast<double>(rebalanced) / (1 << 20));
  return result;
}

}  // namespace

int main() {
  ExperimentGrid grid("fig16_colocation");
  for (const int tenants : kTenantCounts) {
    for (const ArbiterPolicy policy : kPolicies) {
      CellSpec cell;
      cell.label = std::string(ArbiterPolicyName(policy)) + "@" + std::to_string(tenants);
      cell.run = [tenants, policy](Observability& obs, const CellContext& ctx) {
        return RunColocationCell(tenants, policy, obs, ctx);
      };
      grid.Add(std::move(cell));
    }
  }
  const std::vector<ExperimentResult> results = grid.Run();

  std::printf("Figure 16: multi-tenant colocation — shared DRAM/compressed pools under a\n");
  std::printf("global arbiter (DESIGN.md §4f). DRAM pool = 55%% of the mix footprint;\n");
  std::printf("tenants run the analytical model at per-tenant alpha.\n\n");

  std::size_t index = 0;
  for (const int tenants : kTenantCounts) {
    TablePrinter table({"arbiter", "mean slowdown", "max slowdown", "TCO savings %", "faults",
                        "rebalanced MiB"});
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      const ExperimentResult& r = results[index++];
      table.AddRow({r.policy, TablePrinter::Fmt(r.slowdown), TablePrinter::Fmt(r.Extra("max_slowdown")),
                    TablePrinter::Fmt(r.final_tco_savings * 100.0), std::to_string(r.total_faults),
                    TablePrinter::Fmt(r.Extra("rebalanced_mib"))});
    }
    std::printf("== %d tenants ==\n", tenants);
    table.Print();
    std::printf("\n");
  }

  // Acceptance gate (ISSUE 7): with heterogeneous tenants the utility arbiter
  // must beat static shares on aggregate TCO at matched performance in at
  // least one cell. Smoke runs are too short for steady state.
  if (!BenchSmoke()) {
    bool utility_wins = false;
    for (std::size_t base = 0; base < results.size(); base += std::size(kPolicies)) {
      const ExperimentResult& statik = results[base + 0];
      const ExperimentResult& utility = results[base + 3];
      if (utility.final_tco_savings > statik.final_tco_savings &&
          utility.slowdown <= statik.slowdown * 1.02) {
        utility_wins = true;
      }
    }
    TS_CHECK(utility_wins)
        << "utility arbitration never beat static shares at matched performance";
  }
  return 0;
}
