#include "perfbench/src/cells.h"

#include <algorithm>
#include <iterator>
#include <thread>

#include "src/common/rng.h"
#include "src/workloads/graph.h"
#include "src/workloads/kv_store.h"

namespace perfbench {
namespace {


// An op budget: `windows` op-paced windows of `ops_per_window` ops each.
struct Budget {
  std::uint64_t windows;
  std::uint64_t ops_per_window;
};

// The figure harnesses run 40 op-paced windows per cell. The codec workloads
// keep the harnesses' ops per window (which sets how much telemetry each
// decision sees) but run 5 (kv) or 8 (spectrum, where AM-A's cascade starts
// around the fourth window) windows, so a pass over a workload's cells takes
// seconds. The graph cells run fig07's 40 windows at 4x its ops per window:
// their windows cost little, and a longer measured phase is easier to time.
constexpr Budget kKvBudget = {5, 150'000 / 40};          // fig07
constexpr Budget kSpectrumBudget = {8, 120'000 / 40};    // fig13
constexpr Budget kGraphBudget = {40, 4 * 150'000 / 40};  // 4x fig07
// How much host time a stream's windows cost depends on which regions it
// makes hot (placement moves whole 2 MiB regions), so the codec workloads run
// each cell on two independent streams and a pass averages over them rather
// than over one stream's luck.
constexpr int kCodecStreams = 2;

// Table-2 order: a workload's index here picks its SplitSeed stream, so
// adding a name at the end never reseeds the others.
constexpr const char* kTable2[] = {"memcached-ycsb", "memcached-memtier-1k",
                                   "memcached-memtier-4k", "redis-ycsb",
                                   "bfs",            "pagerank",
                                   "xsbench",        "graphsage",
                                   "masim"};

// bench/fig16_colocation.cc's colocation mix, round-robin by tenant index.
constexpr TenantEntry kColocationMix[] = {
    {"masim", 0.40, 0.70, 3.0},
    {"memcached-ycsb", 0.50, 0.30, 1.0},
    {"graphsage", 0.40, 0.50, 2.0},
    {"redis-ycsb", 0.35, 0.10, 1.0},
};

PolicySpec TwoTier(const char* label, const char* slow_tier) {
  return {.label = label, .kind = PolicyKind::kTwoTier, .slow_tier = slow_tier};
}
PolicySpec Waterfall() {
  return {.label = "Waterfall", .kind = PolicyKind::kWaterfall, .slow_tier = ""};
}
PolicySpec Analytical(const char* label, double alpha) {
  return {.label = label, .kind = PolicyKind::kAnalytical, .slow_tier = "", .alpha = alpha};
}

// Stream r > 0 of a cell runs the same workload on an independent stream,
// SplitSeed(workload seed, r), labelled "<workload>/<policy>#r".
Cell MakeCell(const std::string& workload, std::uint64_t run_seed, int stream,
              Assembly assembly, const PolicySpec& policy, Budget budget) {
  Cell cell;
  cell.label = workload + "/" + policy.label;
  cell.workload = workload;
  cell.seed = WorkloadSeed(run_seed, workload);
  if (stream > 0) {
    cell.label.append("#").append(std::to_string(stream));
    cell.seed = tierscape::SplitSeed(cell.seed, stream);
  }
  cell.assembly = assembly;
  cell.policy = policy;
  cell.config.ops = budget.windows * budget.ops_per_window;
  cell.config.target_windows = budget.windows;
  return cell;
}

}  // namespace

std::uint64_t WorkloadSeed(std::uint64_t run_seed, const std::string& name) {
  const auto* it = std::find(std::begin(kTable2), std::end(kTable2), name);
  return tierscape::SplitSeed(run_seed, static_cast<std::uint64_t>(it - std::begin(kTable2)));
}

std::unique_ptr<tierscape::Workload> MakeTable2Workload(const std::string& name,
                                                        std::uint64_t seed) {
  using namespace tierscape;
  if (name == "memcached-ycsb" || name == "redis-ycsb") {
    KvConfig config = name == "redis-ycsb" ? RedisYcsbConfig() : MemcachedYcsbConfig();
    config.seed = seed;
    return std::make_unique<KvWorkload>(config);
  }
  if (name == "bfs" || name == "pagerank") {
    GraphWorkloadConfig config;
    config.rmat.vertices = 1 << 18;
    // Graph shape and traversal order get independent streams.
    config.rmat.seed = SplitSeed(seed, 1);
    config.seed = SplitSeed(seed, 2);
    if (name == "bfs") {
      return std::make_unique<BfsWorkload>(config);
    }
    return std::make_unique<PageRankWorkload>(config);
  }
  return nullptr;
}

tierscape::SystemConfig AssemblyConfig(Assembly assembly, std::size_t footprint) {
  // The figure harnesses' sizing: fig07 gives the standard mix 1.5x the
  // footprint in DRAM, fig13 gives the spectrum 2x; NVMM is 3x in both.
  if (assembly == Assembly::kSpectrum) {
    return tierscape::SpectrumConfig(2 * footprint, 3 * footprint);
  }
  return tierscape::StandardMixConfig(footprint + footprint / 2, 3 * footprint);
}

const TenantEntry& ColocationTenant(int index) {
  return kColocationMix[static_cast<std::size_t>(index) % std::size(kColocationMix)];
}

std::optional<WorkloadPlan> MakePlan(const std::string& name, std::uint64_t seed) {
  WorkloadPlan plan;
  plan.name = name;
  plan.seed = seed;
  if (name == "kv-compressed") {
    plan.why =
        "compress on demotion, decompress+checksum on faults, zsmalloc and migration do almost "
        "all the work; set-up does almost none";
    plan.probes = {"redis-ycsb", "memcached-ycsb"};
    for (int stream = 0; stream < kCodecStreams; ++stream) {
      for (const std::string& workload : plan.probes) {
        for (const PolicySpec& policy :
             {TwoTier("GSwap*", "CT-1"), TwoTier("TMO*", "CT-2"), Analytical("AM-TCO", 0.3)}) {
          plan.cells.push_back(
              MakeCell(workload, seed, stream, Assembly::kStandardMix, policy, kKvBudget));
        }
      }
    }
    return plan;
  }
  if (name == "graph-setup") {
    plan.why =
        "R-MAT workload set-up is nearly all the time and the compressor never runs, so a codec "
        "change must show no change here";
    plan.probes = {"bfs", "pagerank"};
    for (const std::string& workload : plan.probes) {
      for (const PolicySpec& policy : {TwoTier("HeMem*", "NVMM"), Analytical("AM-perf", 0.9)}) {
        plan.cells.push_back(
            MakeCell(workload, seed, 0, Assembly::kStandardMix, policy, kGraphBudget));
      }
    }
    return plan;
  }
  if (name == "spectrum-cascade") {
    plan.why =
        "pages cascade tier to tier (decompress + recompress) over lz4/lzo/deflate and zbud, the "
        "compression cache thrashes, and AM solves over six tiers";
    plan.probes = {"memcached-ycsb"};
    for (int stream = 0; stream < kCodecStreams; ++stream) {
      Cell waterfall = MakeCell("memcached-ycsb", seed, stream, Assembly::kSpectrum,
                                Waterfall(), kSpectrumBudget);
      waterfall.config.daemon.threshold_percentile = 50.0;
      plan.cells.push_back(waterfall);
      for (const PolicySpec& policy : {Analytical("AM-M", 0.5), Analytical("AM-A", 0.1)}) {
        plan.cells.push_back(MakeCell("memcached-ycsb", seed, stream, Assembly::kSpectrum,
                                      policy, kSpectrumBudget));
      }
    }
    return plan;
  }
  if (name == "colocation") {
    plan.why =
        "the only workload that runs src/multitenant: 8 tenants, utility arbiter, grant caps and "
        "the shared ZswapAccessPath cache on a thread pool";
    ColocationCell cell;
    cell.label = "mixed-x8/utility";
    tierscape::MultiTenantConfig& config = cell.config;
    // fig16's arbiter knobs; pool sizes follow the probed footprints.
    config.arbiter.policy = tierscape::ArbiterPolicy::kUtility;
    config.arbiter.fair_share_floor = 0.65;
    config.arbiter.share_smoothing = 0.35;
    config.ops_per_window = 1200;
    config.windows = 6;
    config.shared_cache_ops = 256;
    config.threads =
        static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    config.base_seed = tierscape::SplitSeed(seed, std::size(kTable2));
    plan.colocation = cell;
    return plan;
  }
  return std::nullopt;
}

}  // namespace perfbench
