// Tests for the workload generators and the experiment driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/thread_pool.h"
#include "src/core/analytical.h"
#include "src/fault/fault_injector.h"
#include "src/obs/export.h"
#include "src/workloads/driver.h"
#include "src/workloads/graph.h"
#include "src/workloads/graphsage.h"
#include "src/workloads/kv_store.h"
#include "src/workloads/masim.h"
#include "src/workloads/xsbench.h"

namespace tierscape {
namespace {

TEST(RmatGraphTest, EdgeCountAndDegreeSkew) {
  RmatConfig config;
  config.vertices = 1 << 12;
  config.edges_per_vertex = 8;
  RmatGraph graph(config);
  EXPECT_EQ(graph.vertices(), config.vertices);
  EXPECT_EQ(graph.edges(), config.vertices * config.edges_per_vertex);

  // Power-law skew: the top 1% of vertices should hold far more than 1% of
  // the edges.
  std::vector<std::uint64_t> degrees;
  for (std::uint64_t v = 0; v < graph.vertices(); ++v) {
    auto [begin, end] = graph.Neighbors(v);
    degrees.push_back(static_cast<std::uint64_t>(end - begin));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < degrees.size() / 100; ++i) {
    top += degrees[i];
  }
  EXPECT_GT(top, graph.edges() / 10);
}

TEST(RmatGraphTest, Deterministic) {
  RmatConfig config;
  config.vertices = 1 << 10;
  RmatGraph a(config);
  RmatGraph b(config);
  ASSERT_EQ(a.vertices(), b.vertices());
  ASSERT_EQ(a.edges(), b.edges());
  for (std::uint64_t v = 0; v <= a.vertices(); ++v) {
    ASSERT_EQ(a.EdgeOffset(v), b.EdgeOffset(v)) << "vertex " << v;
  }
  const std::uint32_t* a_targets = a.Neighbors(0).first;
  const std::uint32_t* b_targets = b.Neighbors(0).first;
  EXPECT_TRUE(std::equal(a_targets, a_targets + a.edges(), b_targets));
}

TEST(RmatConfigTest, Validate) {
  auto code = [](void (*mutate)(RmatConfig&)) {
    RmatConfig config;
    mutate(config);
    return config.Validate().code();
  };
  EXPECT_EQ(code([](RmatConfig&) {}), StatusCode::kOk);
  EXPECT_EQ(code([](RmatConfig& c) { c.vertices = 1; }), StatusCode::kOk);
  EXPECT_EQ(code([](RmatConfig& c) { c.vertices = 1ULL << 32; }), StatusCode::kOk);
  EXPECT_EQ(code([](RmatConfig& c) { c.edges_per_vertex = 0; }), StatusCode::kOk);
  EXPECT_EQ(code([](RmatConfig& c) { c.a = 0.5, c.b = 0.25, c.c = 0.25; }), StatusCode::kOk);
  EXPECT_EQ(code([](RmatConfig& c) { c.a = 0.0, c.b = 0.0, c.c = 0.0; }), StatusCode::kOk);

  EXPECT_EQ(code([](RmatConfig& c) { c.vertices = 0; }), StatusCode::kInvalidArgument);
  EXPECT_EQ(code([](RmatConfig& c) { c.vertices = (1ULL << 32) + 1; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code([](RmatConfig& c) { c.edges_per_vertex = ~0ULL; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code([](RmatConfig& c) { c.a = -0.01; }), StatusCode::kInvalidArgument);
  EXPECT_EQ(code([](RmatConfig& c) { c.b = -0.01; }), StatusCode::kInvalidArgument);
  EXPECT_EQ(code([](RmatConfig& c) { c.c = -0.01; }), StatusCode::kInvalidArgument);
  EXPECT_EQ(code([](RmatConfig& c) { c.a = std::nan(""); }), StatusCode::kInvalidArgument);
  EXPECT_EQ(code([](RmatConfig& c) { c.a = 0.5, c.b = 0.3, c.c = 0.3; }),
            StatusCode::kInvalidArgument);
}

// The graph workloads build their graph in Populate, so Reserve sizes the
// footprint from the config alone. It must reserve what the built graph
// needs, and Populate followed by Op must replay what RunExperiment sees.
TEST(GraphWorkloadTest, DeferredBuildMatchesBuiltGraph) {
  for (const RmatConfig& rmat :
       {RmatConfig{.vertices = 1, .edges_per_vertex = 1}, RmatConfig{.vertices = 1000},
        RmatConfig{.vertices = 3 << 10, .edges_per_vertex = 1, .seed = 3},
        RmatConfig{.vertices = 1 << 12, .a = 0.5, .b = 0.25, .c = 0.125, .seed = 5},
        // The CSR index, (n + 1) * 8 bytes, spills just past one region.
        RmatConfig{.vertices = 1 << 18, .edges_per_vertex = 1, .seed = 9}}) {
    SCOPED_TRACE("vertices=" + std::to_string(rmat.vertices));
    const RmatGraph graph(rmat);
    GraphWorkloadConfig config;
    config.rmat = rmat;
    for (const bool bfs : {false, true}) {
      SCOPED_TRACE(bfs ? "bfs" : "pagerank");
      auto make = [&]() -> std::unique_ptr<Workload> {
        if (bfs) {
          return std::make_unique<BfsWorkload>(config);
        }
        return std::make_unique<PageRankWorkload>(config);
      };

      // Reserve before Populate: CSR index, CSR edges, per-vertex state.
      std::unique_ptr<Workload> workload = make();
      AddressSpace space;
      workload->Reserve(space);
      const std::vector<std::size_t> sizes = {(graph.vertices() + 1) * 8, graph.edges() * 4,
                                              graph.vertices() * 8};
      ASSERT_EQ(space.segments().size(), sizes.size());
      AddressSpace expected;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const AddressSpace::Segment& segment = space.segments()[i];
        expected.Allocate(segment.name, sizes[i], segment.profile);
        EXPECT_EQ(segment.bytes, expected.segments()[i].bytes) << segment.name;
      }
      EXPECT_EQ(space.total_bytes(), expected.total_bytes());

      // Populate, then ops (a full pass over a small graph), by hand and
      // through the driver.
      ExperimentConfig experiment;
      experiment.ops = std::min<std::uint64_t>(graph.vertices() + 7, 20'000);
      experiment.target_windows = 2;
      TieredSystem system(StandardMixConfig(64 * kMiB, 64 * kMiB));
      TieringEngine engine(space, system.tiers(), experiment.engine);
      ASSERT_TRUE(engine.PlaceInitial().ok());
      workload->Populate(engine);
      Histogram by_hand;
      for (std::uint64_t op = 0; op < experiment.ops; ++op) {
        by_hand.Record(workload->Op(engine));
      }
      std::unique_ptr<Workload> driven = make();
      TieredSystem driven_system(StandardMixConfig(64 * kMiB, 64 * kMiB));
      const ExperimentResult result =
          RunExperiment(driven_system, *driven, nullptr, experiment);
      EXPECT_EQ(result.op_latency_ns.count(), by_hand.count());
      EXPECT_EQ(result.op_latency_ns.min(), by_hand.min());
      EXPECT_EQ(result.op_latency_ns.max(), by_hand.max());
      EXPECT_DOUBLE_EQ(result.op_latency_ns.Mean(), by_hand.Mean());
      EXPECT_EQ(result.op_latency_ns.Percentile(0.5), by_hand.Percentile(0.5));
      EXPECT_EQ(result.op_latency_ns.Percentile(0.99), by_hand.Percentile(0.99));
    }
  }
}

template <typename WorkloadT, typename ConfigT>
void SmokeRunWorkload(ConfigT config) {
  WorkloadT workload(config);
  TieredSystem system(StandardMixConfig(512 * kMiB, kGiB));
  ExperimentConfig experiment;
  experiment.ops = 2000;
  experiment.target_windows = 4;
  const ExperimentResult result = RunExperiment(system, workload, nullptr, experiment);
  EXPECT_EQ(result.op_latency_ns.count(), 2000u);
  EXPECT_GT(result.throughput_mops, 0.0);
  // No policy: everything stays in DRAM.
  EXPECT_DOUBLE_EQ(result.slowdown, 1.0);
  EXPECT_EQ(result.total_faults, 0u);
}

TEST(WorkloadSmokeTest, Kv) {
  KvConfig config = MemcachedYcsbConfig();
  config.items = 4096;
  SmokeRunWorkload<KvWorkload>(config);
}

TEST(WorkloadSmokeTest, KvMemtier) {
  KvConfig config = MemcachedMemtier1kConfig();
  config.items = 4096;
  SmokeRunWorkload<KvWorkload>(config);
}

TEST(WorkloadSmokeTest, PageRank) {
  GraphWorkloadConfig config;
  config.rmat.vertices = 1 << 12;
  SmokeRunWorkload<PageRankWorkload>(config);
}

TEST(WorkloadSmokeTest, Bfs) {
  GraphWorkloadConfig config;
  config.rmat.vertices = 1 << 12;
  SmokeRunWorkload<BfsWorkload>(config);
}

TEST(WorkloadSmokeTest, XsBench) {
  XsBenchConfig config;
  config.gridpoints = 32 * 1024;
  config.nuclide_gridpoints = 1024;
  SmokeRunWorkload<XsBenchWorkload>(config);
}

TEST(WorkloadSmokeTest, GraphSage) {
  GraphSageConfig config;
  config.nodes = 16 * 1024;
  SmokeRunWorkload<GraphSageWorkload>(config);
}

TEST(WorkloadSmokeTest, Masim) {
  SmokeRunWorkload<MasimWorkload>(DefaultMasimConfig(16 * kMiB));
}

TEST(KvWorkloadTest, ZipfianKeysSkewRegionHotness) {
  KvConfig config = MemcachedYcsbConfig();
  config.items = 8192;
  KvWorkload workload(config);
  TieredSystem system(StandardMixConfig(128 * kMiB, 256 * kMiB));
  AddressSpace space;
  workload.Reserve(space);
  TieringEngine engine(space, system.tiers(), EngineConfig{.pebs_period = 8});
  ASSERT_TRUE(engine.PlaceInitial().ok());
  workload.Populate(engine);
  engine.sampler().DrainWindow();
  for (int i = 0; i < 20000; ++i) {
    workload.Op(engine);
  }
  const auto window = engine.sampler().DrainWindow();
  ASSERT_FALSE(window.empty());
  std::uint32_t max_count = 0;
  std::uint64_t total = 0;
  for (const auto& [region, count] : window) {
    max_count = std::max(max_count, count);
    total += count;
  }
  // Zipfian traffic: the hottest region clearly exceeds the mean (the skew
  // is diluted by 2 MiB aggregation but must survive it).
  EXPECT_GT(max_count, 3 * total / (2 * window.size()));
}

TEST(DriverTest, PolicyRunProducesWindowsAndSavings) {
  TieredSystem system(StandardMixConfig(64 * kMiB, 256 * kMiB));
  MasimWorkload workload(DefaultMasimConfig(32 * kMiB));
  AnalyticalPolicy policy(0.3);
  ExperimentConfig config;
  config.ops = 20000;
  config.target_windows = 10;
  const ExperimentResult result = RunExperiment(system, workload, &policy, config);
  EXPECT_EQ(result.windows.size(), 10u);
  EXPECT_GT(result.mean_tco_savings, 0.05);
  EXPECT_GT(result.slowdown, 1.0);
  EXPECT_GT(result.migrated_pages, 0u);
  EXPECT_EQ(result.policy, policy.name());
}

TEST(DriverTest, DeterministicAcrossRuns) {
  auto run = [] {
    TieredSystem system(StandardMixConfig(64 * kMiB, 256 * kMiB));
    MasimWorkload workload(DefaultMasimConfig(32 * kMiB));
    AnalyticalPolicy policy(0.3);
    ExperimentConfig config;
    config.ops = 10000;
    config.target_windows = 5;
    return RunExperiment(system, workload, &policy, config);
  };
  const ExperimentResult a = run();
  const ExperimentResult b = run();
  EXPECT_DOUBLE_EQ(a.slowdown, b.slowdown);
  EXPECT_DOUBLE_EQ(a.mean_tco_savings, b.mean_tco_savings);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.migrated_pages, b.migrated_pages);
}

TEST(DriverTest, DeterministicAcrossThreadsAndCache) {
  // Push threads and the compression cache are wall-clock-only knobs: every
  // virtual-time observable must be byte-identical across all combinations.
  // Each run records into its own Observability; the non-wall metrics export
  // and the virtual-time trace stream are compared byte-for-byte too — the
  // observability stack must not leak thread count or cache behavior. The
  // same contract holds under fault injection (DESIGN.md §4d): the seeded
  // injector and the degradation ladder (retries, fallback plans, partial
  // placement) are pure functions of the virtual execution, so the faulted
  // configuration must be just as byte-stable.
  struct RunOutput {
    ExperimentResult result;
    std::string metrics_jsonl;  // wall/ metrics excluded
    std::string trace_jsonl;
  };
  auto run = [](int threads, bool cache, const FaultConfig& fault) {
    EXPECT_TRUE(ThreadPool::SetSharedThreadsForTesting(threads).ok());
    Observability obs;
    obs.trace.SetEnabled(true);
    SystemConfig system_config = StandardMixConfig(64 * kMiB, 256 * kMiB);
    system_config.obs = &obs;
    system_config.fault = fault;
    TieredSystem system(system_config);
    MasimWorkload workload(DefaultMasimConfig(32 * kMiB));
    AnalyticalPolicy policy(0.3);
    ExperimentConfig config;
    config.ops = 10000;
    config.target_windows = 5;
    config.engine.compression_cache = cache;
    config.engine.check_tier_counts = true;
    RunOutput output;
    output.result = RunExperiment(system, workload, &policy, config);
    output.metrics_jsonl = SnapshotToJsonl(obs.metrics.Snapshot(), WallMetrics::kExclude);
    output.trace_jsonl = obs.trace.ToJsonl();
    return output;
  };
  for (const FaultConfig& fault : {FaultConfig{}, FaultConfig::Uniform(971, 0.05)}) {
    const RunOutput base = run(1, false, fault);
    SCOPED_TRACE(fault.enabled() ? "faulted" : "fault-free");
    EXPECT_GT(base.metrics_jsonl.size(), 0u);
    EXPECT_GT(base.trace_jsonl.size(), 0u);
    if (fault.enabled()) {
      EXPECT_GT(base.result.injected_faults, 0u);
    } else {
      EXPECT_EQ(base.result.injected_faults, 0u);
    }
    for (const auto& [threads, cache] :
         {std::pair<int, bool>{1, true}, {4, false}, {4, true}, {8, false}, {8, true}}) {
      const RunOutput other = run(threads, cache, fault);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " cache=" + std::to_string(cache));
      EXPECT_DOUBLE_EQ(base.result.slowdown, other.result.slowdown);
      EXPECT_DOUBLE_EQ(base.result.mean_tco_savings, other.result.mean_tco_savings);
      EXPECT_EQ(base.result.total_faults, other.result.total_faults);
      EXPECT_EQ(base.result.migrated_pages, other.result.migrated_pages);
      EXPECT_EQ(base.result.degraded_windows, other.result.degraded_windows);
      EXPECT_EQ(base.result.unrealized_pages, other.result.unrealized_pages);
      EXPECT_EQ(base.result.migrate_retries, other.result.migrate_retries);
      EXPECT_EQ(base.result.injected_faults, other.result.injected_faults);
      ASSERT_EQ(base.result.windows.size(), other.result.windows.size());
      for (std::size_t w = 0; w < base.result.windows.size(); ++w) {
        EXPECT_EQ(base.result.windows[w].actual_pages, other.result.windows[w].actual_pages);
        EXPECT_EQ(base.result.windows[w].faults, other.result.windows[w].faults);
        EXPECT_EQ(base.result.windows[w].migrated_pages, other.result.windows[w].migrated_pages);
        EXPECT_DOUBLE_EQ(base.result.windows[w].tco, other.result.windows[w].tco);
        EXPECT_EQ(base.result.windows[w].degraded, other.result.windows[w].degraded);
        EXPECT_EQ(base.result.windows[w].solver_fallback,
                  other.result.windows[w].solver_fallback);
      }
      EXPECT_EQ(base.metrics_jsonl, other.metrics_jsonl);
      EXPECT_EQ(base.trace_jsonl, other.trace_jsonl);
    }
  }
}

}  // namespace
}  // namespace tierscape
