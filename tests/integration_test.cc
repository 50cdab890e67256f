// Full-stack integration tests: the paper's claims asserted end to end on
// scaled-down systems. These are shape tests — they assert orderings and
// directions, not absolute numbers.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/analytical.h"
#include "src/core/baselines.h"
#include "src/core/waterfall.h"
#include "src/workloads/driver.h"
#include "src/workloads/kv_store.h"
#include "src/workloads/masim.h"

namespace tierscape {
namespace {

ExperimentConfig SmallConfig(std::uint64_t ops = 40'000) {
  ExperimentConfig config;
  config.ops = ops;
  config.target_windows = 20;
  return config;
}

MasimConfig SmallMasim() { return DefaultMasimConfig(48 * kMiB); }

// Claim C2 / Figure 10: the knob trades TCO savings against performance
// monotonically end to end.
TEST(ClaimTest, KnobTradesTcoForPerformance) {
  double previous_savings = 2.0;
  for (const double alpha : {0.1, 0.5, 0.9}) {
    TieredSystem system(StandardMixConfig(96 * kMiB, 256 * kMiB));
    MasimWorkload workload(SmallMasim());
    AnalyticalPolicy policy(alpha);
    const ExperimentResult r = RunExperiment(system, workload, &policy, SmallConfig());
    EXPECT_LT(r.mean_tco_savings, previous_savings) << "alpha " << alpha;
    previous_savings = r.mean_tco_savings;
  }
}

// Claim C1 / Figure 7: the analytical model achieves more TCO savings than a
// two-tier compressed baseline at comparable or better performance.
TEST(ClaimTest, AnalyticalModelBeatsSingleCompressedTier) {
  auto run = [](PlacementPolicy* policy) {
    TieredSystem system(StandardMixConfig(96 * kMiB, 256 * kMiB));
    MasimWorkload workload(SmallMasim());
    ExperimentConfig config = SmallConfig();
    if (dynamic_cast<TwoTierPolicy*>(policy) != nullptr) {
      config.daemon.filter.enable_hysteresis = false;
      config.daemon.filter.demotion_benefit_factor = 1e18;
    }
    return RunExperiment(system, workload, policy, config);
  };
  TwoTierPolicy tmo("TMO*", 3);  // DRAM + CT-2
  AnalyticalPolicy am(0.4);
  const ExperimentResult tmo_result = run(&tmo);
  const ExperimentResult am_result = run(&am);
  EXPECT_GT(am_result.mean_tco_savings, tmo_result.mean_tco_savings);
  // Better performance-per-dollar: more savings bought per point of slowdown.
  const double am_efficiency = am_result.mean_tco_savings / (am_result.slowdown - 1.0);
  const double tmo_efficiency = tmo_result.mean_tco_savings / (tmo_result.slowdown - 1.0);
  EXPECT_GT(am_efficiency, tmo_efficiency);
}

// §6.1: Waterfall ages data downward — compressed-tier population grows
// across windows and TCO savings improve over time.
TEST(ClaimTest, WaterfallAgesDataDownTiers) {
  TieredSystem system(StandardMixConfig(96 * kMiB, 256 * kMiB));
  MasimWorkload workload(SmallMasim());
  WaterfallPolicy policy;
  ExperimentConfig config = SmallConfig();
  config.daemon.filter.enable_hysteresis = false;
  config.daemon.filter.demotion_benefit_factor = 1e18;
  const ExperimentResult r = RunExperiment(system, workload, &policy, config);
  ASSERT_GE(r.windows.size(), 10u);
  const auto& early = r.windows[1];
  const auto& late = r.windows.back();
  // Pages in the last (best-TCO) tier strictly grow as cold regions complete
  // their journey down the waterfall, and the aged placement still holds
  // substantial savings. (Warm data cycles: it ages into the intermediate
  // tiers, faults back, and re-enters at the top — so intermediate-tier
  // population is not monotone, but the terminal tier's is.)
  EXPECT_GT(late.actual_pages[3], early.actual_pages[3]);
  EXPECT_GT(late.tco_savings, 0.15);
}

// §3.3 compressibility dimension: a workload with incompressible data yields
// less TCO savings than the same-size compressible workload under the same
// policy.
TEST(ClaimTest, CompressibilityDeterminesSavings) {
  auto run = [](CorpusProfile profile) {
    MasimConfig config = DefaultMasimConfig(48 * kMiB);
    for (auto& region : config.regions) {
      region.profile = profile;
    }
    TieredSystem system(StandardMixConfig(96 * kMiB, 256 * kMiB));
    MasimWorkload workload(config);
    AnalyticalPolicy policy(0.1);
    return RunExperiment(system, workload, &policy, SmallConfig());
  };
  const ExperimentResult compressible = run(CorpusProfile::kNci);
  const ExperimentResult incompressible = run(CorpusProfile::kRandom);
  EXPECT_GT(compressible.mean_tco_savings, incompressible.mean_tco_savings + 0.05);
  // Incompressible data still saves via plain NVMM (1/3 cost), never via
  // compressed tiers.
  std::uint64_t ct_pages = 0;
  for (std::size_t tier = 2; tier < incompressible.windows.back().actual_pages.size();
       ++tier) {
    ct_pages += incompressible.windows.back().actual_pages[tier];
  }
  EXPECT_EQ(ct_pages, 0u);
}

// Fault path correctness under a hostile pattern: a store-heavy workload over
// compressed tiers keeps contents intact (checksums verify on every fault).
TEST(IntegrationTest, StoreHeavyWorkloadSurvivesCompression) {
  MasimConfig config = DefaultMasimConfig(32 * kMiB);
  for (auto& region : config.regions) {
    region.store_fraction = 0.5;
  }
  TieredSystem system(StandardMixConfig(64 * kMiB, 128 * kMiB));
  MasimWorkload workload(config);
  AnalyticalPolicy policy(0.1);
  const ExperimentResult r = RunExperiment(system, workload, &policy, SmallConfig());
  // Every fault verifies its page's checksum: reaching here means every one
  // matched. The workload must actually have faulted for this to
  // be meaningful.
  EXPECT_GT(r.total_faults, 0u);
}

// Capacity-pressure resilience: a DRAM tier with almost no headroom forces
// fault promotions to spill to NVMM without crashing or losing pages.
TEST(IntegrationTest, TightDramSpillsGracefully) {
  MasimConfig masim = DefaultMasimConfig(48 * kMiB);
  TieredSystem system(StandardMixConfig(52 * kMiB, 512 * kMiB));
  MasimWorkload workload(masim);
  AnalyticalPolicy policy(0.2);
  const ExperimentResult r = RunExperiment(system, workload, &policy, SmallConfig());
  // All pages still accounted for: the final window holds exactly as many
  // pages as the first (segments round up to whole regions, so compare
  // against the realized footprint rather than the requested bytes).
  std::uint64_t first_total = 0;
  for (const std::uint64_t pages : r.windows.front().actual_pages) {
    first_total += pages;
  }
  std::uint64_t last_total = 0;
  for (const std::uint64_t pages : r.windows.back().actual_pages) {
    last_total += pages;
  }
  EXPECT_EQ(first_total, last_total);
  EXPECT_GE(first_total, 48ull * kMiB / kPageSize);
}

// The paper's fairness setup: identical telemetry means GSwap* and TMO* make
// identical placement decisions; only tier cost/latency differ.
TEST(IntegrationTest, BaselinesShareTelemetryDecisions) {
  auto run = [](int slow_tier) {
    TieredSystem system(StandardMixConfig(96 * kMiB, 256 * kMiB));
    KvConfig kv = MemcachedYcsbConfig();
    kv.items = 16 * 1024;
    KvWorkload workload(kv);
    TwoTierPolicy policy(slow_tier == 2 ? "GSwap*" : "TMO*", slow_tier);
    ExperimentConfig config = SmallConfig();
    config.daemon.filter.enable_hysteresis = false;
    config.daemon.filter.demotion_benefit_factor = 1e18;
    return RunExperiment(system, workload, &policy, config);
  };
  const ExperimentResult gswap = run(2);
  const ExperimentResult tmo = run(3);
  // Same decisions -> same fault counts; CT-2 (zstd on NVMM) is slower but
  // cheaper than CT-1 (lzo on DRAM).
  EXPECT_EQ(gswap.total_faults, tmo.total_faults);
  EXPECT_GE(tmo.slowdown, gswap.slowdown);
  EXPECT_GT(tmo.mean_tco_savings, gswap.mean_tco_savings);
}

}  // namespace
}  // namespace tierscape
