// Event-driven sub-window fast path tests (DESIGN.md §4h): K-hit promotion
// triggers on the sequential Observe() path, the per-window promotion budget,
// the ping-pong pin lifecycle through DecisionContext and the migration
// filter, degradation backpressure on the effective K, and byte-identical
// results across engine thread counts (the fast path must stay inside the
// determinism quarantine).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analytical.h"
#include "src/core/tier_specs.h"
#include "src/core/ts_daemon.h"
#include "src/fault/fault_injector.h"
#include "src/obs/export.h"
#include "src/telemetry/hotness.h"
#include "src/workloads/driver.h"
#include "src/workloads/masim.h"

namespace tierscape {
namespace {

// --- Config validation ------------------------------------------------------

TEST(FastPathConfigTest, ValidationRejectsBadKnobs) {
  FastPathConfig config;
  EXPECT_TRUE(config.Validate().ok());  // disabled defaults are valid
  config.enabled = true;
  EXPECT_TRUE(config.Validate().ok());

  config.promote_hits = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.promote_hits = 3;

  config.pin_windows = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.pin_windows = 4;

  config.max_promotions_per_window = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.max_promotions_per_window = 32;

  config.degraded_k_shift_cap = 17;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.degraded_k_shift_cap = 4;

  config.suppress_after = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.suppress_after = 3;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(FastPathConfigTest, DaemonRejectsFastPathInProfileOnlyMode) {
  DaemonConfig config;
  config.mode = DaemonMode::kProfileOnly;
  config.fast_path.enabled = true;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.mode = DaemonMode::kPlace;
  EXPECT_TRUE(config.Validate().ok());
}

// --- Trigger path -----------------------------------------------------------

// Every access samples (period 1) so the K-hit streak is a direct function of
// the access count; boundaries fire only through explicit OnWindowEnd calls
// (the profile window is far beyond any virtual time these tests accrue).
class FastPathFixture : public ::testing::Test {
 protected:
  FastPathFixture() : system_(StandardMixConfig(64 * kMiB, 128 * kMiB)) {
    space_.Allocate("data", 16 * kMiB, CorpusProfile::kDickens);
    engine_ = std::make_unique<TieringEngine>(space_, system_.tiers(),
                                              EngineConfig{.pebs_period = 1});
    EXPECT_TRUE(engine_->PlaceInitial().ok());
  }

  DaemonConfig PlaceConfig() {
    DaemonConfig config;
    config.profile_window = 1000 * kSecond;  // boundaries only via OnWindowEnd
    config.filter.enable_hysteresis = false;
    config.filter.demotion_benefit_factor = 1e18;  // demotions always pass
    config.fast_path.enabled = true;
    return config;
  }

  // Samples `hits` accesses in `region` through the Observe pump, one op per
  // access, the way the experiment driver feeds the daemon.
  void TouchRegion(TsDaemon& daemon, std::uint64_t region, std::uint32_t hits) {
    for (std::uint32_t i = 0; i < hits; ++i) {
      engine_->Access(region * kRegionSize + i * kPageSize, false);
      ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
    }
  }

  TieredSystem system_;
  AddressSpace space_;
  std::unique_ptr<TieringEngine> engine_;
};

TEST_F(FastPathFixture, KthSampledHitPromotesMidWindow) {
  AnalyticalPolicy policy(0.0);  // boundary demotes everything to the cheapest tier
  DaemonConfig config = PlaceConfig();
  config.fast_path.promote_hits = 3;
  TsDaemon daemon(*engine_, &policy, config);
  ASSERT_NE(daemon.fast_path(), nullptr);
  ASSERT_TRUE(daemon.OnWindowEnd().ok());  // window 0: everything off DRAM
  ASSERT_EQ(engine_->PagesPerTier()[0], 0u);

  // Two sampled hits: strays fault in page by page, but no promotion yet.
  TouchRegion(daemon, 0, 2);
  EXPECT_EQ(daemon.fast_path()->window_stats().promotions, 0u);
  EXPECT_LT(engine_->PagesPerTier()[0], kPagesPerRegion);

  // The third hit crosses K: the whole region is pulled to DRAM mid-window,
  // before any boundary runs.
  TouchRegion(daemon, 0, 1);
  EXPECT_EQ(daemon.fast_path()->window_stats().promotions, 1u);
  EXPECT_EQ(engine_->RegionTier(0), 0);
  EXPECT_EQ(engine_->PagesPerTier()[0], kPagesPerRegion);
  EXPECT_EQ(system_.obs().metrics.GetCounter("fastpath/promotions").value(), 1u);

  // The closing record carries the mid-window activity.
  ASSERT_TRUE(daemon.OnWindowEnd().ok());
  EXPECT_EQ(daemon.history().back().fast_path_promotions, 1u);
}

TEST_F(FastPathFixture, PromotionBudgetDropsExcessTriggers) {
  AnalyticalPolicy policy(0.0);
  DaemonConfig config = PlaceConfig();
  config.fast_path.promote_hits = 3;
  config.fast_path.max_promotions_per_window = 1;
  TsDaemon daemon(*engine_, &policy, config);
  ASSERT_TRUE(daemon.OnWindowEnd().ok());

  TouchRegion(daemon, 0, 3);
  TouchRegion(daemon, 1, 3);
  const FastPath::WindowStats& stats = daemon.fast_path()->window_stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.dropped_budget, 1u);
  EXPECT_EQ(engine_->RegionTier(0), 0);
  EXPECT_NE(engine_->RegionTier(1), 0);  // budget held the second trigger
}

// --- Ping-pong damping ------------------------------------------------------

TEST_F(FastPathFixture, PingPongPinHoldsRegionThenExpires) {
  AnalyticalPolicy policy(0.0);
  DaemonConfig config = PlaceConfig();
  config.fast_path.promote_hits = 3;
  config.fast_path.pin_windows = 4;
  TsDaemon daemon(*engine_, &policy, config);

  // Window 0 demotes region 0; the fast path re-promotes it within the
  // ping-pong horizon, which creates a pin.
  ASSERT_TRUE(daemon.OnWindowEnd().ok());
  TouchRegion(daemon, 0, 3);
  ASSERT_EQ(daemon.fast_path()->window_stats().promotions, 1u);
  EXPECT_EQ(daemon.fast_path()->window_stats().pingpong_pins, 1u);
  ASSERT_EQ(daemon.fast_path()->pinned_regions().size(), 1u);
  EXPECT_EQ(daemon.fast_path()->pinned_regions()[0], 0u);

  // For pin_windows boundaries the policy keeps demanding the demotion and
  // the filter's unconditional pinned class keeps dropping it.
  for (int boundary = 0; boundary < 4; ++boundary) {
    ASSERT_TRUE(daemon.OnWindowEnd().ok());
    const auto& record = daemon.history().back();
    EXPECT_GE(record.filter.dropped_pinned, 1u) << "boundary " << boundary;
    EXPECT_EQ(engine_->RegionTier(0), 0) << "boundary " << boundary;
  }
  EXPECT_EQ(daemon.history().back().pinned_regions, 0u);  // pin just expired
  EXPECT_EQ(system_.obs().metrics.GetCounter("fastpath/pingpong_pins").value(), 1u);

  // First boundary after expiry: the demotion finally lands.
  ASSERT_TRUE(daemon.OnWindowEnd().ok());
  EXPECT_EQ(daemon.history().back().filter.dropped_pinned, 0u);
  EXPECT_NE(engine_->RegionTier(0), 0);
  EXPECT_EQ(engine_->PagesPerTier()[0], 0u);
}

// --- Degradation backpressure ----------------------------------------------

TEST(FastPathBackpressure, DegradedWindowsRaiseKThenSuppress) {
  FaultConfig fault;
  fault.seed = 61;
  fault.solver_timeout_rate = 1.0;  // every solve fails -> every window degraded
  SystemConfig system_config = StandardMixConfig(64 * kMiB, 128 * kMiB);
  system_config.fault = fault;
  TieredSystem system(system_config);
  AddressSpace space;
  space.Allocate("data", 16 * kMiB, CorpusProfile::kDickens);
  TieringEngine engine(space, system.tiers(), EngineConfig{.pebs_period = 1});
  ASSERT_TRUE(engine.PlaceInitial().ok());
  AnalyticalPolicy policy(0.3);
  DaemonConfig config;
  config.profile_window = 1000 * kSecond;
  config.fast_path.enabled = true;
  config.fast_path.promote_hits = 2;
  config.fast_path.suppress_after = 3;
  TsDaemon daemon(engine, &policy, config);
  const FastPath* fast_path = daemon.fast_path();
  ASSERT_NE(fast_path, nullptr);
  EXPECT_EQ(fast_path->effective_promote_hits(), 2u);

  // Each consecutive degraded window doubles the effective K...
  ASSERT_TRUE(daemon.OnWindowEnd().ok());
  ASSERT_TRUE(daemon.history().back().degraded);
  EXPECT_EQ(fast_path->effective_promote_hits(), 4u);
  ASSERT_TRUE(daemon.OnWindowEnd().ok());
  EXPECT_EQ(fast_path->effective_promote_hits(), 8u);

  // ...until suppress_after, where speculative promotion disarms entirely.
  ASSERT_TRUE(daemon.OnWindowEnd().ok());
  EXPECT_TRUE(fast_path->suppressed());
  EXPECT_EQ(fast_path->effective_promote_hits(), 0u);
  EXPECT_EQ(engine.sampler().streak_threshold(), 0u);
  for (int i = 0; i < 32; ++i) {
    engine.Access((i % 4) * kPageSize, false);
    ASSERT_TRUE(daemon.Observe(AccessEvent{}).ok());
  }
  EXPECT_EQ(fast_path->window_stats().promotions, 0u);
  EXPECT_GE(system.obs().metrics.GetCounter("fastpath/suppressed_windows").value(), 1u);

  // A clean window resets the ladder and re-arms the detector at the base K.
  system.fault()->set_armed(false);
  ASSERT_TRUE(daemon.OnWindowEnd().ok());
  EXPECT_FALSE(daemon.history().back().degraded);
  EXPECT_FALSE(fast_path->suppressed());
  EXPECT_EQ(fast_path->effective_promote_hits(), 2u);
  EXPECT_EQ(engine.sampler().streak_threshold(), 2u);
}

// The flash-crowd pattern fig11b runs at full scale, shrunk to test size: the
// cold range bursts hot mid-run and the fast path promotes mid-window.
MasimConfig FlashCrowdConfig() {
  MasimConfig config = DefaultMasimConfig(32 * kMiB);
  config.flash_crowd_at_op = 4000;
  config.flash_crowd_region = 2;  // masim/cold
  config.flash_crowd_weight = 300.0;
  return config;
}

// --- Determinism ------------------------------------------------------------

TEST(FastPathDeterminism, ByteIdenticalAcrossEngineThreads) {
  // Engine migrate threads are a wall-clock-only knob; with the fast path
  // driving mid-window migrations the contract must hold unchanged: metrics
  // (wall/ excluded), traces, and per-window fast-path accounting are
  // byte-identical at every thread count.
  struct RunOutput {
    ExperimentResult result;
    std::string metrics_jsonl;
    std::string trace_jsonl;
  };
  auto run = [](int threads) {
    Observability obs;
    obs.trace.SetEnabled(true);
    SystemConfig system_config = StandardMixConfig(64 * kMiB, 256 * kMiB);
    system_config.obs = &obs;
    TieredSystem system(system_config);
    MasimWorkload workload(FlashCrowdConfig());
    AnalyticalPolicy policy(0.3);
    ExperimentConfig config;
    config.ops = 12000;
    config.target_windows = 6;
    config.engine.pebs_period = 16;
    config.engine.migrate_threads = threads;
    config.engine.check_tier_counts = true;
    config.daemon.fast_path.enabled = true;
    RunOutput output;
    output.result = RunExperiment(system, workload, &policy, config);
    output.metrics_jsonl = SnapshotToJsonl(obs.metrics.Snapshot(), WallMetrics::kExclude);
    output.trace_jsonl = obs.trace.ToJsonl();
    return output;
  };
  const RunOutput base = run(1);
  std::uint64_t base_promotions = 0;
  for (const auto& window : base.result.windows) {
    base_promotions += window.fast_path_promotions;
  }
  EXPECT_GT(base_promotions, 0u);  // the fast path actually fired
  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunOutput other = run(threads);
    EXPECT_EQ(base.metrics_jsonl, other.metrics_jsonl);
    EXPECT_EQ(base.trace_jsonl, other.trace_jsonl);
    EXPECT_DOUBLE_EQ(base.result.slowdown, other.result.slowdown);
    EXPECT_EQ(base.result.migrated_pages, other.result.migrated_pages);
    ASSERT_EQ(base.result.windows.size(), other.result.windows.size());
    for (std::size_t w = 0; w < base.result.windows.size(); ++w) {
      EXPECT_EQ(base.result.windows[w].fast_path_promotions,
                other.result.windows[w].fast_path_promotions);
      EXPECT_EQ(base.result.windows[w].fast_path_pins,
                other.result.windows[w].fast_path_pins);
      EXPECT_EQ(base.result.windows[w].pinned_regions,
                other.result.windows[w].pinned_regions);
      EXPECT_EQ(base.result.windows[w].actual_pages, other.result.windows[w].actual_pages);
    }
  }
}

}  // namespace
}  // namespace tierscape
