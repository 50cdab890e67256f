// Tests for deterministic fault injection (DESIGN.md §4d): the seeded
// injector itself, every hook site (compressed-tier store, medium allocation,
// solver entry, sampler drain), and the graceful-degradation ladder the
// engine and daemon build on top (retry-with-backoff, partial placement,
// solver fallback, degraded-window accounting).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/compress/corpus.h"
#include "src/core/analytical.h"
#include "src/fault/fault_injector.h"
#include "src/mem/medium.h"
#include "src/solver/mckp.h"
#include "src/telemetry/sampler.h"
#include "src/tiering/engine.h"
#include "src/workloads/driver.h"
#include "src/workloads/masim.h"

namespace tierscape {
namespace {

// --- FaultConfig ----------------------------------------------------------

TEST(FaultConfigTest, ValidationRejectsBadKnobs) {
  FaultConfig config;
  EXPECT_TRUE(config.Validate().ok());  // defaults are valid (and disabled)
  EXPECT_FALSE(config.enabled());

  config.store_reject_rate = 1.5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.store_reject_rate = -0.1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.store_reject_rate = 0.0;

  config.sampler_drop_rate = 0.5;
  config.sampler_drop_burst = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.sampler_drop_burst = 1;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(FaultConfigTest, UniformSetsEverySiteAndSeedEnables) {
  const FaultConfig config = FaultConfig::Uniform(42, 0.25);
  EXPECT_TRUE(config.enabled());
  for (int i = 0; i < kFaultSiteCount; ++i) {
    EXPECT_DOUBLE_EQ(config.RateFor(static_cast<FaultSite>(i)), 0.25);
  }
  EXPECT_FALSE(FaultConfig::Uniform(0, 0.25).enabled());  // seed 0 = off
}

// --- FaultInjector --------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameSequence) {
  FaultInjector a(FaultConfig::Uniform(7, 0.2));
  FaultInjector b(FaultConfig::Uniform(7, 0.2));
  std::uint64_t fired = 0;
  for (int i = 0; i < 1000; ++i) {
    const bool fa = a.ShouldFail(FaultSite::kStoreReject);
    EXPECT_EQ(fa, b.ShouldFail(FaultSite::kStoreReject));
    fired += fa ? 1 : 0;
  }
  // Bernoulli(0.2) over 1000 draws: comfortably inside [100, 320].
  EXPECT_GT(fired, 100u);
  EXPECT_LT(fired, 320u);
  EXPECT_EQ(a.draws(FaultSite::kStoreReject), 1000u);
  EXPECT_EQ(a.injected(FaultSite::kStoreReject), fired);
  EXPECT_EQ(a.injected_total(), fired);
}

TEST(FaultInjectorTest, SitesDrawIndependentStreams) {
  // Interleaving queries at another site must not shift a site's sequence.
  FaultInjector interleaved(FaultConfig::Uniform(11, 0.3));
  FaultInjector solo(FaultConfig::Uniform(11, 0.3));
  for (int i = 0; i < 500; ++i) {
    interleaved.ShouldFail(FaultSite::kSolverTimeout);
    interleaved.ShouldFail(FaultSite::kMediumExhausted);
    EXPECT_EQ(interleaved.ShouldFail(FaultSite::kStoreTransient),
              solo.ShouldFail(FaultSite::kStoreTransient));
  }
}

TEST(FaultInjectorTest, DisarmedQueriesConsumeNoDraw) {
  // A disarmed (setup-phase) query returns false and must not advance the
  // draw counter: arming later yields the same measured-phase sequence as a
  // fresh injector.
  FaultInjector warmed(FaultConfig::Uniform(13, 0.5));
  warmed.set_armed(false);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(warmed.ShouldFail(FaultSite::kStoreReject));
  }
  EXPECT_EQ(warmed.draws(FaultSite::kStoreReject), 0u);
  warmed.set_armed(true);

  FaultInjector fresh(FaultConfig::Uniform(13, 0.5));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(warmed.ShouldFail(FaultSite::kStoreReject),
              fresh.ShouldFail(FaultSite::kStoreReject));
  }
}

TEST(FaultInjectorTest, ZeroRateAndDisabledConsumeNoDraw) {
  FaultConfig config;
  config.seed = 17;
  config.store_reject_rate = 1.0;  // only this site armed
  FaultInjector fault(config);
  EXPECT_FALSE(fault.ShouldFail(FaultSite::kSolverTimeout));  // rate 0
  EXPECT_EQ(fault.draws(FaultSite::kSolverTimeout), 0u);
  EXPECT_TRUE(fault.ShouldFail(FaultSite::kStoreReject));  // rate 1 always fires

  FaultInjector disabled{FaultConfig{}};
  EXPECT_FALSE(disabled.ShouldFail(FaultSite::kStoreReject));
  EXPECT_EQ(disabled.draws(FaultSite::kStoreReject), 0u);
}

TEST(FaultInjectorTest, InjectionsLandInFaultMetricSubtree) {
  Observability obs;
  FaultInjector fault(FaultConfig::Uniform(19, 1.0), &obs);
  fault.ShouldFail(FaultSite::kMediumExhausted);
  fault.ShouldFail(FaultSite::kMediumExhausted);
  fault.CountDroppedSamples(5);
  EXPECT_EQ(obs.metrics.GetCounter("fault/injected/medium_exhausted").value(), 2u);
  EXPECT_EQ(obs.metrics.GetCounter("fault/sampler/dropped_samples").value(), 5u);
}

// --- Hook sites -----------------------------------------------------------

std::vector<std::byte> Page(CorpusProfile profile, std::uint64_t seed) {
  std::vector<std::byte> page(kPageSize);
  FillPage(profile, seed, page);
  return page;
}

TEST(FaultHookTest, TransientStoreFailureSurfacesAsUnavailable) {
  FaultConfig config;
  config.seed = 23;
  config.store_transient_rate = 1.0;
  Observability obs;
  FaultInjector fault(config, &obs);
  Medium dram(DramSpec(16 * kMiB));
  ZswapBackend backend(obs, &fault);
  CompressedTierConfig tier_config;
  tier_config.label = "CT";
  const int tier = *backend.AddTier(tier_config, dram);

  auto stored = backend.tier(tier).Store(Page(CorpusProfile::kNci, 1));
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(stored.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(backend.tier(tier).stored_pages(), 0u);
  EXPECT_EQ(fault.injected(FaultSite::kStoreTransient), 1u);
}

TEST(FaultHookTest, InjectedRejectCountsLikeARealOne) {
  FaultConfig config;
  config.seed = 29;
  config.store_reject_rate = 1.0;
  Observability obs;
  FaultInjector fault(config, &obs);
  Medium dram(DramSpec(16 * kMiB));
  ZswapBackend backend(obs, &fault);
  CompressedTierConfig tier_config;
  tier_config.label = "CT";
  const int tier = *backend.AddTier(tier_config, dram);

  // A perfectly compressible page still bounces: the injected reject hits
  // before compression and shows up in the tier's reject statistics.
  auto stored = backend.tier(tier).Store(Page(CorpusProfile::kNci, 2));
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(stored.status().code(), StatusCode::kRejected);
  EXPECT_EQ(backend.tier(tier).stats().rejects, 1u);
}

TEST(FaultHookTest, MediumExhaustionDeniesAllocationSpuriously) {
  FaultConfig config;
  config.seed = 31;
  config.medium_exhausted_rate = 1.0;
  FaultInjector fault(config);
  Medium dram(DramSpec(16 * kMiB), &fault);
  auto frame = dram.AllocFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(dram.used_frames(), 0u);  // nothing was actually consumed

  fault.set_armed(false);  // disarmed: the (empty) medium allocates fine
  EXPECT_TRUE(dram.AllocFrame().ok());
}

TEST(FaultHookTest, SolverTimeoutAndInfeasibilityInjected) {
  MckpProblem problem;
  problem.groups = {{{1.0, 1.0}, {2.0, 0.5}}, {{3.0, 2.0}, {1.0, 3.0}}};
  problem.capacity = 10.0;
  MckpSolver solver;
  EXPECT_TRUE(solver.Solve(problem).ok());  // sanity: solvable without faults

  FaultConfig timeout;
  timeout.seed = 37;
  timeout.solver_timeout_rate = 1.0;
  FaultInjector timeout_fault(timeout);
  solver.set_fault_injector(&timeout_fault);
  auto timed_out = solver.Solve(problem);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  FaultConfig infeasible;
  infeasible.seed = 37;
  infeasible.solver_infeasible_rate = 1.0;
  FaultInjector infeasible_fault(infeasible);
  solver.set_fault_injector(&infeasible_fault);
  auto no_fit = solver.Solve(problem);
  ASSERT_FALSE(no_fit.ok());
  EXPECT_EQ(no_fit.status().code(), StatusCode::kResourceExhausted);

  solver.set_fault_injector(nullptr);
  EXPECT_TRUE(solver.Solve(problem).ok());
}

TEST(FaultHookTest, SamplerDropsABurstInAscendingRegionOrder) {
  FaultConfig config;
  config.seed = 41;
  config.sampler_drop_rate = 1.0;
  config.sampler_drop_burst = 3;
  FaultInjector fault(config);
  PebsSampler sampler(/*period=*/1, &fault);  // every access samples
  // Two samples each in regions 0, 1, 2.
  for (std::uint64_t region = 0; region < 3; ++region) {
    sampler.OnAccess(region * kRegionSize, false);
    sampler.OnAccess(region * kRegionSize + kPageSize, false);
  }
  const auto window = sampler.DrainWindow();
  // Burst of 3 eats region 0 entirely (2 samples) and one of region 1's.
  EXPECT_EQ(window.count(0), 0u);
  ASSERT_EQ(window.count(1), 1u);
  EXPECT_EQ(window.at(1), 1u);
  EXPECT_EQ(window.at(2), 2u);
  EXPECT_EQ(sampler.dropped_samples(), 3u);
  EXPECT_EQ(fault.injected(FaultSite::kSamplerDrop), 1u);
}

// --- Graceful degradation -------------------------------------------------

struct EngineRig {
  explicit EngineRig(const FaultConfig& fault_config, EngineConfig engine_config = {})
      : fault(fault_config, &obs), dram(DramSpec(64 * kMiB)), nvmm(NvmmSpec(64 * kMiB)),
        zswap(obs, &fault) {
    CompressedTierConfig ct_config;
    ct_config.label = "CT";
    ct = *zswap.AddTier(ct_config, nvmm);
    tiers.set_obs(&obs);
    tiers.set_fault(&fault);
    TS_CHECK(tiers.AddByteTier(dram).ok());
    TS_CHECK(tiers.AddCompressedTier(zswap.tier(ct)).ok());
    space.Allocate("a", 2 * kMiB, CorpusProfile::kNci);
    engine = std::make_unique<TieringEngine>(space, tiers, engine_config);
    TS_CHECK(engine->PlaceInitial().ok());
  }

  Observability obs;
  FaultInjector fault;
  Medium dram;
  Medium nvmm;
  ZswapBackend zswap;
  TierTable tiers;
  AddressSpace space;
  std::unique_ptr<TieringEngine> engine;
  int ct = -1;
};

TEST(GracefulDegradationTest, TransientFailuresRetryThenShortfall) {
  FaultConfig config;
  config.seed = 43;
  config.store_transient_rate = 0.5;
  EngineRig rig(config);
  const Nanos before = rig.engine->now();
  auto outcome = rig.engine->MigrateRegion(0, 1);
  ASSERT_TRUE(outcome.ok());
  // Every page is accounted for exactly once.
  EXPECT_EQ(outcome->moved + outcome->rejected + outcome->shortfall, kPagesPerRegion);
  EXPECT_GT(outcome->moved, 0u);
  EXPECT_GT(outcome->retries, 0u);
  EXPECT_GT(outcome->transient_failures, 0u);
  EXPECT_GT(outcome->retry_backoff_ns, 0u);
  // Retry backoff is charged to virtual time through the migration clock.
  EXPECT_GT(rig.engine->now(), before);
  // fault/engine counters mirror the outcome.
  EXPECT_EQ(rig.obs.metrics.GetCounter("fault/engine/retries").value(), outcome->retries);
  EXPECT_EQ(rig.obs.metrics.GetCounter("fault/engine/shortfall_pages").value(),
            outcome->shortfall);
}

TEST(GracefulDegradationTest, RetryOutcomeDeterministicAcrossRunsAndThreads) {
  FaultConfig config;
  config.seed = 47;
  config.store_transient_rate = 0.4;
  auto run = [&config](int threads) {
    EXPECT_TRUE(ThreadPool::SetSharedThreadsForTesting(threads).ok());
    EngineRig rig(config);
    auto outcome = rig.engine->MigrateRegion(0, 1);
    TS_CHECK(outcome.ok());
    return std::pair<TieringEngine::MigrateOutcome, Nanos>(*outcome, rig.engine->now());
  };
  const auto [base, base_now] = run(1);
  for (int threads : {4, 8}) {
    const auto [other, other_now] = run(threads);
    EXPECT_EQ(base.moved, other.moved);
    EXPECT_EQ(base.rejected, other.rejected);
    EXPECT_EQ(base.shortfall, other.shortfall);
    EXPECT_EQ(base.retries, other.retries);
    EXPECT_EQ(base.retry_backoff_ns, other.retry_backoff_ns);
    EXPECT_EQ(base_now, other_now);
  }
}

TEST(GracefulDegradationTest, SolverTimeoutFallsBackAndMarksWindowsDegraded) {
  FaultConfig fault;
  fault.seed = 53;
  fault.solver_timeout_rate = 1.0;
  SystemConfig system_config = StandardMixConfig(64 * kMiB, 256 * kMiB);
  system_config.fault = fault;
  TieredSystem system(system_config);
  MasimWorkload workload(DefaultMasimConfig(32 * kMiB));
  AnalyticalPolicy policy(0.3);
  ExperimentConfig config;
  config.ops = 6000;
  config.target_windows = 3;
  const ExperimentResult result = RunExperiment(system, workload, &policy, config);

  // Every solve timed out: every window degraded to the fallback plan, and
  // with no prior plan ever succeeding the fallback holds the current
  // placement — nothing migrates, nothing crashes.
  ASSERT_GT(result.windows.size(), 0u);
  EXPECT_EQ(result.degraded_windows, result.windows.size());
  for (const auto& window : result.windows) {
    EXPECT_TRUE(window.degraded);
    EXPECT_TRUE(window.solver_fallback);
    EXPECT_EQ(window.migrated_pages, 0u);
  }
  EXPECT_GT(result.injected_faults, 0u);
  EXPECT_EQ(system.obs().metrics.GetCounter("fault/daemon/solver_fallbacks").value(),
            result.windows.size());
}

TEST(GracefulDegradationTest, FailedSolvesReportTheirOwnSolveTime) {
  // A timed-out window records the time its own solve took, not the previous
  // window's, so the run's total equals the policy's.
  FaultConfig fault;
  fault.seed = 67;
  fault.solver_timeout_rate = 0.5;
  SystemConfig system_config = StandardMixConfig(64 * kMiB, 256 * kMiB);
  system_config.fault = fault;
  TieredSystem system(system_config);
  MasimWorkload workload(DefaultMasimConfig(32 * kMiB));
  AnalyticalPolicy policy(0.3);
  ExperimentConfig config;
  config.ops = 8000;
  config.target_windows = 8;
  const ExperimentResult result = RunExperiment(system, workload, &policy, config);

  std::size_t fallbacks = 0;
  for (const auto& window : result.windows) {
    fallbacks += window.solver_fallback ? 1 : 0;
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_LT(fallbacks, result.windows.size());
  EXPECT_EQ(result.total_solve_ms, policy.stats().total_solve_ms);
}

TEST(GracefulDegradationTest, ModerateFaultsStillMakePlacementProgress) {
  FaultConfig fault = FaultConfig::Uniform(59, 0.1);
  SystemConfig system_config = StandardMixConfig(64 * kMiB, 256 * kMiB);
  system_config.fault = fault;
  TieredSystem system(system_config);
  MasimWorkload workload(DefaultMasimConfig(32 * kMiB));
  AnalyticalPolicy policy(0.3);
  ExperimentConfig config;
  config.ops = 10000;
  config.target_windows = 5;
  const ExperimentResult result = RunExperiment(system, workload, &policy, config);

  EXPECT_GT(result.injected_faults, 0u);
  EXPECT_GT(result.migrated_pages, 0u);  // degradation, not paralysis
  EXPECT_GT(result.mean_tco_savings, 0.0);
  // The disarm/arm protocol ran setup fault-free: the run completed without
  // a placement TS_CHECK tripping, and faults only hit measured windows.
  EXPECT_EQ(result.op_latency_ns.count(), config.ops);
}

}  // namespace
}  // namespace tierscape
