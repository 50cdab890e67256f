// Multi-tenant colocation subsystem (DESIGN.md §4f): arbiter share math and
// the MultiTenantDaemon's determinism contract — the daemon's pool size is a
// wall-clock-only knob, so merged metrics, traces, and window history must be
// byte-identical across {1, 4, 8} worker threads for any tenant count.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/multitenant/arbiter.h"
#include "src/multitenant/multi_tenant_daemon.h"
#include "src/workloads/tenant_mix.h"

namespace tierscape {
namespace {

// ---------------------------------------------------------------- arbiter --

ArbiterConfig SmallPools(ArbiterPolicy policy) {
  ArbiterConfig config;
  config.policy = policy;
  config.dram_pool_bytes = 16 * kMiB;
  config.ct_pool_bytes = 8 * kMiB;
  return config;
}

std::vector<TenantDemand> MixedDemands(int n) {
  std::vector<TenantDemand> demands(n);
  for (int i = 0; i < n; ++i) {
    demands[i].tenant = i;
    demands[i].priority = 1.0 + i;
    demands[i].footprint_bytes = (i + 1) * kMiB;
    demands[i].window_faults = static_cast<std::uint64_t>(10 * i);
    demands[i].marginal_gradient = i == 0 ? 0.0 : 100.0 * i;
  }
  return demands;
}

TEST(ArbiterTest, GrantsSumToPoolAcrossPolicies) {
  for (const ArbiterPolicy policy :
       {ArbiterPolicy::kStaticShares, ArbiterPolicy::kFairShare,
        ArbiterPolicy::kPriorityWeighted, ArbiterPolicy::kUtility}) {
    for (const int n : {1, 2, 3, 7}) {
      Observability obs;
      GlobalArbiter arbiter(SmallPools(policy), obs);
      auto grants = arbiter.Divide(MixedDemands(n));
      ASSERT_TRUE(grants.ok()) << grants.status().ToString();
      ASSERT_EQ(grants->size(), static_cast<std::size_t>(n));
      std::size_t dram = 0;
      std::size_t ct = 0;
      for (const TenantGrant& grant : *grants) {
        EXPECT_EQ(grant.dram_bytes % kPageSize, 0u);
        dram += grant.dram_bytes;
        ct += grant.ct_bytes;
      }
      EXPECT_EQ(dram, 16 * kMiB) << ArbiterPolicyName(policy) << " n=" << n;
      EXPECT_EQ(ct, 8 * kMiB) << ArbiterPolicyName(policy) << " n=" << n;
    }
  }
}

TEST(ArbiterTest, FairShareFloorPreventsStarvation) {
  // Tenant 0 has zero weight under every dynamic policy (no footprint, no
  // priority, no gradient); the floor must still guarantee its slice.
  for (const ArbiterPolicy policy : {ArbiterPolicy::kFairShare,
                                     ArbiterPolicy::kPriorityWeighted, ArbiterPolicy::kUtility}) {
    Observability obs;
    ArbiterConfig config = SmallPools(policy);
    config.fair_share_floor = 0.5;
    GlobalArbiter arbiter(config, obs);
    std::vector<TenantDemand> demands = MixedDemands(4);
    demands[0].priority = 0.0;
    demands[0].footprint_bytes = 0;
    demands[0].marginal_gradient = 0.0;
    auto grants = arbiter.Divide(demands);
    ASSERT_TRUE(grants.ok());
    // Floor share = 0.5 / 4 = 12.5% of the pool, frame-rounded.
    const std::size_t floor_bytes = 16 * kMiB / 8;
    EXPECT_GE((*grants)[0].dram_bytes + kPageSize, floor_bytes)
        << ArbiterPolicyName(policy);
  }
}

TEST(ArbiterTest, UtilityFollowsGradientAndPriorityFollowsPriority) {
  Observability obs_u;
  GlobalArbiter utility(SmallPools(ArbiterPolicy::kUtility), obs_u);
  auto grants = utility.Divide(MixedDemands(4));
  ASSERT_TRUE(grants.ok());
  // Gradients rise with the index, so grants must be non-decreasing.
  for (int i = 1; i < 4; ++i) {
    EXPECT_GE((*grants)[i].dram_bytes, (*grants)[i - 1].dram_bytes) << i;
  }

  Observability obs_p;
  GlobalArbiter priority(SmallPools(ArbiterPolicy::kPriorityWeighted), obs_p);
  auto by_priority = priority.Divide(MixedDemands(4));
  ASSERT_TRUE(by_priority.ok());
  for (int i = 1; i < 4; ++i) {
    EXPECT_GE((*by_priority)[i].dram_bytes, (*by_priority)[i - 1].dram_bytes) << i;
  }
}

TEST(ArbiterTest, UtilityFallsBackToFaultPressureThenEqual) {
  Observability obs;
  GlobalArbiter arbiter(SmallPools(ArbiterPolicy::kUtility), obs);
  // No gradients anywhere: fault pressure (rising with index) decides.
  std::vector<TenantDemand> demands = MixedDemands(3);
  for (auto& demand : demands) {
    demand.marginal_gradient = 0.0;
  }
  auto grants = arbiter.Divide(demands);
  ASSERT_TRUE(grants.ok());
  EXPECT_GT((*grants)[2].dram_bytes, (*grants)[0].dram_bytes);

  // No signal at all: equal split.
  for (auto& demand : demands) {
    demand.window_faults = 0;
  }
  auto equal = arbiter.Divide(demands);
  ASSERT_TRUE(equal.ok());
  // Equal split up to largest-remainder frame rounding (4096 frames / 3).
  EXPECT_LE((*equal)[0].dram_bytes - (*equal)[1].dram_bytes, kPageSize);
  EXPECT_GE((*equal)[0].dram_bytes + kPageSize, (*equal)[1].dram_bytes);
}

TEST(ArbiterTest, SmoothingDampsGrantSwings) {
  // Same demand sequence through an instant and a damped arbiter: when the
  // gradient signal flips between tenants, EWMA smoothing must shrink the
  // rebalance without freezing it entirely.
  ArbiterConfig raw = SmallPools(ArbiterPolicy::kUtility);
  ArbiterConfig smooth = raw;
  smooth.share_smoothing = 0.25;
  EXPECT_FALSE([&] {
    ArbiterConfig bad = raw;
    bad.share_smoothing = 0.0;
    return bad.Validate();
  }().ok());
  Observability obs_instant;
  Observability obs_damped;
  GlobalArbiter instant(raw, obs_instant);
  GlobalArbiter damped(smooth, obs_damped);
  std::vector<TenantDemand> demands = MixedDemands(2);
  ASSERT_TRUE(instant.Divide(demands).ok());
  ASSERT_TRUE(damped.Divide(demands).ok());
  std::swap(demands[0].marginal_gradient, demands[1].marginal_gradient);
  ASSERT_TRUE(instant.Divide(demands).ok());
  ASSERT_TRUE(damped.Divide(demands).ok());
  EXPECT_GT(damped.last_rebalanced_bytes(), 0u);
  EXPECT_LT(damped.last_rebalanced_bytes(), instant.last_rebalanced_bytes());
}

TEST(ArbiterTest, RebalancedBytesTracksGrantChanges) {
  Observability obs;
  GlobalArbiter arbiter(SmallPools(ArbiterPolicy::kUtility), obs);
  std::vector<TenantDemand> demands = MixedDemands(2);
  ASSERT_TRUE(arbiter.Divide(demands).ok());
  EXPECT_EQ(arbiter.last_rebalanced_bytes(), 0u);  // first division: no delta
  ASSERT_TRUE(arbiter.Divide(demands).ok());
  EXPECT_EQ(arbiter.last_rebalanced_bytes(), 0u);  // same demands: no delta
  std::swap(demands[0].marginal_gradient, demands[1].marginal_gradient);
  demands[0].marginal_gradient *= 4.0;
  ASSERT_TRUE(arbiter.Divide(demands).ok());
  EXPECT_GT(arbiter.last_rebalanced_bytes(), 0u);
}

// ----------------------------------------------------------------- daemon --

MultiTenantConfig SmallColocation(int threads) {
  MultiTenantConfig config;
  config.arbiter.policy = ArbiterPolicy::kUtility;
  config.arbiter.dram_pool_bytes = 48 * kMiB;
  config.arbiter.ct_pool_bytes = 64 * kMiB;
  config.system = StandardMixConfig(/*dram_bytes=*/0, /*nvmm_bytes=*/256 * kMiB);
  config.ops_per_window = 400;
  config.windows = 3;
  config.threads = threads;
  config.trace = true;
  return config;
}

struct ColocationRun {
  std::string metrics;
  std::string trace;
  std::string history;
};

ColocationRun RunColocation(int threads, int tenants) {
  EXPECT_TRUE(ThreadPool::SetSharedThreadsForTesting(threads).ok());
  Observability parent;
  MultiTenantConfig config = SmallColocation(threads);
  config.obs = &parent;
  MultiTenantDaemon daemon(config);
  const char* workloads[] = {"masim", "memcached-ycsb", "graphsage"};
  for (int i = 0; i < tenants; ++i) {
    TenantSpec spec;
    spec.label = "t" + std::to_string(i);
    spec.alpha = 0.2 + 0.15 * (i % 4);
    spec.priority = 1.0 + (i % 3);
    const std::string name = workloads[i % 3];
    const Status added = daemon.AddTenant(
        std::move(spec),
        [&name](std::uint64_t seed) { return MakeTenantApp(name, 0.25, seed); });
    EXPECT_TRUE(added.ok()) << added.ToString();
  }
  const Status ran = daemon.Run();
  EXPECT_TRUE(ran.ok()) << ran.ToString();

  ColocationRun run;
  run.metrics = daemon.MergedMetricsJsonl();
  run.trace = daemon.MergedTraceJson();
  std::ostringstream history;
  for (const MultiTenantDaemon::WindowRecord& record : daemon.history()) {
    history << record.window << " tco=" << record.aggregate_tco
            << " savings=" << record.aggregate_tco_savings
            << " max_slowdown=" << record.max_slowdown
            << " rebalanced=" << record.rebalanced_bytes;
    for (const TenantGrant& grant : record.grants) {
      history << " [" << grant.dram_bytes << "," << grant.ct_bytes << "]";
    }
    for (const TenantDemand& demand : record.demands) {
      history << " g=" << demand.marginal_gradient << " f=" << demand.window_faults;
    }
    history << "\n";
  }
  run.history = history.str();
  return run;
}

TEST(MultiTenantTest, DeterministicAcrossThreads) {
  for (const int tenants : {2, 4, 8}) {
    const ColocationRun serial = RunColocation(1, tenants);
    EXPECT_FALSE(serial.history.empty());
    for (const int threads : {4, 8}) {
      const ColocationRun parallel = RunColocation(threads, tenants);
      EXPECT_EQ(serial.metrics, parallel.metrics) << tenants << "x" << threads;
      EXPECT_EQ(serial.trace, parallel.trace) << tenants << "x" << threads;
      EXPECT_EQ(serial.history, parallel.history) << tenants << "x" << threads;
    }
  }
}

TEST(MultiTenantTest, GrantsBiteAndHistoryIsComplete) {
  const ColocationRun run = RunColocation(1, 4);
  // Window records carry one grant + demand per tenant per window.
  std::istringstream lines(run.history);
  std::string line;
  int windows = 0;
  while (std::getline(lines, line)) {
    ++windows;
  }
  EXPECT_EQ(windows, 3);
  // Per-tenant subtrees made it into the merged export.
  EXPECT_NE(run.metrics.find("tenant/t0/engine/"), std::string::npos);
  EXPECT_NE(run.metrics.find("tenant/t3/engine/"), std::string::npos);
  EXPECT_NE(run.metrics.find("arbiter/decisions"), std::string::npos);
  EXPECT_NE(run.metrics.find("aggregate/tco_savings"), std::string::npos);
  // wall/ metrics stay quarantined out of the deterministic export.
  EXPECT_EQ(run.metrics.find("\"name\":\"wall/"), std::string::npos);
}

TEST(MultiTenantTest, RejectsDuplicateLabelsAndDoubleRun) {
  Observability parent;
  MultiTenantConfig config = SmallColocation(1);
  config.obs = &parent;
  MultiTenantDaemon daemon(config);
  auto make = [](std::uint64_t seed) { return MakeTenantApp("masim", 0.25, seed); };
  ASSERT_TRUE(daemon.AddTenant({.label = "a"}, make).ok());
  EXPECT_FALSE(daemon.AddTenant({.label = "a"}, make).ok());
  ASSERT_TRUE(daemon.Run().ok());
  EXPECT_FALSE(daemon.Run().ok());
  EXPECT_FALSE(daemon.AddTenant({.label = "b"}, make).ok());
}

TEST(MultiTenantTest, TenantSeedsAreDecorrelated) {
  // Same workload name, adjacent tenant indices: SplitSeed must hand the
  // generators different streams (guards a regression to `seed + i`).
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(42, 1));
  EXPECT_NE(SplitSeed(42, 1), SplitSeed(43, 0));
  const ColocationRun run = RunColocation(1, 2);
  EXPECT_FALSE(run.metrics.empty());
}

}  // namespace
}  // namespace tierscape
