// Multi-tenant colocation (DESIGN.md §4f, Figure 16).
//
// MultiTenantDaemon hosts N independent tenants — each with its own workload,
// address space, tiered assembly, TS-Daemon, observability scope, and
// SplitSeed-derived seed — over shared DRAM and compressed-pool capacity. A
// GlobalArbiter re-divides the shared pools at every window boundary; grants
// are enforced by the Medium / CompressedTier grant caps, so a tenant at its
// grant experiences ordinary capacity pressure (spill, shortfall, degraded
// promotes) rather than failure.
//
// Determinism (thread_pool.h invariant): per-tenant window shards run
// concurrently on the daemon's pool, but each worker touches only its
// tenant's slot (engine, daemon, observability, demand scratch). Arbiter
// decisions, grant application, virtual-time charges, and parent-scope metric
// updates all happen on the orchestrator thread in ascending tenant order,
// so results are byte-identical across pool sizes
// (MultiTenantTest.DeterministicAcrossThreads).
#ifndef SRC_MULTITENANT_MULTI_TENANT_DAEMON_H_
#define SRC_MULTITENANT_MULTI_TENANT_DAEMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/tier_specs.h"
#include "src/core/ts_daemon.h"
#include "src/multitenant/arbiter.h"
#include "src/tiering/engine.h"

namespace tierscape {

class ZswapAccessPath;

// A tenant's application: mirrors the Workload interface (workloads layer
// sits above this one, so the shape is restated here; WorkloadTenantApp in
// src/workloads/tenant_mix.h adapts any Workload).
class TenantApp {
 public:
  virtual ~TenantApp() = default;
  virtual std::string_view name() const = 0;
  // Reserves the tenant's segments. Called once, before its engine exists.
  virtual void Reserve(AddressSpace& space) = 0;
  // Warm-up (not measured): called once, after PlaceInitial and before the
  // first Op.
  virtual void Populate(TieringEngine& engine) {}
  // Executes one operation and returns its latency.
  virtual Nanos Op(TieringEngine& engine) = 0;
};

struct TenantSpec {
  std::string label;      // unique per daemon; names the metric subtree
  double priority = 1.0;  // weight under kPriorityWeighted
  // TCO knob for this tenant's placement policy: >= 0 runs the analytical
  // model at that alpha (its marginal gradient feeds the utility arbiter);
  // < 0 runs the Waterfall baseline (bids zero).
  double alpha = 0.35;
};

struct MultiTenantConfig {
  ArbiterConfig arbiter;
  // Per-tenant assembly template. dram_bytes is overridden with the arbiter's
  // DRAM pool size (every tenant sees the whole medium; the grant cap is the
  // partition); obs/fault seeds are replaced per tenant.
  SystemConfig system;
  EngineConfig engine;  // migrate_threads forced to 1 when threads > 1
  DaemonConfig daemon;  // window_ops overridden to ops_per_window (§4h shards)
  std::uint64_t ops_per_window = 2000;  // per tenant
  std::uint64_t windows = 8;
  int threads = 1;  // pool size for per-tenant shards (wall-clock only)
  std::uint64_t base_seed = 42;  // tenant i runs with SplitSeed(base_seed, i)
  bool trace = false;            // enable per-tenant trace recorders
  // Shared compressed side-cache (DESIGN.md §4g): when > 0, the daemon hosts
  // one extra shared 64 MiB Medium + ZswapBackend and every tenant window
  // shard churns (store → load → invalidate) this many entries per window
  // through the concurrent MPMC access path — the MaxMem-style colocation
  // pattern of tenant shards hitting shared compressed media at once. Keys
  // are partitioned by tenant index, latencies are pure functions of
  // compressed size parked in the tenant slot and charged on the orchestrator
  // in ascending tenant order, and all shared accounting commits at the
  // orchestrator's FlushAccounting — so results stay byte-identical across
  // pool sizes. 0 disables the cache (default; paper figures unchanged).
  std::uint64_t shared_cache_ops = 0;
  // Parent observability scope (arbiter + aggregate metrics). Null means the
  // process-wide default; tests pass a private instance.
  Observability* obs = nullptr;

  Status Validate() const;
};

class MultiTenantDaemon {
 public:
  // One arbitration round plus the per-tenant standing it saw — what
  // fig16_colocation plots.
  struct WindowRecord {
    std::uint64_t window = 0;
    std::vector<TenantGrant> grants;    // by tenant index
    std::vector<TenantDemand> demands;  // standing the grants were based on
    double aggregate_tco = 0.0;
    double aggregate_tco_savings = 0.0;  // 1 - sum(tco) / sum(dram_only_tco)
    double max_slowdown = 0.0;
    std::size_t rebalanced_bytes = 0;
  };

  struct TenantResult {
    std::string label;
    double slowdown = 1.0;
    double tco_savings = 0.0;
    std::uint64_t faults = 0;
    std::uint64_t migrated_pages = 0;
    std::size_t final_dram_grant = 0;
  };

  struct Totals {
    double aggregate_tco = 0.0;
    double aggregate_tco_savings = 0.0;
    double mean_slowdown = 1.0;
    double max_slowdown = 1.0;
    std::uint64_t total_faults = 0;
  };

  explicit MultiTenantDaemon(MultiTenantConfig config);

  // Registers a tenant. `make_app` receives the tenant's SplitSeed-derived
  // seed and builds its application. Must be called before Run.
  Status AddTenant(TenantSpec spec,
                   const std::function<StatusOr<std::unique_ptr<TenantApp>>(std::uint64_t seed)>&
                       make_app);

  // Builds every tenant's assembly, runs `windows` rounds of
  // (per-tenant shard -> arbitration -> grant application), records history.
  Status Run();

  const std::vector<WindowRecord>& history() const { return history_; }
  std::vector<TenantResult> TenantResults() const;
  Totals ComputeTotals() const;
  int tenant_count() const { return static_cast<int>(tenants_.size()); }
  GlobalArbiter& arbiter() { return *arbiter_; }

  // Merged deterministic exports: every tenant's metrics under
  // "tenant/<label>/..." plus the parent scope (arbiter/, aggregate/)
  // unprefixed; wall/ metrics excluded. Trace events get one track per
  // tenant, mirroring the bench grid's per-cell merge.
  std::string MergedMetricsJsonl() const;
  std::string MergedTraceJson() const;

 private:
  // Everything one tenant owns. Workers touch exactly one Tenant (their
  // index); the Status/TenantDemand scratch is committed by the orchestrator
  // after the shard barrier.
  struct Tenant {
    TenantSpec spec;
    std::uint64_t seed = 0;
    Observability obs;
    std::unique_ptr<TieredSystem> system;
    AddressSpace space;
    std::unique_ptr<TenantApp> app;
    std::unique_ptr<TieringEngine> engine;
    std::unique_ptr<PlacementPolicy> policy;
    std::unique_ptr<TsDaemon> daemon;
    // Worker-computed results for the current shard.
    Status status;
    TenantDemand demand;
    Nanos shared_cache_ns = 0;          // churn latency, charged at commit
    std::uint64_t shared_cache_seq = 0;  // per-tenant content-seed counter
    // Parent-scope gauges ("tenant/<label>/..."), resolved on the sequential
    // path at Run start.
    Gauge* m_tco_savings = nullptr;
    Gauge* m_slowdown = nullptr;
    Gauge* m_grant_dram = nullptr;
    Gauge* m_grant_ct = nullptr;
    Gauge* m_window_faults = nullptr;
  };

  Status BuildTenant(Tenant& tenant);
  // The parallel shard body: ops_per_window operations, one daemon window,
  // then the tenant's demand snapshot — all slot-owned state.
  void RunTenantShard(Tenant& tenant);
  void SetupTenantShard(Tenant& tenant);  // PlaceInitial + Populate
  void ApplyGrant(Tenant& tenant, const TenantGrant& grant);
  Status BuildSharedCache();
  // Worker-context churn through the MPMC access path: stores, loads, and
  // invalidates this tenant's key partition, accumulating latency into the
  // tenant slot. Drains everything it stores, so the shared pool is empty —
  // and its occupancy gauges deterministic — at every commit point.
  void ChurnSharedCache(Tenant& tenant);

  MultiTenantConfig config_;
  Observability* parent_obs_ = nullptr;  // resolved, never null
  std::unique_ptr<GlobalArbiter> arbiter_;
  // Shared compressed side-cache (only when shared_cache_ops > 0): private
  // obs scope (merged under "shared/cache/"), one medium, one backend, and
  // the MPMC access path the tenant shards hit concurrently.
  std::unique_ptr<Observability> shared_cache_obs_;
  std::unique_ptr<Medium> shared_cache_medium_;
  std::unique_ptr<ZswapBackend> shared_cache_;
  ZswapAccessPath* shared_cache_path_ = nullptr;  // owned by shared_cache_
  int shared_cache_tier_ = -1;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<TenantGrant> grants_;  // current grants, by tenant index
  std::vector<WindowRecord> history_;
  bool ran_ = false;
  Gauge* m_aggregate_tco_ = nullptr;
  Gauge* m_aggregate_savings_ = nullptr;
};

}  // namespace tierscape

#endif  // SRC_MULTITENANT_MULTI_TENANT_DAEMON_H_
