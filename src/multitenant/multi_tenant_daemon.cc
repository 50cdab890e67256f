#include "src/multitenant/multi_tenant_daemon.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/compress/corpus.h"
#include "src/core/analytical.h"
#include "src/core/waterfall.h"
#include "src/obs/export.h"
#include "src/zswap/access_path.h"

namespace tierscape {
namespace {

// Modeled virtual-time cost of one arbitration, charged to every tenant's
// clock at each window boundary (mirrors the daemon's modeled §8.4 solver
// costs; DESIGN.md §4f).
constexpr Nanos kArbiterDecisionCostNs = 2 * kMicro;

// Capacity of the shared compressed side-cache's NVMM medium (DESIGN.md §4g).
constexpr std::size_t kSharedCacheBytes = 64 * kMiB;

std::uint64_t SumFaults(const TsDaemon::WindowRecord& record) {
  std::uint64_t total = 0;
  for (const std::uint64_t f : record.faults) {
    total += f;
  }
  return total;
}

}  // namespace

Status MultiTenantConfig::Validate() const {
  TS_RETURN_IF_ERROR(arbiter.Validate());
  TS_RETURN_IF_ERROR(engine.Validate());
  TS_RETURN_IF_ERROR(daemon.Validate());
  if (ops_per_window == 0) {
    return InvalidArgument("MultiTenantConfig: ops_per_window must be > 0");
  }
  if (windows == 0) {
    return InvalidArgument("MultiTenantConfig: windows must be > 0");
  }
  if (threads < 1) {
    return InvalidArgument("MultiTenantConfig: threads must be >= 1");
  }
  return OkStatus();
}

MultiTenantDaemon::MultiTenantDaemon(MultiTenantConfig config) : config_(std::move(config)) {
  const Status valid = config_.Validate();
  TS_CHECK(valid.ok()) << valid.ToString();
  parent_obs_ = config_.obs != nullptr ? config_.obs : &Observability::Default();
  arbiter_ = std::make_unique<GlobalArbiter>(config_.arbiter, *parent_obs_);
  m_aggregate_tco_ = &parent_obs_->metrics.GetGauge("aggregate/tco");
  m_aggregate_savings_ = &parent_obs_->metrics.GetGauge("aggregate/tco_savings");
}

Status MultiTenantDaemon::AddTenant(
    TenantSpec spec,
    const std::function<StatusOr<std::unique_ptr<TenantApp>>(std::uint64_t seed)>& make_app) {
  if (ran_) {
    return FailedPrecondition("MultiTenantDaemon: AddTenant after Run");
  }
  if (spec.label.empty()) {
    return InvalidArgument("MultiTenantDaemon: tenant label must be non-empty");
  }
  for (const auto& existing : tenants_) {
    if (existing->spec.label == spec.label) {
      return InvalidArgument("MultiTenantDaemon: duplicate tenant label \"" + spec.label + "\"");
    }
  }
  auto tenant = std::make_unique<Tenant>();
  tenant->spec = std::move(spec);
  // SplitSeed decorrelates sibling tenants even for adjacent indices
  // (satellite of DESIGN.md §4f; rng.h).
  tenant->seed = SplitSeed(config_.base_seed, tenants_.size());
  tenant->demand.tenant = static_cast<int>(tenants_.size());
  auto app = make_app(tenant->seed);
  if (!app.ok()) {
    return app.status();
  }
  tenant->app = std::move(*app);
  tenant->obs.trace.SetEnabled(config_.trace);
  tenants_.push_back(std::move(tenant));
  return OkStatus();
}

Status MultiTenantDaemon::BuildTenant(Tenant& tenant) {
  SystemConfig system = config_.system;
  // Every tenant sees the full shared DRAM medium; the arbiter's grant cap is
  // the partition. NVMM stays template-sized and ungated (spill safety).
  system.dram_bytes = config_.arbiter.dram_pool_bytes;
  system.obs = &tenant.obs;
  if (system.fault.enabled()) {
    // Distinct per-tenant fault stream, decorrelated from the workload seed.
    system.fault.seed = SplitSeed(tenant.seed, 1);
  }
  TS_RETURN_IF_ERROR(system.Validate());
  tenant.system = std::make_unique<TieredSystem>(system);
  if (tenant.system->fault() != nullptr) {
    tenant.system->fault()->set_armed(false);  // setup is unperturbed (§4d)
  }

  tenant.app->Reserve(tenant.space);
  tenant.demand.priority = tenant.spec.priority;
  tenant.demand.footprint_bytes = tenant.space.total_bytes();

  EngineConfig engine = config_.engine;
  if (config_.threads > 1) {
    // Nested-pool rule (thread_pool.h): tenant shards already run on this
    // daemon's pool, so each engine's push pool must be inline-serial.
    engine.migrate_threads = 1;
  }
  tenant.engine = std::make_unique<TieringEngine>(tenant.space, tenant.system->tiers(), engine);
  tenant.policy = tenant.spec.alpha >= 0.0
                      ? std::unique_ptr<PlacementPolicy>(
                            std::make_unique<AnalyticalPolicy>(tenant.spec.alpha))
                      : std::make_unique<WaterfallPolicy>();
  DaemonConfig daemon = config_.daemon;
  // Each shard runs exactly ops_per_window ops through Observe (§4h event
  // API), so the op counter fires the boundary inside the shard's last op —
  // one window per shard, per-tenant fast path included.
  daemon.window_ops = config_.ops_per_window;
  tenant.daemon = std::make_unique<TsDaemon>(*tenant.engine, tenant.policy.get(), daemon);

  const std::string prefix = "tenant/" + tenant.spec.label + "/";
  MetricsRegistry& metrics = parent_obs_->metrics;
  tenant.m_tco_savings = &metrics.GetGauge(prefix + "tco_savings");
  tenant.m_slowdown = &metrics.GetGauge(prefix + "slowdown");
  tenant.m_grant_dram = &metrics.GetGauge(prefix + "grant_dram_bytes");
  tenant.m_grant_ct = &metrics.GetGauge(prefix + "grant_ct_bytes");
  tenant.m_window_faults = &metrics.GetGauge(prefix + "window_faults");
  return OkStatus();
}

void MultiTenantDaemon::ApplyGrant(Tenant& tenant, const TenantGrant& grant) {
  tenant.system->dram().set_grant_bytes(grant.dram_bytes);
  // Soft partition of the tenant's compressed pools: each tier may grow until
  // the tenant's total pool bytes reach the grant; headroom is re-tightened
  // at every window boundary as the tiers' occupancy shifts (DESIGN.md §4f).
  ZswapBackend& zswap = tenant.system->zswap();
  const std::size_t total = zswap.total_pool_bytes();
  for (int id = 0; id < zswap.tier_count(); ++id) {
    CompressedTier& tier = zswap.tier(id);
    const std::size_t others = total - tier.pool_bytes();
    tier.set_grant_bytes(grant.ct_bytes > others ? grant.ct_bytes - others : 0);
  }
}

void MultiTenantDaemon::SetupTenantShard(Tenant& tenant) {
  tenant.status = tenant.engine->PlaceInitial();
  if (!tenant.status.ok()) {
    return;
  }
  tenant.app->Populate(*tenant.engine);
}

Status MultiTenantDaemon::BuildSharedCache() {
  shared_cache_obs_ = std::make_unique<Observability>();
  shared_cache_medium_ = std::make_unique<Medium>(NvmmSpec(kSharedCacheBytes));
  shared_cache_ = std::make_unique<ZswapBackend>(*shared_cache_obs_);
  CompressedTierConfig tier;
  tier.label = "SC";
  tier.pool_manager = PoolManager::kZsmalloc;
  auto tier_id = shared_cache_->AddTier(tier, *shared_cache_medium_);
  if (!tier_id.ok()) {
    return tier_id.status();
  }
  shared_cache_tier_ = *tier_id;
  shared_cache_path_ = &shared_cache_->AccessPath();
  return OkStatus();
}

void MultiTenantDaemon::ChurnSharedCache(Tenant& tenant) {
  // Worker context: every write below lands in this tenant's slot; the access
  // path is MPMC-safe and parks all shared accounting in its shards until the
  // orchestrator's FlushAccounting (DESIGN.md §4g). Keys carry the tenant
  // index, so each shard churns a disjoint partition and its statuses and
  // latencies are pure per-tenant functions of the seeded contents.
  std::byte page[kPageSize];
  std::byte out[kPageSize];
  Nanos churn_ns = 0;
  const std::uint64_t key_base = static_cast<std::uint64_t>(tenant.demand.tenant) << 40;
  const std::uint64_t content_seed = SplitSeed(tenant.seed, 7);
  for (std::uint64_t op = 0; op < config_.shared_cache_ops; ++op) {
    const AccessKey key = key_base | op;
    FillPage(CorpusProfile::kNci, SplitSeed(content_seed, tenant.shared_cache_seq++), page);
    auto stored = shared_cache_path_->Store(shared_cache_tier_, key, page);
    TS_CHECK(stored.ok()) << stored.status().ToString();
    churn_ns += stored->latency;
    auto loaded = shared_cache_path_->Load(shared_cache_tier_, key, out);
    TS_CHECK(loaded.ok()) << loaded.status().ToString();
    churn_ns += loaded->latency;
    const Status dropped = shared_cache_path_->Invalidate(shared_cache_tier_, key);
    TS_CHECK(dropped.ok()) << dropped.ToString();
  }
  tenant.shared_cache_ns += churn_ns;
}

void MultiTenantDaemon::RunTenantShard(Tenant& tenant) {
  // Every op flows through the tenant daemon's Observe (§4h): sampling,
  // fast-path triggers, and the window boundary — which fires inside the
  // shard's last op (window_ops == ops_per_window, BuildTenant) — all on
  // slot-owned state. Shared-cache churn runs after the boundary; it touches
  // only the MPMC path's parked accounting and the tenant's own churn clock,
  // so the window record is independent of it either way.
  for (std::uint64_t op = 0; op < config_.ops_per_window; ++op) {
    const Nanos latency = tenant.app->Op(*tenant.engine);
    tenant.status = tenant.daemon->Observe(AccessEvent{.latency = latency});
    if (!tenant.status.ok()) {
      return;
    }
  }
  if (shared_cache_path_ != nullptr) {
    ChurnSharedCache(tenant);
  }
  TS_CHECK(!tenant.daemon->history().empty());
  const TsDaemon::WindowRecord& record = tenant.daemon->history().back();
  tenant.demand.marginal_gradient = record.marginal_gradient;
  tenant.demand.window_faults = SumFaults(record);
  tenant.demand.resident_dram_bytes = tenant.system->dram().used_bytes();
}

Status MultiTenantDaemon::Run() {
  if (ran_) {
    return FailedPrecondition("MultiTenantDaemon: Run called twice");
  }
  if (tenants_.empty()) {
    return FailedPrecondition("MultiTenantDaemon: no tenants added");
  }
  ran_ = true;
  const std::size_t n = tenants_.size();

  // Assemblies build sequentially in ascending tenant order: construction
  // registers metrics and traces, which must not race.
  if (config_.shared_cache_ops > 0) {
    TS_RETURN_IF_ERROR(BuildSharedCache());
  }
  for (auto& tenant : tenants_) {
    TS_RETURN_IF_ERROR(BuildTenant(*tenant));
  }

  // Initial arbitration from reserved footprints, applied before initial
  // placement so an over-subscribed tenant spills from day one.
  std::vector<TenantDemand> demands;
  demands.reserve(n);
  for (const auto& tenant : tenants_) {
    demands.push_back(tenant->demand);
  }
  auto initial = arbiter_->Divide(demands);
  if (!initial.ok()) {
    return initial.status();
  }
  grants_ = std::move(*initial);
  for (std::size_t i = 0; i < n; ++i) {
    ApplyGrant(*tenants_[i], grants_[i]);
  }

  ThreadPool pool(config_.threads);
  pool.ParallelFor(n, [this](std::size_t i) { SetupTenantShard(*tenants_[i]); });
  for (const auto& tenant : tenants_) {
    TS_RETURN_IF_ERROR(tenant->status);
  }

  // Measured phase: faults armed at the same virtual instant for every run.
  for (auto& tenant : tenants_) {
    if (tenant->system->fault() != nullptr) {
      tenant->system->fault()->set_armed(true);
    }
  }

  history_.reserve(config_.windows);
  for (std::uint64_t window = 0; window < config_.windows; ++window) {
    pool.ParallelFor(n, [this](std::size_t i) { RunTenantShard(*tenants_[i]); });

    // Sequential commit in ascending tenant order (thread_pool.h invariant):
    // statuses, demands, arbitration, grants, virtual-time charges, metrics.
    WindowRecord record;
    record.window = window;
    std::vector<TenantDemand> window_demands;
    window_demands.reserve(n);
    double tco = 0.0;
    double dram_only_tco = 0.0;
    for (const auto& tenant : tenants_) {
      TS_RETURN_IF_ERROR(tenant->status);
      window_demands.push_back(tenant->demand);
      tco += tenant->engine->CurrentTco();
      dram_only_tco += tenant->engine->DramOnlyTco();
      record.max_slowdown = std::max(record.max_slowdown, tenant->engine->Slowdown());
    }
    auto grants = arbiter_->Divide(window_demands);
    if (!grants.ok()) {
      return grants.status();
    }
    grants_ = std::move(*grants);
    if (shared_cache_path_ != nullptr) {
      // Commit point: all shard-parked shared-cache deltas roll up into the
      // tier gauges here, on the orchestrator thread (DESIGN.md §4g).
      shared_cache_path_->FlushAccounting();
    }
    for (std::size_t i = 0; i < n; ++i) {
      Tenant& tenant = *tenants_[i];
      ApplyGrant(tenant, grants_[i]);
      // Arbitration is modeled work every tenant waits on (§8.4-style cost).
      tenant.engine->Compute(kArbiterDecisionCostNs);
      // Shared-cache churn latency, parked in the tenant slot by the worker,
      // charges to virtual time here in ascending tenant order.
      tenant.engine->Compute(tenant.shared_cache_ns);
      tenant.shared_cache_ns = 0;
      tenant.m_tco_savings->Set(tenant.engine->TcoSavings());
      tenant.m_slowdown->Set(tenant.engine->Slowdown());
      tenant.m_grant_dram->Set(static_cast<double>(grants_[i].dram_bytes));
      tenant.m_grant_ct->Set(static_cast<double>(grants_[i].ct_bytes));
      tenant.m_window_faults->Set(static_cast<double>(tenant.demand.window_faults));
    }
    record.grants = grants_;
    record.demands = std::move(window_demands);
    record.aggregate_tco = tco;
    record.aggregate_tco_savings = dram_only_tco == 0.0 ? 0.0 : 1.0 - tco / dram_only_tco;
    record.rebalanced_bytes = arbiter_->last_rebalanced_bytes();
    m_aggregate_tco_->Set(record.aggregate_tco);
    m_aggregate_savings_->Set(record.aggregate_tco_savings);
    history_.push_back(std::move(record));
  }
  return OkStatus();
}

std::vector<MultiTenantDaemon::TenantResult> MultiTenantDaemon::TenantResults() const {
  std::vector<TenantResult> results;
  results.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& tenant = *tenants_[i];
    TenantResult result;
    result.label = tenant.spec.label;
    if (tenant.engine != nullptr) {
      result.slowdown = tenant.engine->Slowdown();
      result.tco_savings = tenant.engine->TcoSavings();
      result.faults = tenant.engine->total_faults();
      result.migrated_pages = tenant.engine->total_migrated_pages();
    }
    if (i < grants_.size()) {
      result.final_dram_grant = grants_[i].dram_bytes;
    }
    results.push_back(std::move(result));
  }
  return results;
}

MultiTenantDaemon::Totals MultiTenantDaemon::ComputeTotals() const {
  Totals totals;
  if (tenants_.empty() || tenants_.front()->engine == nullptr) {
    return totals;
  }
  double dram_only_tco = 0.0;
  double slowdown_sum = 0.0;
  for (const auto& tenant : tenants_) {
    totals.aggregate_tco += tenant->engine->CurrentTco();
    dram_only_tco += tenant->engine->DramOnlyTco();
    const double slowdown = tenant->engine->Slowdown();
    slowdown_sum += slowdown;
    totals.max_slowdown = std::max(totals.max_slowdown, slowdown);
    totals.total_faults += tenant->engine->total_faults();
  }
  totals.aggregate_tco_savings =
      dram_only_tco == 0.0 ? 0.0 : 1.0 - totals.aggregate_tco / dram_only_tco;
  totals.mean_slowdown = slowdown_sum / static_cast<double>(tenants_.size());
  return totals;
}

std::string MultiTenantDaemon::MergedMetricsJsonl() const {
  std::vector<LabeledSnapshot> cells;
  cells.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    cells.push_back({tenant->spec.label, tenant->obs.metrics.Snapshot()});
  }
  RegistrySnapshot merged = MergeSnapshots(cells, "tenant");
  if (shared_cache_obs_ != nullptr) {
    // Shared side-cache metrics join under "shared/cache/...".
    RegistrySnapshot shared =
        MergeSnapshots({{"cache", shared_cache_obs_->metrics.Snapshot()}}, "shared");
    merged.metrics.insert(merged.metrics.end(),
                          std::make_move_iterator(shared.metrics.begin()),
                          std::make_move_iterator(shared.metrics.end()));
  }
  // Parent-scope metrics (arbiter/, aggregate/, tenant/<label>/ gauges) join
  // unprefixed; names are disjoint from the merged subtrees by construction.
  RegistrySnapshot parent = parent_obs_->metrics.Snapshot();
  merged.metrics.insert(merged.metrics.end(),
                        std::make_move_iterator(parent.metrics.begin()),
                        std::make_move_iterator(parent.metrics.end()));
  std::sort(merged.metrics.begin(), merged.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.name < b.name; });
  return SnapshotToJsonl(merged, WallMetrics::kExclude);
}

std::string MultiTenantDaemon::MergedTraceJson() const {
  // Track 0 stays free for the parent; tenants get 1-based tracks in tenant
  // order, mirroring the bench grid's per-cell merge (experiment_grid.cc).
  std::vector<TraceRecorder::Event> events;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& tenant = *tenants_[i];
    const std::string prefix = "tenant/" + tenant.spec.label + "/";
    for (TraceRecorder::Event event : tenant.obs.trace.events()) {
      event.track = static_cast<std::int32_t>(i) + 1;
      event.name = prefix + event.name;
      events.push_back(std::move(event));
    }
  }
  return TraceEventsToChromeJson(events);
}

}  // namespace tierscape
