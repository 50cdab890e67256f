#include "perfbench/src/runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/compress/corpus.h"
#include "src/workloads/tenant_mix.h"

namespace perfbench {
namespace {

using namespace tierscape;

class Digest {
 public:
  void Add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(bool value) { Add(std::uint64_t{value}); }
  void Add(const std::string& value) {
    Add(std::uint64_t{value.size()});
    for (const char c : value) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  void Add(const std::vector<std::uint64_t>& values) {
    Add(std::uint64_t{values.size()});
    for (const std::uint64_t value : values) {
      Add(value);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::string Mib(std::size_t bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f MiB", static_cast<double>(bytes) / (1 << 20));
  return buffer;
}

// Traffic dimensions of a single-tenant cell, for the run notes.
std::string CellDims(const SystemConfig& system, std::size_t footprint, std::uint64_t ops,
                     std::uint64_t window_ops) {
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.2fx",
                static_cast<double>(system.dram_bytes) / static_cast<double>(footprint));
  std::string dims = "footprint " + Mib(footprint) + ", DRAM " + Mib(system.dram_bytes) + " (" +
                     ratio + " footprint), NVMM " + Mib(system.nvmm_bytes) +
                     (system.nvmm_byte_tier ? " (byte tier)" : " (backing only)") + ", tiers";
  for (const CompressedTierSpec& tier : system.compressed_tiers) {
    dims += " " + tier.label + "=" + std::string(AlgorithmName(tier.algorithm)) + "/" +
            std::string(PoolManagerName(tier.pool_manager)) + "/" +
            std::string(MediumKindName(tier.backing));
  }
  return dims + ", " + std::to_string(ops) + " ops, window every " + std::to_string(window_ops) +
         " ops";
}

// Invariants that hold for any seed: every page is placed exactly once,
// TCO savings lie in [0, 1), and nothing runs faster than all-DRAM.
std::string CheckInvariants(const ExperimentResult& result, const TieringEngine& engine,
                            const AddressSpace& space) {
  std::uint64_t placed = 0;
  for (const std::uint64_t pages : engine.PagesPerTier()) {
    placed += pages;
  }
  if (placed != space.total_pages()) {
    return "pages not conserved: " + std::to_string(placed) + " placed of " +
           std::to_string(space.total_pages());
  }
  for (const double savings : {result.mean_tco_savings, result.final_tco_savings}) {
    if (!(savings >= 0.0 && savings < 1.0)) {
      return "TCO savings outside [0, 1): " + std::to_string(savings);
    }
  }
  if (!(result.slowdown >= 1.0)) {
    return "slowdown below 1: " + std::to_string(result.slowdown);
  }
  return {};
}

// Traced run only: re-reads a seeded sample of the cell's own pages through
// the page synthesizer, the checksum and every codec of the cell's tiers,
// and checks that each round trip restores the page.
std::string CodecProbe(const AddressSpace& space, const TierTable& tiers, std::uint64_t seed,
                       LayerTracer& tracer) {
  constexpr int kProbePages = 32;
  std::set<Algorithm> algorithms;
  for (int t = 0; t < tiers.count(); ++t) {
    if (tiers.tier(t).compressed != nullptr) {
      algorithms.insert(tiers.tier(t).compressed->config().algorithm);
    }
  }
  Span span(&tracer, "bench.codec_probe");
  Rng rng(seed);
  std::vector<std::byte> page(kPageSize);
  std::vector<std::byte> compressed(2 * kPageSize);
  std::vector<std::byte> restored(kPageSize);
  for (int i = 0; i < kProbePages; ++i) {
    const std::uint64_t index = rng.NextBelow(space.total_pages());
    std::int64_t start = NowNs();
    space.SynthesizePage(index, page);
    tracer.OnPageFill(NowNs() - start);
    start = NowNs();
    const std::uint64_t checksum = PageChecksum(page);
    tracer.OnChecksum(NowNs() - start);
    for (const Algorithm algorithm : algorithms) {
      const Compressor& codec = GetCompressor(algorithm);
      start = NowNs();
      const auto size = codec.Compress(page, compressed);
      const std::int64_t compress_ns = NowNs() - start;
      if (!size.ok()) {
        return "codec probe: " + std::string(codec.name()) + " compress failed: " +
               size.status().ToString();
      }
      start = NowNs();
      const auto restored_size =
          codec.Decompress(std::span<const std::byte>(compressed).first(*size), restored);
      const std::int64_t decompress_ns = NowNs() - start;
      if (!restored_size.ok() || *restored_size != kPageSize ||
          PageChecksum(restored) != checksum) {
        return "codec probe: " + std::string(codec.name()) + " round trip changed page " +
               std::to_string(index);
      }
      tracer.OnCodec(algorithm, compress_ns, decompress_ns, *size);
    }
  }
  return {};
}

// The colocation cell's digest (every window's grants and demands, the
// totals, each tenant's result) and its invariants: grants within the DRAM
// pool, slowdown >= 1, TCO savings in [0, 1), every window run. Returns the
// first broken invariant, or "".
std::string CheckColocation(const MultiTenantDaemon& daemon, const MultiTenantConfig& config,
                            std::uint64_t* digest_out, double* rebalanced_mib) {
  std::string error;
  Digest digest;
  const MultiTenantDaemon::Totals totals = daemon.ComputeTotals();
  for (const double value : {totals.aggregate_tco, totals.aggregate_tco_savings,
                             totals.mean_slowdown, totals.max_slowdown}) {
    digest.Add(value);
  }
  digest.Add(totals.total_faults);
  for (const MultiTenantDaemon::WindowRecord& window : daemon.history()) {
    digest.Add(window.window);
    std::size_t granted = 0;
    for (const TenantGrant& grant : window.grants) {
      digest.Add(std::uint64_t{grant.dram_bytes});
      digest.Add(std::uint64_t{grant.ct_bytes});
      granted += grant.dram_bytes;
    }
    for (const TenantDemand& demand : window.demands) {
      digest.Add(std::uint64_t{demand.footprint_bytes});
      digest.Add(std::uint64_t{demand.resident_dram_bytes});
      digest.Add(demand.window_faults);
      digest.Add(demand.marginal_gradient);
    }
    for (const double value :
         {window.aggregate_tco, window.aggregate_tco_savings, window.max_slowdown}) {
      digest.Add(value);
    }
    digest.Add(std::uint64_t{window.rebalanced_bytes});
    *rebalanced_mib += static_cast<double>(window.rebalanced_bytes) / (1 << 20);
    if (error.empty() && granted > config.arbiter.dram_pool_bytes) {
      error = "DRAM grants exceed the pool in window " + std::to_string(window.window);
    }
  }
  for (const MultiTenantDaemon::TenantResult& tenant : daemon.TenantResults()) {
    digest.Add(tenant.label);
    digest.Add(tenant.slowdown);
    digest.Add(tenant.tco_savings);
    digest.Add(tenant.faults);
    digest.Add(tenant.migrated_pages);
    digest.Add(std::uint64_t{tenant.final_dram_grant});
    if (error.empty() &&
        !(tenant.slowdown >= 1.0 && tenant.tco_savings >= 0.0 && tenant.tco_savings < 1.0)) {
      error = "tenant " + tenant.label + " outside slowdown >= 1, savings in [0, 1)";
    }
  }
  if (error.empty() &&
      !(totals.aggregate_tco_savings >= 0.0 && totals.aggregate_tco_savings < 1.0 &&
        totals.mean_slowdown >= 1.0 && totals.max_slowdown >= totals.mean_slowdown)) {
    error = "colocation totals outside their invariants";
  }
  if (error.empty() && daemon.history().size() != config.windows) {
    error = "colocation ran " + std::to_string(daemon.history().size()) + " windows";
  }
  *digest_out = digest.value();
  return error;
}

// The colocation cell: fig16's cell body (bench/fig16_colocation.cc) for
// one tenant count and arbiter policy, with the shared compressed cache on.
CellOutcome RunColocation(const ColocationCell& cell, LayerTracer* tracer) {
  CellOutcome outcome;
  outcome.label = cell.label;
  const std::int64_t cell_start = NowNs();
  const int cell_span = tracer != nullptr ? tracer->Begin("cell", cell.label) : -1;

  MultiTenantConfig config = cell.config;
  std::size_t total_footprint = 0;
  std::size_t max_footprint = 0;
  {
    Span span(tracer, "workloads.footprint_probe");
    for (int i = 0; i < cell.tenants; ++i) {
      const TenantEntry& entry = ColocationTenant(i);
      auto app = MakeTenantApp(entry.workload, entry.scale, SplitSeed(config.base_seed, i));
      TS_CHECK(app.ok()) << app.status().ToString();
      AddressSpace probe;
      (*app)->Reserve(probe);
      total_footprint += probe.total_bytes();
      max_footprint = std::max(max_footprint, probe.total_bytes());
    }
  }
  // fig16's sizing: DRAM over-subscribed to 55% of the mix so grants bite,
  // an ample compressed budget, per-tenant NVMM for the spill.
  config.arbiter.dram_pool_bytes = total_footprint * 55 / 100;
  config.arbiter.ct_pool_bytes = total_footprint;
  config.system = StandardMixConfig(/*dram_bytes=*/0, /*nvmm_bytes=*/3 * max_footprint);
  Observability obs;
  config.obs = &obs;

  std::optional<MultiTenantDaemon> daemon;
  {
    Span span(tracer, "multitenant.daemon_construct");
    daemon.emplace(config);
  }
  Status status = OkStatus();
  const std::int64_t add_start = NowNs();
  {
    Span span(tracer, "multitenant.add_tenant");
    for (int i = 0; i < cell.tenants && status.ok(); ++i) {
      const TenantEntry& entry = ColocationTenant(i);
      TenantSpec spec;
      spec.label = std::string(entry.workload) + "-" + std::to_string(i);
      spec.alpha = entry.alpha;
      spec.priority = entry.priority;
      status = daemon->AddTenant(std::move(spec), [&entry](std::uint64_t seed) {
        return MakeTenantApp(entry.workload, entry.scale, seed);
      });
    }
  }
  const std::int64_t setup_end = NowNs();
  const double cpu_start = CpuSeconds();
  if (status.ok()) {
    Span span(tracer, "multitenant.run");
    status = daemon->Run();
  }
  const std::int64_t run_end = NowNs();
  const double run_cpu_s = CpuSeconds() - cpu_start;

  double rebalanced_mib = 0.0;
  {
    Span span(tracer, "bench.verify");
    outcome.error = status.ok() ? CheckColocation(*daemon, config, &outcome.digest, &rebalanced_mib)
                                : status.ToString();
  }

  outcome.ops = static_cast<std::uint64_t>(cell.tenants) * config.ops_per_window * config.windows;
  outcome.dims = std::to_string(cell.tenants) + " tenants of fig16's mix (" +
                 Mib(total_footprint) + " together), DRAM pool " +
                 Mib(config.arbiter.dram_pool_bytes) + " (55%), compressed pool " +
                 Mib(config.arbiter.ct_pool_bytes) + ", " + std::to_string(config.windows) +
                 " windows x " + std::to_string(config.ops_per_window) +
                 " ops per tenant, shared cache " + std::to_string(config.shared_cache_ops) +
                 " ops per tenant window, " + std::to_string(config.threads) + " pool threads";
  outcome.setup_s = Seconds(setup_end - cell_start);
  outcome.measured_s = Seconds(run_end - setup_end);
  if (tracer != nullptr) {
    const RegistrySnapshot snapshot = obs.metrics.Snapshot();
    const MetricSnapshot* decisions = snapshot.Find("arbiter/decisions");
    tracer->End(cell_span);
    tracer->OnColocation(setup_end - add_start, run_end - setup_end, run_cpu_s, config.threads,
                         decisions == nullptr ? 0 : decisions->count, rebalanced_mib);
  }
  const std::int64_t cell_end = NowNs();
  outcome.wall_s = Seconds(cell_end - cell_start);
  if (tracer != nullptr) {
    tracer->OnCell(cell_end - cell_start, setup_end - cell_start, outcome.ops);
  }
  return outcome;
}

}  // namespace

std::size_t ProbeFootprint(const std::string& name, std::uint64_t seed) {
  auto workload = MakeTable2Workload(name, seed);
  TS_CHECK(workload != nullptr) << "unknown workload " << name;
  AddressSpace probe;
  workload->Reserve(probe);
  return probe.total_bytes();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

ExperimentConfig CellConfig(const Cell& cell) {
  ExperimentConfig config = cell.config;
  if (cell.policy.kind != PolicyKind::kAnalytical) {
    // The §6.7 migration filter belongs to the analytical model; the
    // two-tier baselines and Waterfall migrate exactly what their threshold
    // rule says, as in every figure harness.
    config.daemon.filter.enable_hysteresis = false;
    config.daemon.filter.demotion_benefit_factor = 1e18;
    config.daemon.filter.pressure_fault_limit = ~std::uint64_t{0};
  }
  return config;
}

std::unique_ptr<PlacementPolicy> MakePolicy(const PolicySpec& spec, TieredSystem& system,
                                            LayerTracer* tracer) {
  switch (spec.kind) {
    case PolicyKind::kAnalytical:
      if (tracer != nullptr) {
        return std::make_unique<TimedAnalytical>(*tracer, spec.alpha);
      }
      return std::make_unique<AnalyticalPolicy>(spec.alpha);
    case PolicyKind::kWaterfall:
      if (tracer != nullptr) {
        return std::make_unique<TimedWaterfall>(*tracer);
      }
      return std::make_unique<WaterfallPolicy>();
    case PolicyKind::kTwoTier: {
      const int slow = system.tiers().FindByLabel(spec.slow_tier);
      TS_CHECK(slow >= 0) << "no tier '" << spec.slow_tier << "' for " << spec.label;
      if (tracer != nullptr) {
        return std::make_unique<TimedTwoTier>(*tracer, spec.label, slow);
      }
      return std::make_unique<TwoTierPolicy>(spec.label, slow);
    }
  }
  return nullptr;
}

std::uint64_t DigestResult(const ExperimentResult& result) {
  Digest digest;
  digest.Add(result.workload);
  digest.Add(result.policy);
  for (const double value : {result.slowdown, result.perf_overhead_pct, result.mean_tco_savings,
                             result.final_tco_savings, result.throughput_mops}) {
    digest.Add(value);
  }
  const Histogram& latency = result.op_latency_ns;
  digest.Add(latency.count());
  digest.Add(latency.min());
  digest.Add(latency.max());
  digest.Add(latency.Mean());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    digest.Add(latency.Percentile(q));
  }
  for (const std::uint64_t value :
       {result.total_faults, result.migrated_pages, std::uint64_t{result.daemon_overhead_ns},
        result.degraded_windows, result.unrealized_pages, result.migrate_retries,
        result.injected_faults}) {
    digest.Add(value);
  }
  digest.Add(std::uint64_t{result.windows.size()});
  for (const TsDaemon::WindowRecord& w : result.windows) {
    digest.Add(w.window);
    digest.Add(std::uint64_t{w.at});
    digest.Add(w.hotness_threshold);
    digest.Add(w.recommended_pages);
    digest.Add(w.actual_pages);
    digest.Add(w.faults);
    digest.Add(w.migrated_pages);
    digest.Add(w.tco);
    digest.Add(w.tco_savings);
    digest.Add(std::uint64_t{w.solve_cost_ns});
    for (const std::uint64_t value :
         {w.filter.kept, w.filter.dropped_capacity, w.filter.dropped_pressure,
          w.filter.dropped_benefit, w.filter.dropped_hysteresis, w.filter.dropped_pinned}) {
      digest.Add(value);
    }
    digest.Add(w.degraded);
    digest.Add(w.solver_fallback);
    digest.Add(w.unrealized_pages);
    digest.Add(w.migrate_retries);
    digest.Add(w.solver_warm);
    digest.Add(w.solver_warm_fallback);
    digest.Add(w.solver_groups_changed);
    digest.Add(w.marginal_gradient);
    digest.Add(w.fast_path_promotions);
    digest.Add(w.fast_path_pins);
    digest.Add(w.pinned_regions);
  }
  return digest.value();
}

CellOutcome RunCell(const Cell& cell, std::uint64_t workload_seed, std::size_t footprint,
                    LayerTracer* tracer, std::uint64_t probe_seed) {
  CellOutcome outcome;
  outcome.label = cell.label;
  const std::int64_t cell_start = NowNs();
  const int cell_span = tracer != nullptr ? tracer->Begin("cell", cell.label) : -1;

  // What the figure-harness grid does before RunExperiment (RunOneCell): a
  // fresh system on a cell-private Observability, workload, policy, config.
  Observability obs;
  SystemConfig system_config = AssemblyConfig(cell.assembly, footprint);
  system_config.obs = &obs;
  std::unique_ptr<TieredSystem> system;
  {
    Span span(tracer, "core.assembly");
    system = std::make_unique<TieredSystem>(system_config);
  }
  std::unique_ptr<Workload> workload;
  {
    Span span(tracer, "workloads.construct");
    workload = MakeTable2Workload(cell.workload, workload_seed);
  }
  TS_CHECK(workload != nullptr) << "unknown workload " << cell.workload;
  std::unique_ptr<PlacementPolicy> policy;
  {
    Span span(tracer, "core.policy_construct");
    policy = MakePolicy(cell.policy, *system, tracer);
  }
  const ExperimentConfig config = CellConfig(cell);

  // From here on, RunExperiment's calls in RunExperiment's order.
  ExperimentResult result;
  result.workload = std::string(workload->name());
  result.policy = std::string(policy->name());
  FaultInjector* fault = system->fault();
  if (fault != nullptr) {
    fault->set_armed(false);
  }
  AddressSpace space;
  {
    Span span(tracer, "workloads.reserve");
    workload->Reserve(space);
  }
  std::optional<TieringEngine> engine;
  {
    Span span(tracer, "tiering.engine_construct");
    engine.emplace(space, system->tiers(), config.engine);
  }
  Status placed = OkStatus();
  {
    Span span(tracer, "tiering.place_initial");
    placed = engine->PlaceInitial();
  }
  if (placed.ok()) {
    Span span(tracer, "workloads.populate");
    workload->Populate(*engine);
  }
  DaemonConfig daemon_config = config.daemon;
  if (config.target_windows > 0 && daemon_config.window_ops == 0) {
    daemon_config.window_ops = std::max<std::uint64_t>(1, config.ops / config.target_windows);
  }
  std::optional<TsDaemon> daemon;
  {
    Span span(tracer, "core.daemon_construct");
    daemon.emplace(*engine, daemon_config.mode == DaemonMode::kPlace ? policy.get() : nullptr,
                   daemon_config);
  }
  const std::int64_t setup_end = NowNs();
  RegistrySnapshot at_setup;
  if (tracer != nullptr) {
    Span span(tracer, "bench.snapshot");
    at_setup = obs.metrics.Snapshot();
  }

  if (fault != nullptr) {
    fault->set_armed(true);
  }
  Status status = placed;
  const Nanos start = engine->now();
  const Nanos opt_start = engine->optimal_now();
  if (tracer == nullptr) {
    for (std::uint64_t op = 0; op < config.ops && status.ok(); ++op) {
      const Nanos latency = workload->Op(*engine);
      result.op_latency_ns.Record(latency);
      status = daemon->Observe(AccessEvent{.latency = latency});
    }
  } else {
    RegistrySnapshot last = at_setup;
    for (std::uint64_t op = 0; op < config.ops && status.ok(); ++op) {
      const std::uint64_t faults = engine->total_faults();
      const std::size_t windows = daemon->history().size();
      // The op's span includes the driver recording its latency, as
      // RunExperiment does for every op.
      const std::int64_t t0 = NowNs();
      const Nanos latency = workload->Op(*engine);
      result.op_latency_ns.Record(latency);
      const bool faulted = engine->total_faults() != faults;
      const std::int64_t t1 = NowNs();
      status = daemon->Observe(AccessEvent{.latency = latency});
      const std::int64_t t2 = NowNs();
      tracer->OnOp(faulted, t1 - t0);
      if (daemon->history().size() != windows) {
        RegistrySnapshot now;
        {
          Span span(tracer, "bench.snapshot");
          now = obs.metrics.Snapshot();
        }
        tracer->OnWindow(t1, t2, MetricsRegistry::Delta(last, now));
        last = std::move(now);
      } else {
        tracer->OnObserve(t2 - t1);
      }
    }
  }
  const std::int64_t measured_end = NowNs();

  {
    Span span(tracer, "bench.collect");
    const Nanos elapsed = engine->now() - start;
    const Nanos opt_elapsed = engine->optimal_now() - opt_start;
    result.slowdown = opt_elapsed == 0
                          ? 1.0
                          : static_cast<double>(elapsed) / static_cast<double>(opt_elapsed);
    result.perf_overhead_pct = (result.slowdown - 1.0) * 100.0;
    result.mean_tco_savings = daemon->MeanTcoSavings();
    result.final_tco_savings = engine->TcoSavings();
    result.throughput_mops =
        elapsed == 0
            ? 0.0
            : static_cast<double>(config.ops) / (static_cast<double>(elapsed) / 1e9) / 1e6;
    result.windows = daemon->history();
    result.total_faults = engine->total_faults();
    result.migrated_pages = engine->total_migrated_pages();
    result.daemon_overhead_ns = daemon->charged_overhead_ns();
    for (const auto& window : result.windows) {
      result.total_solve_ms += window.solve_ms;
      if (window.degraded) {
        ++result.degraded_windows;
      }
      result.unrealized_pages += window.unrealized_pages;
      result.migrate_retries += window.migrate_retries;
    }
    if (fault != nullptr) {
      result.injected_faults = fault->injected_total();
    }
    // The grid labels the result with the cell's policy column.
    result.policy = cell.policy.label;
  }
  {
    Span span(tracer, "bench.verify");
    outcome.error = status.ok() ? CheckInvariants(result, *engine, space) : status.ToString();
    outcome.digest = DigestResult(result);
  }
  if (tracer != nullptr) {
    {
      Span span(tracer, "bench.snapshot");
      tracer->OnCellCounts(MetricsRegistry::Delta(at_setup, obs.metrics.Snapshot()),
                           system->tiers());
    }
    tracer->End(cell_span);
  }
  const std::int64_t cell_end = NowNs();
  outcome.ops = config.ops;
  outcome.dims = CellDims(system_config, footprint, config.ops, daemon_config.window_ops);
  outcome.wall_s = Seconds(cell_end - cell_start);
  outcome.setup_s = Seconds(setup_end - cell_start);
  outcome.measured_s = Seconds(measured_end - setup_end);
  if (tracer != nullptr) {
    tracer->OnCell(cell_end - cell_start, setup_end - cell_start, config.ops);
    const std::string probe_error = CodecProbe(space, system->tiers(), probe_seed, *tracer);
    if (outcome.error.empty()) {
      outcome.error = probe_error;
    }
  }
  return outcome;
}

PassResult RunPass(const WorkloadPlan& plan, LayerTracer* tracer) {
  PassResult pass;
  const double cpu_start = CpuSeconds();
  const std::int64_t pass_start = NowNs();
  // One footprint probe per Table-2 workload, then a fresh workload and
  // system per cell — the figure harnesses' set-up (fig07). Streams of one
  // workload differ only in their seed, which does not change a KV store's
  // footprint, so one probe serves them all.
  std::map<std::string, std::size_t> footprints;
  for (const std::string& name : plan.probes) {
    const std::int64_t start = NowNs();
    Span span(tracer, "workloads.footprint_probe");
    footprints[name] = ProbeFootprint(name, WorkloadSeed(plan.seed, name));
    pass.setup_s += Seconds(NowNs() - start);
  }
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& cell = plan.cells[i];
    const std::int64_t codec_start = NowNs();
    pass.cells.push_back(RunCell(cell, cell.seed, footprints.at(cell.workload), tracer,
                                 tierscape::SplitSeed(plan.seed, 1000 + i)));
    if (tracer != nullptr) {
      // Whatever of this call fell outside the cell is the codec probe.
      pass.codec_probe_s += Seconds(NowNs() - codec_start) - pass.cells.back().wall_s;
    }
  }
  if (plan.colocation.has_value()) {
    pass.cells.push_back(RunColocation(*plan.colocation, tracer));
  }
  pass.wall_s = Seconds(NowNs() - pass_start);
  pass.cpu_s = CpuSeconds() - cpu_start;
  for (const CellOutcome& cell : pass.cells) {
    pass.setup_s += cell.setup_s;
    pass.measured_s += cell.measured_s;
    pass.ops += cell.ops;
  }
  if (tracer != nullptr) {
    tracer->EndPass();
  }
  return pass;
}

}  // namespace perfbench
