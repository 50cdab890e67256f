#include "src/core/ts_daemon.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/core/analytical.h"

namespace tierscape {
namespace {

// Virtual cost charged per (region x tier) cell of a local solve (§8.4). The
// charge is always modeled, never measured, so experiments stay
// deterministic; wall-clock solve time is recorded only in
// WindowRecord::solve_ms for reporting.
constexpr Nanos kSolveCostPerCell = 40;

}  // namespace

Status DaemonConfig::Validate() const {
  if (profile_window == 0 && window_ops == 0) {
    return InvalidArgument(
        "DaemonConfig: profile_window must be >= 1 ns (or set window_ops) — a zero-length "
        "window would close on every operation");
  }
  if (threshold_percentile < 0.0 || threshold_percentile > 100.0) {
    return InvalidArgument("DaemonConfig: threshold_percentile must be in [0, 100], got " +
                           std::to_string(threshold_percentile));
  }
  if (mode != DaemonMode::kProfileOnly && mode != DaemonMode::kPlace) {
    return InvalidArgument("DaemonConfig: mode is not a DaemonMode value");
  }
  if (fast_path.enabled && mode == DaemonMode::kProfileOnly) {
    return InvalidArgument(
        "DaemonConfig: fast_path.enabled requires DaemonMode::kPlace — mid-window promotions "
        "are placement, which profiling-only mode promises not to do");
  }
  TS_RETURN_IF_ERROR(fast_path.Validate());
  TS_RETURN_IF_ERROR(filter.Validate());
  return OkStatus();
}

TsDaemon::TsDaemon(TieringEngine& engine, PlacementPolicy* policy, DaemonConfig config)
    : engine_(engine),
      policy_(policy),
      config_(config),
      cost_model_(engine.tiers(), engine.space(), engine.sampler().period()),
      filter_(config.filter),
      next_window_at_(engine.now() + config.profile_window) {
  const Status valid = config_.Validate();
  TS_CHECK(valid.ok()) << valid.ToString();
  TS_CHECK((policy_ != nullptr) == (config_.mode == DaemonMode::kPlace))
      << "DaemonMode::kPlace requires a policy and kProfileOnly forbids one — profiling-only "
         "is a stated mode, not a null-policy convention (DESIGN.md §4h)";
  if (auto* analytical = dynamic_cast<AnalyticalPolicy*>(policy_)) {
    // Wire the assembly's fault injector into the solver (DESIGN.md §4d).
    analytical->set_fault_injector(engine.tiers().fault());
  }
  for (std::uint64_t region = 0; region < engine.space().total_regions(); ++region) {
    hotness_.Track(region);
  }
  if (config_.fast_path.enabled) {
    // Arms the sampler's streak detector and resolves its own handles.
    fast_path_ = std::make_unique<FastPath>(config_.fast_path, engine_);
  }
  MetricsRegistry& metrics = engine.obs().metrics;
  m_windows_ = &metrics.GetCounter("daemon/windows");
  m_samples_ = &metrics.GetCounter("daemon/samples");
  m_telemetry_ns_ = &metrics.GetCounter("daemon/telemetry_ns");
  m_solve_ns_ = &metrics.GetCounter("daemon/solve_ns");
  m_migrated_pages_ = &metrics.GetCounter("daemon/migrated_pages");
  m_solver_solves_ = &metrics.GetCounter("solver/solves");
  m_solver_cells_ = &metrics.GetCounter("solver/cells");
  m_degraded_windows_ = &metrics.GetCounter("fault/daemon/degraded_windows");
  m_solver_fallbacks_ = &metrics.GetCounter("fault/daemon/solver_fallbacks");
  m_unrealized_pages_ = &metrics.GetCounter("fault/daemon/unrealized_pages");
  m_migrate_retries_ = &metrics.GetCounter("fault/daemon/migrate_retries");
  m_filter_kept_ = &metrics.GetCounter("filter/kept");
  m_filter_dropped_capacity_ = &metrics.GetCounter("filter/dropped_capacity");
  m_filter_dropped_pressure_ = &metrics.GetCounter("filter/dropped_pressure");
  m_filter_dropped_benefit_ = &metrics.GetCounter("filter/dropped_benefit");
  m_filter_dropped_hysteresis_ = &metrics.GetCounter("filter/dropped_hysteresis");
  m_filter_dropped_pinned_ = &metrics.GetCounter("filter/dropped_pinned");
  m_last_tco_ = &metrics.GetGauge("daemon/last/tco");
  m_last_tco_savings_ = &metrics.GetGauge("daemon/last/tco_savings");
  m_last_threshold_ = &metrics.GetGauge("daemon/last/hotness_threshold");
  m_marginal_gradient_ = &metrics.GetGauge("solver/marginal_gradient");
  m_wall_last_solve_ms_ = &metrics.GetGauge("wall/solver/last_solve_ms");
  m_wall_total_solve_ms_ = &metrics.GetGauge("wall/solver/total_solve_ms");
  // Window-shape distributions: pages repacked and samples drained per window.
  static constexpr std::uint64_t kMigratedBounds[] = {0,    64,    512,   4096,
                                                      8192, 16384, 65536, 262144};
  static constexpr std::uint64_t kSampleBounds[] = {0, 16, 64, 256, 1024, 4096, 16384};
  m_window_migrated_ = &metrics.GetHistogram("daemon/window_migrated_pages", kMigratedBounds);
  m_window_samples_ = &metrics.GetHistogram("daemon/window_samples", kSampleBounds);
  // Per-op latency as seen through Observe() events (§4h): the daemon-side
  // view of the tail the fast path exists to flatten.
  static constexpr std::uint64_t kOpLatencyBounds[] = {0,     256,    1024,   4096,
                                                       16384, 65536, 262144, 1048576};
  m_op_latency_ = &metrics.GetHistogram("daemon/op_latency_ns", kOpLatencyBounds);
}

Status TsDaemon::Observe(const AccessEvent& event) {
  ops_since_window_ += event.ops;
  m_op_latency_->Record(event.latency);
  if (fast_path_ != nullptr) {
    // Sub-window triggers run before the boundary check: a K-hit streak
    // completed by this op is acted on inside the same window that saw it.
    TS_RETURN_IF_ERROR(fast_path_->OnEvent());
  }
  if (config_.window_ops > 0 ? ops_since_window_ >= config_.window_ops
                             : engine_.now() >= next_window_at_) {
    ops_since_window_ = 0;
    return OnWindowEnd();
  }
  return OkStatus();
}

Status TsDaemon::OnWindowEnd() {
  TS_TRACE_SPAN(&engine_.obs().trace, "daemon/window");
  WindowRecord record;
  record.window = history_.size();

  // 1. Telemetry: drain the sampler, cool + fold the hotness table.
  const auto samples = engine_.sampler().DrainWindow();
  std::uint64_t n_samples = 0;
  for (const auto& [region, count] : samples) {
    n_samples += count;
  }
  hotness_.EndWindow(samples);
  const Nanos telemetry_cost = n_samples * config_.per_sample_cost;
  engine_.Compute(telemetry_cost);
  charged_overhead_ns_ += telemetry_cost;
  m_samples_->Add(n_samples);
  m_telemetry_ns_->Add(telemetry_cost);
  m_window_samples_->Record(n_samples);

  // Per-tier faults observed during the closing window.
  record.faults.assign(engine_.tiers().count(), 0);
  for (const auto& [tier, faults] : engine_.window_faults()) {
    record.faults[tier] = faults.faults;
  }
  engine_.ResetWindowFaults();

  // 2. Model: ask the policy for a recommendation. Ratio-prediction misses
  // cost real sample compression, so fan them out across the push threads
  // first; the Decide() sweep then reads every predicted ratio as a hash
  // lookup (values identical to an unwarmed serial run).
  if (config_.mode == DaemonMode::kPlace) {
    cost_model_.PrewarmRatios(engine_.space().total_regions(), engine_.thread_pool());
    PlacementInput input;
    input.regions.reserve(engine_.space().total_regions());
    for (std::uint64_t region = 0; region < engine_.space().total_regions(); ++region) {
      input.regions.push_back(RegionProfile{.region = region,
                                            .hotness = hotness_.Hotness(region),
                                            .current_tier = engine_.RegionTier(region)});
    }
    input.hotness_threshold = hotness_.Percentile(config_.threshold_percentile);
    record.hotness_threshold = input.hotness_threshold;

    // Cross-cutting window context (§4h API): the §4d ladder's standing plus
    // the fast path's pins and mid-window activity during the closing window.
    DecisionContext ctx;
    ctx.last_window_degraded = !history_.empty() && history_.back().degraded;
    ctx.consecutive_degraded = consecutive_degraded_;
    if (fast_path_ != nullptr) {
      ctx.pinned = &fast_path_->pinned_regions();
      ctx.fast_path_promotions = fast_path_->window_stats().promotions;
    }

    auto decision = policy_->Decide(input, cost_model_, ctx);

    // Charge the solver cost (§8.4) whether or not the solve succeeded — a
    // timed-out solve burned its budget all the same: local solves interfere
    // with the application; a remote solver costs one RPC round trip.
    if (auto* analytical = dynamic_cast<AnalyticalPolicy*>(policy_)) {
      record.solve_ms = analytical->stats().last_solve_ms;
      record.marginal_gradient = analytical->stats().last_marginal_gradient;
      m_marginal_gradient_->Set(record.marginal_gradient);
      Nanos solve_cost = 0;
      if (config_.remote_solver) {
        solve_cost = config_.remote_rpc_latency;
      } else {
        solve_cost = input.regions.size() * engine_.tiers().count() * kSolveCostPerCell;
      }
      engine_.Compute(solve_cost);
      record.solve_cost_ns = solve_cost;
      charged_overhead_ns_ += solve_cost;
      m_solver_solves_->Add();
      m_solver_cells_->Add(input.regions.size() * engine_.tiers().count());
      m_solve_ns_->Add(solve_cost);
      m_wall_last_solve_ms_->Set(analytical->stats().last_solve_ms);
      m_wall_total_solve_ms_->Set(analytical->stats().total_solve_ms);
    }

    // 3. Filter (§6.7) a fresh decision, then record the post-filter plan.
    // A failed solve (timeout/infeasibility, genuine or injected) never
    // aborts the window: the degradation ladder (DESIGN.md §4d) falls back
    // to the previous window's post-filter plan — already filtered, so it is
    // not re-filtered here — or, before any plan exists, to holding every
    // region on its current tier.
    if (decision.ok()) {
      record.filter = filter_.Apply(input, *decision, cost_model_, engine_, ctx);
      m_filter_kept_->Add(record.filter.kept);
      m_filter_dropped_capacity_->Add(record.filter.dropped_capacity);
      m_filter_dropped_pressure_->Add(record.filter.dropped_pressure);
      m_filter_dropped_benefit_->Add(record.filter.dropped_benefit);
      m_filter_dropped_hysteresis_->Add(record.filter.dropped_hysteresis);
      m_filter_dropped_pinned_->Add(record.filter.dropped_pinned);
      last_plan_ = std::move(*decision);
    } else {
      record.solver_fallback = true;
      record.degraded = true;
      m_solver_fallbacks_->Add();
      if (last_plan_.size() != input.regions.size()) {
        last_plan_.resize(input.regions.size());
        for (std::size_t i = 0; i < input.regions.size(); ++i) {
          last_plan_[i] = std::max(0, input.regions[i].current_tier);
        }
      }
    }
    const std::vector<int>& plan = last_plan_;
    record.recommended_pages.assign(engine_.tiers().count(), 0);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      record.recommended_pages[plan[i]] += kPagesPerRegion;
    }

    // 4. Migrate. A region is also re-packed when enough of its pages have
    // strayed (demand faults promote individual pages to DRAM; once an eighth
    // of the region sits outside the decided tier, push it back). Partial
    // placements (rejections, capacity shortfall) are accounted as
    // unrealized pages rather than failing the window.
    std::vector<std::uint64_t> histogram(engine_.tiers().count());  // reused per region
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const int dst = plan[i];
      if (dst == input.regions[i].current_tier) {
        engine_.RegionTierHistogram(input.regions[i].region, histogram);
        std::uint64_t total = 0;
        for (const std::uint64_t count : histogram) {
          total += count;
        }
        if (total - histogram[dst] <= total / 8) {
          continue;
        }
      }
      auto moved = engine_.MigrateRegion(input.regions[i].region, dst);
      if (moved.ok()) {
        record.migrated_pages += moved->moved;
        record.unrealized_pages += moved->rejected + moved->shortfall;
        record.migrate_retries += moved->retries;
        if (fast_path_ != nullptr && moved->moved > 0) {
          // Feed the ping-pong detector (§4h): a demotion here that the fast
          // path re-promotes within M windows is oscillating.
          fast_path_->NoteBoundaryMove(input.regions[i].region,
                                       input.regions[i].current_tier, dst);
        }
      }
    }
  } else {
    record.recommended_pages.assign(engine_.tiers().count(), 0);
  }

  // 5. Record realized state.
  if (record.unrealized_pages > 0) {
    record.degraded = true;
  }
  if (record.degraded) {
    m_degraded_windows_->Add();
  }
  m_unrealized_pages_->Add(record.unrealized_pages);
  m_migrate_retries_->Add(record.migrate_retries);
  record.actual_pages = engine_.PagesPerTier();
  record.tco = engine_.CurrentTco();
  record.tco_savings = engine_.TcoSavings();
  record.at = engine_.now();
  m_windows_->Add();
  m_migrated_pages_->Add(record.migrated_pages);
  m_window_migrated_->Record(record.migrated_pages);
  m_last_tco_->Set(record.tco);
  m_last_tco_savings_->Set(record.tco_savings);
  m_last_threshold_->Set(record.hotness_threshold);
  consecutive_degraded_ = record.degraded ? consecutive_degraded_ + 1 : 0;
  if (fast_path_ != nullptr) {
    record.fast_path_promotions = fast_path_->window_stats().promotions;
    record.fast_path_pins = fast_path_->window_stats().pingpong_pins;
    // Boundary bookkeeping last: folds the degradation verdict into the
    // backpressure ladder, expires pins, and re-arms the streak detector.
    fast_path_->OnWindowClosed(record.degraded);
    record.pinned_regions = fast_path_->pinned_regions().size();
  }
  history_.push_back(std::move(record));
  next_window_at_ = engine_.now() + config_.profile_window;
  return OkStatus();
}

double TsDaemon::MeanTcoSavings(std::size_t skip) const {
  if (history_.size() <= skip) {
    return history_.empty() ? 0.0 : history_.back().tco_savings;
  }
  double total = 0.0;
  for (std::size_t i = skip; i < history_.size(); ++i) {
    total += history_[i].tco_savings;
  }
  return total / static_cast<double>(history_.size() - skip);
}

}  // namespace tierscape
