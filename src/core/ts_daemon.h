// TS-Daemon (§7.2, Figure 6): the periodic profile -> model -> migrate loop.
//
// Every profile window the daemon drains the PEBS-style sampler, folds the
// samples into the cooled hotness table, asks the configured placement model
// for a recommendation, runs it through the migration filter, and triggers
// region migrations. Each window's recommendation, realized placement,
// per-tier faults, and memory TCO are recorded — these traces are what
// Figures 8, 9 and 12 plot.
//
// Daemon costs are modeled explicitly (§8.4): per-sample telemetry processing
// and — for the analytical model — either the measured local solve time (CPU
// interference) or a fixed RPC latency when the solver runs remotely.
#ifndef SRC_CORE_TS_DAEMON_H_
#define SRC_CORE_TS_DAEMON_H_

#include <memory>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/fast_path.h"
#include "src/core/migration_filter.h"
#include "src/core/placement.h"
#include "src/telemetry/hotness.h"
#include "src/tiering/engine.h"

namespace tierscape {

// What the daemon does at a window boundary (DESIGN.md §4h): kProfileOnly
// drains telemetry and records the window but never decides or migrates (the
// Fig. 14 profiling-only mode and the bench grids' DRAM-only reference
// column — a stated mode, not a nullable-policy convention); kPlace runs the
// full profile -> model -> filter -> migrate loop.
enum class DaemonMode { kProfileOnly, kPlace };

// One workload operation's worth of externally visible activity, fed to
// TsDaemon::Observe. The engine already charged the access stream and fed the
// sampler during the op itself; Observe reacts to what the op produced.
struct AccessEvent {
  std::uint64_t ops = 1;  // operations this event represents (window pacing)
  Nanos latency = 0;      // the op's charged latency (daemon/op_latency_ns)
};

struct DaemonConfig {
  // Virtual-time length of one profile window (W5 = 5 s in the artifact; the
  // simulation defaults shorter so runs complete in seconds of host time).
  Nanos profile_window = 100 * kMilli;
  // When non-zero, a window closes every `window_ops` operations instead of
  // on the virtual-time boundary — keeps the window count independent of how
  // slow a policy makes the workload (the artifact's fixed 5 s windows have
  // the same effect at real-time scale).
  std::uint64_t window_ops = 0;
  // Percentile of region hotness used as the promote threshold for the
  // threshold-driven policies (25th in §8.1).
  double threshold_percentile = 25.0;
  // Telemetry post-processing cost charged per sample.
  Nanos per_sample_cost = 150;
  // Analytical-model solver placement: a local solve is charged against the
  // application (CPU interference); remote charges only an RPC. A remote
  // solve does not consume local CPU; the daemon overlaps the RPC with the
  // window, so only the submit/receive syscalls touch the app.
  bool remote_solver = false;
  Nanos remote_rpc_latency = 100 * kMicro;
  // Boundary behavior: kPlace runs the full loop; kProfileOnly (Fig. 14, the
  // DRAM-only reference columns) profiles and records but never migrates.
  DaemonMode mode = DaemonMode::kPlace;
  // Event-driven sub-window fast path (DESIGN.md §4h); requires kPlace.
  FastPathConfig fast_path;
  FilterConfig filter;

  // Rejects nonsensical knobs (zero window, percentile outside [0, 100],
  // negative costs) with actionable messages; checked once at daemon
  // construction.
  Status Validate() const;
};

class TsDaemon {
 public:
  struct WindowRecord {
    std::uint64_t window = 0;
    Nanos at = 0;                                // virtual time of the window end
    double hotness_threshold = 0.0;
    std::vector<std::uint64_t> recommended_pages;  // per tier, from the model
    std::vector<std::uint64_t> actual_pages;       // per tier, after migration
    std::vector<std::uint64_t> faults;             // per tier, during the window
    std::uint64_t migrated_pages = 0;
    double tco = 0.0;
    double tco_savings = 0.0;
    // Measured wall-clock solve time (reporting only; never compared across
    // runs — the determinism quarantine, metrics.h).
    double solve_ms = 0.0;
    // The solver cost actually charged to the virtual clock this window
    // (modeled constants or RPC latency, §8.4) — deterministic, safe for
    // bench stdout.
    Nanos solve_cost_ns = 0;
    FilterStats filter;
    // Graceful degradation (DESIGN.md §4d). A window is degraded when the
    // solver fell back to a stale plan or part of the recommendation could
    // not be realized (capacity shortfall / store rejection).
    bool degraded = false;
    bool solver_fallback = false;            // Decide() failed; stale plan used
    std::uint64_t unrealized_pages = 0;      // recommended but not placed
    std::uint64_t migrate_retries = 0;       // transient-store retries charged
    // Never written, always zero: every window runs one cold solve (DESIGN.md
    // §4e). They stay because perfbench/src/runner.cc hashes them into its
    // result digest.
    bool solver_warm = false;
    bool solver_warm_fallback = false;
    std::uint64_t solver_groups_changed = 0;
    // Marginal TCO-vs-perf gradient of this window's plan (Eq. 2 shadow
    // price, AnalyticalPolicy::Stats): the perf this tenant could still buy
    // per extra TCO dollar. The multi-tenant utility arbiter reads it as the
    // tenant's bid for more capacity (DESIGN.md §4f). Zero for non-AM
    // policies and slack-budget windows.
    double marginal_gradient = 0.0;
    // §4h fast path: mid-window promotions and ping-pong pins created during
    // the closing window, plus the pins still active going into the next one.
    std::uint64_t fast_path_promotions = 0;
    std::uint64_t fast_path_pins = 0;
    std::uint64_t pinned_regions = 0;
  };

  // `policy` must be non-null exactly when config.mode == DaemonMode::kPlace
  // (TS_CHECKed) — the old null-policy-means-profiling convention is gone.
  TsDaemon(TieringEngine& engine, PlacementPolicy* policy, DaemonConfig config = {});

  // The single daemon entry point (DESIGN.md §4h): feed one workload op's
  // event. Paces the window (op count or virtual time), pumps the sub-window
  // fast path's triggers, and runs OnWindowEnd when the boundary passes.
  Status Observe(const AccessEvent& event);

  // Runs one window boundary: profile, decide, filter, migrate, record.
  // Public for callers that own their boundary placement (tests, ablations);
  // ordinary per-op callers go through Observe.
  Status OnWindowEnd();

  // Virtual time at which the next window closes.
  Nanos next_window_at() const { return next_window_at_; }

  const std::vector<WindowRecord>& history() const { return history_; }
  HotnessTable& hotness() { return hotness_; }
  CostModel& cost_model() { return cost_model_; }
  PlacementPolicy* policy() { return policy_; }
  // Null unless config.fast_path.enabled.
  const FastPath* fast_path() const { return fast_path_.get(); }

  // Total daemon work charged to the application clock so far.
  Nanos charged_overhead_ns() const { return charged_overhead_ns_; }

  // Mean TCO savings across recorded windows (steady-state excluding the
  // first `skip` windows).
  double MeanTcoSavings(std::size_t skip = 1) const;

 private:
  TieringEngine& engine_;
  PlacementPolicy* policy_;
  DaemonConfig config_;
  HotnessTable hotness_;
  CostModel cost_model_;
  MigrationFilter filter_;
  std::unique_ptr<FastPath> fast_path_;  // null unless config.fast_path.enabled
  Nanos next_window_at_;
  std::uint64_t ops_since_window_ = 0;
  std::uint64_t consecutive_degraded_ = 0;  // §4d ladder standing (DecisionContext)
  Nanos charged_overhead_ns_ = 0;
  std::vector<WindowRecord> history_;
  // Previous window's post-filter plan (per region, in region order): the
  // fallback placement when a solve fails (DESIGN.md §4d).
  std::vector<int> last_plan_;
  // Cached "daemon/..." and "solver/..." handles (engine's observability
  // scope), resolved once in the constructor.
  Counter* m_windows_ = nullptr;
  Counter* m_samples_ = nullptr;
  Counter* m_telemetry_ns_ = nullptr;
  Counter* m_solve_ns_ = nullptr;
  Counter* m_migrated_pages_ = nullptr;
  Counter* m_solver_solves_ = nullptr;
  Counter* m_solver_cells_ = nullptr;
  Counter* m_degraded_windows_ = nullptr;
  Counter* m_solver_fallbacks_ = nullptr;
  Counter* m_unrealized_pages_ = nullptr;
  Counter* m_migrate_retries_ = nullptr;
  // "filter/..." outcomes, recorded here from the FilterStats Apply returns so
  // MigrationFilter itself stays registry-free (handle resolution belongs at
  // construction, DESIGN.md §4b).
  Counter* m_filter_kept_ = nullptr;
  Counter* m_filter_dropped_capacity_ = nullptr;
  Counter* m_filter_dropped_pressure_ = nullptr;
  Counter* m_filter_dropped_benefit_ = nullptr;
  Counter* m_filter_dropped_hysteresis_ = nullptr;
  Counter* m_filter_dropped_pinned_ = nullptr;
  Gauge* m_last_tco_ = nullptr;
  Gauge* m_last_tco_savings_ = nullptr;
  Gauge* m_last_threshold_ = nullptr;
  Gauge* m_marginal_gradient_ = nullptr;
  Gauge* m_wall_last_solve_ms_ = nullptr;   // wall/: excluded from determinism
  Gauge* m_wall_total_solve_ms_ = nullptr;  // comparisons (metrics.h)
  FixedHistogram* m_window_migrated_ = nullptr;
  FixedHistogram* m_window_samples_ = nullptr;
  FixedHistogram* m_op_latency_ = nullptr;
};

}  // namespace tierscape

#endif  // SRC_CORE_TS_DAEMON_H_
