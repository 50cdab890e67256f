// Migration pre-filter (§6.7).
//
// The ILP output is post-processed before any migration is triggered; the
// paper keeps these concerns out of the ILP to keep solving cheap. The filter
//  * bounds the intake of every tier by its backing medium's free capacity
//    (hot regions are given DRAM capacity first),
//  * avoids moving regions into "pressured" tiers — compressed tiers that
//    faulted heavily in the last window, and
//  * skips migrations whose expected benefit cannot amortize the move cost
//    (demoting a region the profiler still sees as warm into a tier whose
//    fault penalty would immediately exceed the migration cost).
// Filtered entries are reset to the region's current tier.
#ifndef SRC_CORE_MIGRATION_FILTER_H_
#define SRC_CORE_MIGRATION_FILTER_H_

#include <cstdint>

#include "src/core/placement.h"
#include "src/tiering/engine.h"

namespace tierscape {

struct FilterConfig {
  // Never fill a backing medium beyond this fraction. Values > 1 disable the
  // bound (the ablation_filter "no capacity bound" variant).
  double capacity_headroom = 0.95;
  // A compressed tier with more demand faults than this in the last window
  // is pressured: no new regions are moved into it this round.
  std::uint64_t pressure_fault_limit = 2048;
  // Skip demotions where expected next-window fault cost exceeds this
  // multiple of the migration cost.
  double demotion_benefit_factor = 4.0;
  // Hysteresis: drop moves that improve neither TCO nor performance by at
  // least this fraction (damps churn between near-equivalent tiers). The
  // Waterfall model disables this — its aging steps are intentional even
  // when an individual hop's TCO gain is small.
  double hysteresis = 0.02;
  bool enable_hysteresis = true;

  // Rejects nonsensical knobs; checked with the owning DaemonConfig.
  Status Validate() const;
};

struct FilterStats {
  std::uint64_t kept = 0;
  std::uint64_t dropped_capacity = 0;
  std::uint64_t dropped_pressure = 0;
  std::uint64_t dropped_benefit = 0;
  std::uint64_t dropped_hysteresis = 0;
  // Moves of regions pinned by the fast path's ping-pong damper (§4h) — a
  // hysteresis class of its own, active even where classic hysteresis is
  // disabled (pins exist only when the fast path created them).
  std::uint64_t dropped_pinned = 0;
};

class MigrationFilter {
 public:
  explicit MigrationFilter(FilterConfig config = {}) : config_(config) {}

  // Mutates `decision` in place; returns what was filtered and why.
  // `ctx.pinned` (when set) is the §4h pin set — any move of a pinned region
  // is reset to its current tier, regardless of enable_hysteresis.
  FilterStats Apply(const PlacementInput& input, PlacementDecision& decision,
                    const CostModel& model, TieringEngine& engine,
                    const DecisionContext& ctx) const;

 private:
  FilterConfig config_;
};

}  // namespace tierscape

#endif  // SRC_CORE_MIGRATION_FILTER_H_
