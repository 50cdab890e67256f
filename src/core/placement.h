// Placement policy interface (§6): given the profiled hotness of every
// region, recommend a destination tier per region.
#ifndef SRC_CORE_PLACEMENT_H_
#define SRC_CORE_PLACEMENT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/cost_model.h"

namespace tierscape {

struct RegionProfile {
  std::uint64_t region = 0;
  double hotness = 0.0;  // decayed sample count (HotnessTable)
  int current_tier = 0;  // where most of the region lives now
};

struct PlacementInput {
  std::vector<RegionProfile> regions;
  // Hotness value at the configured percentile threshold (threshold-based
  // policies promote regions strictly above it).
  double hotness_threshold = 0.0;
};

// One destination per input region (parallel to PlacementInput::regions).
using PlacementDecision = std::vector<int>;

// Cross-cutting daemon state for one boundary decision, kept out of
// PlacementInput (which stays a pure per-region profile): the §4d degradation
// ladder's standing and the §4h fast path's activity during the closing
// window. Extend this struct — not PlacementInput field-by-field — when
// policies need more daemon-side context.
struct DecisionContext {
  // The previous window was degraded (solver fallback or unrealized pages),
  // and how many windows in a row have been.
  bool last_window_degraded = false;
  std::uint64_t consecutive_degraded = 0;
  // Regions pinned by the fast path's ping-pong damper, sorted ascending;
  // null when no fast path runs. Threshold policies keep pinned regions on
  // their current tier; the migration filter unconditionally drops any
  // pinned move that survives a policy (the pin authority of last resort).
  const std::vector<std::uint64_t>* pinned = nullptr;
  // Mid-window fast-path promotions during the closing window.
  std::uint64_t fast_path_promotions = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual std::string_view name() const = 0;

  virtual StatusOr<PlacementDecision> Decide(const PlacementInput& input, const CostModel& model,
                                             const DecisionContext& ctx) = 0;
};

}  // namespace tierscape

#endif  // SRC_CORE_PLACEMENT_H_
