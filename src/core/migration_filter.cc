#include "src/core/migration_filter.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "src/common/logging.h"

namespace tierscape {

namespace {

// A performance-motivated move must save at least this fraction of its own
// migration cost in expected next-window overhead (§6.7 hysteresis, DESIGN.md
// §5b item 9).
constexpr double kMoveCostFactor = 0.5;
// Hysteresis (§6.7): a TCO-motivated move must cut the region's TCO by at
// least this fraction of its DRAM TCO.
constexpr double kHysteresis = 0.02;

}  // namespace

Status FilterConfig::Validate() const {
  if (!(capacity_headroom > 0.0)) {
    return InvalidArgument("FilterConfig: capacity_headroom must be > 0, got " +
                           std::to_string(capacity_headroom));
  }
  if (demotion_benefit_factor < 0.0) {
    return InvalidArgument("FilterConfig: demotion_benefit_factor must be >= 0, got " +
                           std::to_string(demotion_benefit_factor));
  }
  return OkStatus();
}

FilterStats MigrationFilter::Apply(const PlacementInput& input, PlacementDecision& decision,
                                   const CostModel& model, TieringEngine& engine,
                                   const DecisionContext& ctx) const {
  TS_CHECK_EQ(input.regions.size(), decision.size());
  FilterStats stats;
  const TierTable& tiers = model.tiers();

  // Pressured tiers: compressed tiers that faulted hard last window.
  std::vector<bool> pressured(tiers.count(), false);
  for (const auto& [tier, record] : engine.window_faults()) {
    if (record.faults > config_.pressure_fault_limit) {
      pressured[tier] = true;
    }
  }

  // Projected bytes used per medium, updated as moves are admitted. Hot
  // regions are processed first so they win capacity on the fast media.
  std::unordered_map<const Medium*, double> projected;
  for (const Medium* medium : tiers.media()) {
    projected[medium] = static_cast<double>(medium->used_bytes());
  }
  std::vector<std::size_t> order(input.regions.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return input.regions[a].hotness > input.regions[b].hotness;
  });

  for (std::size_t i : order) {
    const RegionProfile& region = input.regions[i];
    int& dst = decision[i];
    if (dst == region.current_tier) {
      continue;
    }
    // Ping-pong pins (§4h): a pinned region holds its tier no matter what the
    // policy asked. Checked before — and independent of — enable_hysteresis:
    // the bench grid disables classic hysteresis for baselines, but a pin
    // exists only because this region already oscillated.
    if (ctx.pinned != nullptr &&
        std::binary_search(ctx.pinned->begin(), ctx.pinned->end(), region.region)) {
      dst = region.current_tier;
      ++stats.dropped_pinned;
      continue;
    }
    const TierRef& dref = tiers.tier(dst);
    const bool demotion = dst > region.current_tier;

    // Hysteresis: the move must buy a meaningful TCO or performance gain.
    if (config_.enable_hysteresis) {
      const double cur_tco = model.RegionTcoCost(region.region, region.current_tier);
      const double dst_tco = model.RegionTcoCost(region.region, dst);
      const double dram_tco = model.RegionTcoCost(region.region, 0);
      const double cur_perf = model.RegionPerfCost(region.region, region.hotness,
                                                   region.current_tier);
      const double dst_perf = model.RegionPerfCost(region.region, region.hotness, dst);
      const bool tco_gain = dst_tco < cur_tco - kHysteresis * dram_tco;
      // Moving a region costs real work; a perf-motivated move must recoup
      // kMoveCostFactor of it within the next window.
      double move_cost = 0.0;
      if (dref.kind == TierKind::kByteAddressable) {
        move_cost = static_cast<double>(kPagesPerRegion) * 2.0 *
                    static_cast<double>(kPageSize / 64) *
                    static_cast<double>(dref.medium->load_latency_ns());
      } else {
        move_cost = static_cast<double>(kPagesPerRegion) *
                    static_cast<double>(dref.compressed->StoreCost(kPageSize / 2));
      }
      const bool perf_gain =
          cur_perf - dst_perf > kMoveCostFactor * move_cost;
      if (!tco_gain && !perf_gain) {
        dst = region.current_tier;
        ++stats.dropped_hysteresis;
        continue;
      }
    }

    // Pressure avoidance (compressed destinations only).
    if (demotion && dref.kind == TierKind::kCompressed && pressured[dst]) {
      dst = region.current_tier;
      ++stats.dropped_pressure;
      continue;
    }

    // Benefit check for demotions into compressed tiers: if the region's
    // expected accesses would fault at a cost exceeding the move cost, the
    // migration cannot pay for itself within a window.
    if (demotion && dref.kind == TierKind::kCompressed) {
      const double expected_fault_cost =
          model.RegionPerfCost(region.region, region.hotness, dst);
      const double move_cost =
          static_cast<double>(kPagesPerRegion) *
          static_cast<double>(dref.compressed->StoreCost(kPageSize / 2));
      if (expected_fault_cost > config_.demotion_benefit_factor * move_cost) {
        dst = region.current_tier;
        ++stats.dropped_benefit;
        continue;
      }
    }

    // Capacity bound on the destination medium.
    const Medium* medium = dref.kind == TierKind::kByteAddressable
                               ? dref.medium
                               : &dref.compressed->medium();
    const double inflow =
        dref.kind == TierKind::kByteAddressable
            ? static_cast<double>(kRegionSize)
            : model.PredictRatio(region.region, dst) * static_cast<double>(kRegionSize);
    const double cap =
        config_.capacity_headroom * static_cast<double>(medium->capacity_bytes());
    if (projected[medium] + inflow > cap) {
      dst = region.current_tier;
      ++stats.dropped_capacity;
      continue;
    }
    projected[medium] += inflow;
    // Credit the source medium with the space this move frees.
    const TierRef& sref = tiers.tier(region.current_tier);
    if (sref.kind == TierKind::kByteAddressable) {
      projected[sref.medium] -= static_cast<double>(kRegionSize);
    } else {
      projected[&sref.compressed->medium()] -=
          model.PredictRatio(region.region, region.current_tier) *
          static_cast<double>(kRegionSize);
    }
    ++stats.kept;
  }

  // The "filter/..." counters are recorded by the caller (TsDaemon) from the
  // returned stats: handles resolve once at daemon construction, never here.
  TS_TRACE_INSTANT(&engine.obs().trace, "filter/apply",
                   "\"kept\":" + std::to_string(stats.kept) + ",\"dropped\":" +
                       std::to_string(stats.dropped_capacity + stats.dropped_pressure +
                                      stats.dropped_benefit + stats.dropped_hysteresis +
                                      stats.dropped_pinned));
  return stats;
}

}  // namespace tierscape
