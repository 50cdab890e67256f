// The analytical cost model of §6.4-§6.6 (Equations 1-10).
//
// For every (region, tier) pair the model produces:
//  * a performance-overhead cost (Eq. 7): expected accesses next window x
//    the tier's access penalty over DRAM — with the paper's assumption that
//    next-window accesses are proportional to last-window accesses; and
//  * a TCO weight (Eq. 10): region size x the backing medium's unit cost,
//    scaled by the predicted compression ratio for compressed tiers.
//
// Compression ratios are *predicted per region* by compressing sample pages
// of the region's data with the tier's algorithm and applying the pool
// manager's packing model (zbud halves at best, z3fold thirds, zsmalloc
// size-class rounding) — the compressibility dimension of §3.3.
#ifndef SRC_CORE_COST_MODEL_H_
#define SRC_CORE_COST_MODEL_H_

#include <cstdint>
#include <map>

#include "src/common/units.h"
#include "src/tiering/address_space.h"
#include "src/tiering/tier_table.h"

namespace tierscape {

class CostModel {
 public:
  CostModel(const TierTable& tiers, const AddressSpace& space, std::uint64_t pebs_period);

  // Expected accesses in the next profile window for a region whose decayed
  // hotness (in samples) is `hotness`.
  double ExpectedAccesses(double hotness) const {
    return hotness * static_cast<double>(pebs_period_);
  }

  // Performance-overhead contribution (ns) of keeping a region with the given
  // hotness in `tier` for one window (Eq. 7 term).
  double RegionPerfCost(std::uint64_t region, double hotness, int tier) const;

  // TCO contribution (normalized dollars) of a region resident in `tier`
  // (Eq. 10 term).
  double RegionTcoCost(std::uint64_t region, int tier) const;

  // Predicted effective compression ratio (pool bytes / original bytes) for
  // the region's data stored in `tier`; 1.0 for byte-addressable tiers.
  double PredictRatio(std::uint64_t region, int tier) const;

  // Computes every ratio-cache miss across (region profile, compressed tier)
  // pairs on ThreadPool::Shared() — the sample-compression sweeps are pure,
  // so they fan out — then inserts the results in deterministic scan order.
  // After this, a Decide() sweep reads predicted ratios as hash lookups only.
  // Exemplar regions match the serial first-query order (lowest region per
  // profile), so the cached values are identical to an unwarmed serial run.
  void PrewarmRatios(std::uint64_t total_regions) const;

  // Predicted access penalty (ns over DRAM) for one access to the region if
  // placed in `tier` (Eq. 6's delta / Lat_CT).
  Nanos RegionPenalty(std::uint64_t region, int tier) const;

  const TierTable& tiers() const { return tiers_; }

 private:
  // The uncached ratio computation: compresses sample pages of the region's
  // content profile. Pure (no member mutation), so PrewarmRatios may run it
  // from parallel workers.
  double ComputeRatio(std::uint64_t region, int tier) const;

  const TierTable& tiers_;
  const AddressSpace& space_;
  std::uint64_t pebs_period_;
  // Ratio cache keyed by (corpus profile, tier index).
  mutable std::map<std::pair<int, int>, double> ratio_cache_;
};

}  // namespace tierscape

#endif  // SRC_CORE_COST_MODEL_H_
