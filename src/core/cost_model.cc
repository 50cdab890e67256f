#include "src/core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/compress/compressor.h"

namespace tierscape {
namespace {

// Pool-manager packing model applied to a raw compression ratio.
double PoolAdjustedRatio(PoolManager manager, double raw) {
  switch (manager) {
    case PoolManager::kZbud:
      // Two objects per page at best: below half a page an object pairs with
      // a buddy (ratio 0.5); above, it occupies a page alone.
      return raw <= 0.5 ? 0.5 : 1.0;
    case PoolManager::kZ3fold:
      if (raw <= 1.0 / 3.0) {
        return 1.0 / 3.0;
      }
      return raw <= 0.5 ? 0.5 : 1.0;
    case PoolManager::kZsmalloc: {
      // Round to the 16-byte size class, plus ~3% slab tail waste.
      const double classed =
          std::ceil(raw * kPageSize / 16.0) * 16.0 / static_cast<double>(kPageSize);
      return std::min(1.0, classed * 1.03);
    }
  }
  return raw;
}

}  // namespace

CostModel::CostModel(const TierTable& tiers, const AddressSpace& space,
                     std::uint64_t pebs_period)
    : tiers_(tiers), space_(space), pebs_period_(pebs_period) {}

double CostModel::PredictRatio(std::uint64_t region, int tier) const {
  const TierRef& ref = tiers_.tier(tier);
  if (ref.kind == TierKind::kByteAddressable) {
    return 1.0;
  }
  const std::uint64_t first_page = region * kPagesPerRegion;
  const auto profile = static_cast<int>(space_.ProfileOfPage(first_page));
  const auto key = std::make_pair(profile, tier);
  auto it = ratio_cache_.find(key);
  if (it != ratio_cache_.end()) {
    return it->second;
  }
  const double ratio = ComputeRatio(region, tier);
  ratio_cache_.emplace(key, ratio);
  return ratio;
}

double CostModel::ComputeRatio(std::uint64_t region, int tier) const {
  const TierRef& ref = tiers_.tier(tier);
  const std::uint64_t first_page = region * kPagesPerRegion;
  // Compress two sample pages of this content profile to estimate the raw
  // ratio, then apply the pool packing model.
  const Compressor& compressor = ref.compressed->compressor();
  const double reject_limit = ref.compressed->config().max_store_ratio;
  std::byte page[kPageSize];
  std::byte scratch[2 * kPageSize];
  double total = 0.0;
  constexpr int kSamples = 2;
  for (int i = 0; i < kSamples; ++i) {
    FillPage(space_.ProfileOfPage(first_page), SplitMix64(region * 977 + i), page);
    auto size = compressor.Compress(page, scratch);
    const double raw = size.ok()
                           ? static_cast<double>(*size) / static_cast<double>(kPageSize)
                           : 1.0;
    // Pages the tier would reject stay uncompressed (ratio 1).
    total += raw > reject_limit ? 1.0 : PoolAdjustedRatio(ref.compressed->config().pool_manager, raw);
  }
  return std::min(1.0, total / kSamples);
}

void CostModel::PrewarmRatios(std::uint64_t total_regions) const {
  struct MissingRatio {
    int profile;
    int tier;
    std::uint64_t region;  // exemplar: lowest region of this profile
    double ratio = 0.0;
  };
  std::vector<MissingRatio> missing;
  std::set<std::pair<int, int>> queued;
  for (std::uint64_t region = 0; region < total_regions; ++region) {
    const auto profile = static_cast<int>(space_.ProfileOfPage(region * kPagesPerRegion));
    for (int tier = 0; tier < tiers_.count(); ++tier) {
      if (tiers_.tier(tier).kind != TierKind::kCompressed) {
        continue;
      }
      const auto key = std::make_pair(profile, tier);
      if (ratio_cache_.find(key) != ratio_cache_.end() || !queued.insert(key).second) {
        continue;
      }
      missing.push_back(MissingRatio{.profile = profile, .tier = tier, .region = region});
    }
  }
  // ComputeRatio is pure; workers write disjoint slots, so results are
  // identical for any pool size. Insertion stays on this thread, in scan
  // order, keeping the cache's contents deterministic.
  ThreadPool::Shared().ParallelFor(missing.size(), [&](std::size_t i) {
    missing[i].ratio = ComputeRatio(missing[i].region, missing[i].tier);
  });
  for (const MissingRatio& entry : missing) {
    ratio_cache_.emplace(std::make_pair(entry.profile, entry.tier), entry.ratio);
  }
}

Nanos CostModel::RegionPenalty(std::uint64_t region, int tier) const {
  const TierRef& ref = tiers_.tier(tier);
  if (ref.kind == TierKind::kByteAddressable) {
    const Nanos lat = ref.medium->load_latency_ns();
    const Nanos dram = tiers_.dram().load_latency_ns();
    return lat > dram ? lat - dram : 0;
  }
  // Lat_CT: decompression of the (predicted) compressed size (Eq. 6).
  const double ratio = PredictRatio(region, tier);
  const auto compressed_size = static_cast<std::size_t>(ratio * kPageSize);
  return ref.compressed->LoadCost(compressed_size);
}

double CostModel::RegionPerfCost(std::uint64_t region, double hotness, int tier) const {
  return ExpectedAccesses(hotness) * static_cast<double>(RegionPenalty(region, tier));
}

double CostModel::RegionTcoCost(std::uint64_t region, int tier) const {
  const TierRef& ref = tiers_.tier(tier);
  const double gib = BytesToGiB(kRegionSize);
  if (ref.kind == TierKind::kByteAddressable) {
    return gib * ref.medium->cost_per_gib();
  }
  return gib * PredictRatio(region, tier) * ref.compressed->medium().cost_per_gib();
}

}  // namespace tierscape
