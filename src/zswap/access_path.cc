#include "src/zswap/access_path.h"

#include <algorithm>
#include <utility>

namespace tierscape {

ZswapAccessPath::ZswapAccessPath(ZswapBackend& backend) : backend_(&backend) {
  // Resolve one allocation lock per distinct backing Medium, at construction
  // (§4b spirit): tiers sharing a Medium must serialize their pool mutations
  // against each other, not only against themselves.
  std::vector<Medium*> media;
  tiers_.resize(static_cast<std::size_t>(backend.tier_count()));
  for (int id = 0; id < backend.tier_count(); ++id) {
    TierState& state = tiers_[static_cast<std::size_t>(id)];
    state.tier = &backend.tier(id);
    Medium* medium = &state.tier->medium();
    auto it = std::find(media.begin(), media.end(), medium);
    if (it == media.end()) {
      media.push_back(medium);
      medium_locks_.push_back(std::make_unique<std::mutex>());
      it = media.end() - 1;
    }
    state.medium_mu = medium_locks_[static_cast<std::size_t>(it - media.begin())].get();
    state.shards.reserve(kShardsPerTier);
    for (std::size_t s = 0; s < kShardsPerTier; ++s) {
      state.shards.push_back(std::make_unique<Shard>());
    }
  }
}

StatusOr<ZswapAccessPath::StoreResult> ZswapAccessPath::Store(int tier_id, AccessKey key,
                                                              std::span<const std::byte> page) {
  TS_CHECK_EQ(page.size(), kPageSize);
  TierState& state = StateFor(tier_id);
  CompressedTier& tier = *state.tier;
  Shard& shard = ShardFor(state, key);

  // Compress outside every lock — the dominant cost, and a pure function of
  // (contents, algorithm), so the reject decision below is deterministic.
  std::byte scratch[2 * kPageSize];
  auto compressed = tier.compressor().Compress(page, scratch);
  if (!compressed.ok() || !tier.WithinStoreRatio(*compressed)) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.delta.rejects;
    return Rejected(tier.label() + ": page not compressible enough");
  }
  const std::span<const std::byte> bytes(scratch, *compressed);

  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.count(key) != 0) {
    return FailedPrecondition(tier.label() + ": access key already stored");
  }
  ZPoolHandle handle = 0;
  {
    // Lock order is always shard → medium; the placement itself is a tiny
    // alloc + copy, so striped stores still scale on the compression work.
    std::lock_guard<std::mutex> medium_lock(*state.medium_mu);
    auto placed = tier.PlaceUnaccounted(bytes);
    if (!placed.ok()) {
      return placed.status();  // kOutOfMemory (grant/medium) or pool status
    }
    handle = *placed;
  }
  Entry entry;
  entry.handle = handle;
  entry.compressed_size = static_cast<std::uint32_t>(bytes.size());
  shard.entries.emplace(key, entry);
  ++shard.delta.stores;
  shard.delta.compressed_bytes += bytes.size();

  StoreResult result;
  result.compressed_size = entry.compressed_size;
  result.latency = tier.StoreCost(bytes.size());
  return result;
}

StatusOr<ZswapAccessPath::LoadResult> ZswapAccessPath::Load(int tier_id, AccessKey key,
                                                            std::span<std::byte> out) {
  TS_CHECK_EQ(out.size(), kPageSize);
  TierState& state = StateFor(tier_id);
  CompressedTier& tier = *state.tier;
  Shard& shard = ShardFor(state, key);

  // Pin: the entry (and therefore its pool bytes) cannot be freed until the
  // matching unpin, so the decompression below runs lock-free.
  ZPoolHandle handle = 0;
  std::uint32_t size = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() || it->second.tombstone) {
      return NotFound(tier.label() + ": access key not stored");
    }
    ++it->second.refs;
    handle = it->second.handle;
    size = it->second.compressed_size;
  }

  // Resolve the span under the medium lock (pool index structures are
  // mutated by concurrent placements/frees); the bytes it points at stay
  // valid without the lock because the entry is pinned.
  std::span<const std::byte> bytes;
  {
    std::lock_guard<std::mutex> medium_lock(*state.medium_mu);
    auto peeked = tier.PeekCompressed(handle);
    TS_CHECK(peeked.ok()) << peeked.status().ToString();
    bytes = *peeked;
  }
  auto decompressed = tier.compressor().Decompress(bytes, out);
  TS_CHECK(decompressed.ok()) << decompressed.status().ToString();

  // Unpin; the last unpin retires a tombstoned entry onto the shard-local
  // free list (drained at FlushAccounting).
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    TS_CHECK(it != shard.entries.end());
    --it->second.refs;
    if (it->second.tombstone && it->second.refs == 0) {
      shard.free_list.push_back(it->second.handle);
      shard.entries.erase(it);
    }
    ++shard.delta.loads;
  }

  LoadResult result;
  result.compressed_size = size;
  result.latency = tier.LoadCost(size);
  return result;
}

Status ZswapAccessPath::Invalidate(int tier_id, AccessKey key) {
  TierState& state = StateFor(tier_id);
  CompressedTier& tier = *state.tier;
  Shard& shard = ShardFor(state, key);

  ZPoolHandle handle = 0;
  bool free_now = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() || it->second.tombstone) {
      return NotFound(tier.label() + ": access key not stored");
    }
    ++shard.delta.invalidates;
    if (it->second.refs > 0) {
      it->second.tombstone = true;  // pinned: the last unpin retires it
    } else {
      handle = it->second.handle;
      shard.entries.erase(it);
      free_now = true;
    }
  }
  if (free_now) {
    std::lock_guard<std::mutex> medium_lock(*state.medium_mu);
    const Status freed = tier.FreeUnaccounted(handle);
    TS_CHECK(freed.ok()) << freed.ToString();
  }
  return OkStatus();
}

void ZswapAccessPath::FlushAccounting() {
  for (TierState& state : tiers_) {
    CompressedTier::AccessDelta merged;
    std::vector<ZPoolHandle> to_free;
    for (auto& shard : state.shards) {
      std::lock_guard<std::mutex> lock(shard->mu);
      merged.Accumulate(shard->delta);
      shard->delta = CompressedTier::AccessDelta{};
      to_free.insert(to_free.end(), shard->free_list.begin(), shard->free_list.end());
      shard->free_list.clear();
    }
    if (!to_free.empty()) {
      std::lock_guard<std::mutex> medium_lock(*state.medium_mu);
      for (ZPoolHandle handle : to_free) {
        const Status freed = state.tier->FreeUnaccounted(handle);
        TS_CHECK(freed.ok()) << freed.ToString();
      }
    }
    state.tier->CommitAccessDelta(merged);
  }
}

std::size_t ZswapAccessPath::EntryCount(int tier_id) const {
  TS_CHECK(tier_id >= 0 && static_cast<std::size_t>(tier_id) < tiers_.size());
  const TierState& state = tiers_[static_cast<std::size_t>(tier_id)];
  std::size_t count = 0;
  for (const auto& shard : state.shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    count += shard->entries.size();
  }
  return count;
}

}  // namespace tierscape
