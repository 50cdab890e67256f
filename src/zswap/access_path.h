// Concurrent MPMC access path through ZswapBackend (DESIGN.md §4g).
//
// The sequential CompressedTier API assumes one caller; production zswap
// traffic is many-producer/many-consumer — tenant shards and migration push
// threads hitting the compressed tiers at once (ROADMAP item 2, the "tyche"
// direction; TPP observes promotion latency is dominated by contention on
// exactly this path). This class makes the tiers safely concurrent without
// letting wall-clock interleaving reach virtual time:
//
//  * Hash-sharded per-tier entry maps with lock striping: each tier's
//    key→entry map is split across `kShardsPerTier` stripes, each with its
//    own mutex, so operations on different keys rarely contend.
//  * Refcounted entries: a load pins its entry (refs+1) and decompresses
//    OUTSIDE every lock — the dominant cost runs fully parallel — so loads
//    never block stores/invalidates to other entries. Invalidating a pinned
//    entry tombstones it; the last unpin retires it onto the shard's local
//    free list.
//  * Per-medium allocation locks: tiers may share a backing Medium (the
//    standard mixes put several pools on NVMM), so every pool/medium
//    mutation — and every span resolution — serializes on a lock resolved
//    per distinct Medium at construction (§4b handle-resolution spirit).
//    Lock order is shard → medium, never the reverse.
//  * Shard-local accounting: statistics accumulate into a per-shard
//    CompressedTier::AccessDelta (sums only, so the merged value is
//    independent of interleaving) and roll up to the existing tier gauges
//    only at FlushAccounting(), a deterministic commit point on the
//    submitting thread.
//
// Determinism contract (thread_pool.h, DESIGN.md §4c/§4g): returned
// latencies are pure functions of the entry's compressed size
// (CompressedTier::{Store,Load}Cost), so callers on a ThreadPool compute
// them into disjoint per-index slots and charge virtual time on the
// submitting thread in ascending-index order. Deterministic harnesses
// partition keys across workers (disjoint keys); concurrent operations on
// the SAME key serialize safely but their statuses depend on wall-clock
// order, so overlapping keys are for invariant (stress/TSan) testing only.
// Occupancy gauges published by FlushAccounting are order-independent in
// their counter components (sums); pool-page packing (zbud pairing) is
// allocation-order-dependent mid-stream, so harnesses that export metrics
// drain their entries first (micro_access does; EXPERIMENTS.md).
//
// Fault injection is deliberately bypassed: hooks are only legal on
// sequential paths (DESIGN.md §4d). Faulted experiments drive tiers through
// the sequential CompressedTier API.
#ifndef SRC_ZSWAP_ACCESS_PATH_H_
#define SRC_ZSWAP_ACCESS_PATH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/zswap/zswap.h"

namespace tierscape {

// Caller-chosen stable entry key (page number, tenant-scoped id, ...).
using AccessKey = std::uint64_t;

class ZswapAccessPath {
 public:
  struct StoreResult {
    std::uint32_t compressed_size = 0;
    Nanos latency = 0;  // pure function of the compressed size (StoreCost)
  };
  struct LoadResult {
    std::uint32_t compressed_size = 0;
    Nanos latency = 0;  // pure function of the compressed size (LoadCost)
  };

  // Builds shards and per-medium locks over the backend's currently
  // registered tiers. Tiers added to the backend afterwards are not visible;
  // ZswapBackend::AddTier refuses once its access path exists.
  explicit ZswapAccessPath(ZswapBackend& backend);

  ZswapAccessPath(const ZswapAccessPath&) = delete;
  ZswapAccessPath& operator=(const ZswapAccessPath&) = delete;

  ZswapBackend& backend() { return *backend_; }

  // --- MPMC operations: any number of threads may call these concurrently --

  // Compresses `page` (must be kPageSize) and stores it under (tier, key).
  // kRejected mirrors CompressedTier::Store (incompressible — a pure function
  // of the contents), kOutOfMemory means medium/grant exhaustion, and
  // kFailedPrecondition reports a key that is already stored.
  StatusOr<StoreResult> Store(int tier_id, AccessKey key, std::span<const std::byte> page);

  // Decompresses the entry into `out` (must be kPageSize), pinning it for the
  // duration so concurrent invalidates of the same key and frees of other
  // entries can never pull the bytes out from under the decompressor.
  // kNotFound when the key is absent (or already tombstoned).
  StatusOr<LoadResult> Load(int tier_id, AccessKey key, std::span<std::byte> out);

  // Drops the entry. If loads currently pin it, the entry is tombstoned and
  // retired onto the shard's free list by the last unpin (its pool bytes
  // return at the next FlushAccounting); otherwise the pool entry is freed
  // immediately. kNotFound when absent or already tombstoned.
  Status Invalidate(int tier_id, AccessKey key);

  // --- Sequential commit points (submitting thread only) -------------------

  // Rolls every shard's accounting delta up to the tier's stats, counters,
  // and occupancy gauges (CompressedTier::CommitAccessDelta) and frees
  // tombstoned entries parked on shard free lists. Deterministic given
  // deterministic per-worker operation sets: every committed value is a sum.
  void FlushAccounting();

  // Entries currently stored in the tier's shards (tombstoned ones included).
  // Takes each shard lock in turn; meant for sequential validation points.
  std::size_t EntryCount(int tier_id) const;

 private:
  struct Entry {
    ZPoolHandle handle = 0;
    std::uint32_t compressed_size = 0;
    std::uint32_t refs = 0;    // outstanding pinned loads
    bool tombstone = false;    // invalidated while pinned; freed at last unpin
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<AccessKey, Entry> entries;
    CompressedTier::AccessDelta delta;          // rolled up by FlushAccounting
    std::vector<ZPoolHandle> free_list;         // tombstones retired by unpin
  };

  struct TierState {
    CompressedTier* tier = nullptr;
    std::mutex* medium_mu = nullptr;  // shared by every tier on this Medium
    std::vector<std::unique_ptr<Shard>> shards;
  };

  Shard& ShardFor(TierState& state, AccessKey key) const {
    // Fibonacci hashing spreads adjacent keys across stripes.
    return *state.shards[(key * 0x9E3779B97F4A7C15ull) >> (64 - kShardBits)];
  }
  TierState& StateFor(int tier_id) {
    TS_CHECK(tier_id >= 0 && static_cast<std::size_t>(tier_id) < tiers_.size());
    return tiers_[tier_id];
  }

  // Lock stripes per tier, a power of two for Fibonacci hashing. 16 keeps
  // stripe collisions rare at 8 concurrent callers while per-shard maps stay
  // small (DESIGN.md §4g).
  static constexpr int kShardBits = 4;
  static constexpr std::size_t kShardsPerTier = std::size_t{1} << kShardBits;

  ZswapBackend* backend_;
  std::vector<std::unique_ptr<std::mutex>> medium_locks_;  // one per distinct Medium
  std::vector<TierState> tiers_;
};

}  // namespace tierscape

#endif  // SRC_ZSWAP_ACCESS_PATH_H_
