// The tiered-memory access engine.
//
// Executes every memory access of a workload against the current page
// placement, charging virtual time: a DRAM/NVMM/CXL access costs that
// medium's load latency; touching a page held in a compressed tier raises a
// fault — the entry is really decompressed, verified, and the page promoted
// to DRAM (or the next byte tier when DRAM is full), at the tier's load cost
// (§6.5). The engine also tracks the hypothetical all-DRAM execution time
// (Eq. 3), so slowdown and perf_ovh (Eq. 5) fall out exactly as defined.
//
// Region migration (2 MiB at a time, §7.2) really moves data: compressed
// stores run the compressor and land in the pool on the tier's backing
// medium. Migration cost is tracked separately as TS-Daemon tax, with a
// configurable fraction charged to application time to model bandwidth
// interference from the daemon's push threads.
#ifndef SRC_TIERING_ENGINE_H_
#define SRC_TIERING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/compress/compression_cache.h"
#include "src/obs/observability.h"
#include "src/telemetry/sampler.h"
#include "src/tiering/address_space.h"
#include "src/tiering/tier_table.h"

namespace tierscape {

struct EngineConfig {
  std::uint64_t pebs_period = 5000;
  // Fraction of migration work charged to the application clock. The paper
  // runs migration on TS-Daemon's dedicated push threads (PT2 in the
  // artifact), so the application only sees bandwidth interference.
  double migration_interference = 0.05;
  // Memoize per-page compression results keyed by content version; a repeat
  // store of an unchanged page skips the real compress pass. Never affects
  // virtual time — the modeled store cost is derived from the compressed
  // size, which is identical either way.
  bool compression_cache = true;
  // Debug cross-check: PagesPerTier() and RegionTierHistogram() re-derive
  // their counts with a full page scan and TS_CHECK it against the
  // incremental counters.
  bool check_tier_counts = false;

  // Rejects nonsensical knobs before any engine state is built.
  Status Validate() const;
};

class TieringEngine {
 public:
  struct PageState {
    std::int32_t tier = -1;         // index into the TierTable; -1 = not placed
    std::uint64_t location = 0;     // frame (byte tier) or pool handle
    std::uint32_t compressed_size = 0;
    std::uint64_t checksum = 0;     // contents checksum at compression time
  };

  struct FaultRecord {
    std::uint64_t faults = 0;
    Nanos latency = 0;
  };

  // Per-region migration accounting, including the degradation ladder's
  // outcomes (DESIGN.md §4d): pages that moved, pages rejected as
  // incompressible (left in place, zswap-style), pages left behind because
  // the destination ran out of space (`shortfall`), and the transient-failure
  // retry work that was absorbed along the way.
  struct MigrateOutcome {
    std::uint64_t moved = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shortfall = 0;
    std::uint64_t transient_failures = 0;  // kUnavailable store attempts seen
    std::uint64_t retries = 0;             // retry attempts charged
    Nanos retry_backoff_ns = 0;            // virtual backoff added to the cost
  };

  TieringEngine(AddressSpace& space, TierTable& tiers, EngineConfig config = {});
  ~TieringEngine();

  TieringEngine(const TieringEngine&) = delete;
  TieringEngine& operator=(const TieringEngine&) = delete;

  // Places every page on the initial tier (DRAM, spilling to the next byte
  // tiers when full). Must be called once before accesses.
  Status PlaceInitial();

  // Executes one load/store; returns the access latency charged.
  Nanos Access(std::uint64_t vaddr, bool is_store) { return AccessBulk(vaddr, 1, is_store); }

  // Executes `lines` consecutive cacheline accesses within one page (e.g.
  // streaming a KV value): at most one decompression fault, then per-line
  // residency latency. Returns the total latency charged.
  Nanos AccessBulk(std::uint64_t vaddr, std::uint32_t lines, bool is_store);

  // Charges pure compute time (no memory access) to the application clock.
  void Compute(Nanos ns) { clock_ += ns; opt_clock_ += ns; }

  // Moves all pages of `region` to tier `dst`. Incompressible pages stay
  // where they are (zswap-style rejection); pages the destination has no
  // space for are left in place and counted as shortfall (partial
  // placement); transient store failures are retried with virtual-time
  // backoff and give up into the shortfall after a bounded number of
  // attempts (DESIGN.md §4d). Never fails on capacity or injected faults — only on
  // structurally invalid arguments.
  StatusOr<MigrateOutcome> MigrateRegion(std::uint64_t region, int dst);

  // Promote-one-region entry point for the sub-window fast path (DESIGN.md
  // §4h): pulls every page of `region` into DRAM, spilling to the next byte
  // tiers when DRAM is full (AllocByteFrame). Same partial-placement and
  // retry semantics as MigrateRegion — just the promotion direction named as
  // an API, so fast-path callers cannot pick an arbitrary destination.
  StatusOr<MigrateOutcome> PromoteRegion(std::uint64_t region) { return MigrateRegion(region, 0); }

  // --- clocks -------------------------------------------------------------
  Nanos now() const { return clock_; }
  // All-DRAM execution time of the same access stream (Eq. 3).
  Nanos optimal_now() const { return opt_clock_; }
  // perf_ovh (Eq. 5) and the slowdown ratio derived from it.
  Nanos perf_overhead() const { return clock_ - opt_clock_; }
  double Slowdown() const {
    return opt_clock_ == 0 ? 1.0
                           : static_cast<double>(clock_) / static_cast<double>(opt_clock_);
  }

  // --- TCO (Eq. 8/10) -----------------------------------------------------
  // Current dollars: used bytes on every medium (application pages on byte
  // tiers + real compressed pool bytes) times the medium's unit cost.
  double CurrentTco() const;
  // TCO_max: everything resident in DRAM.
  double DramOnlyTco() const;
  double TcoSavings() const {
    const double max_tco = DramOnlyTco();
    return max_tco == 0.0 ? 0.0 : 1.0 - CurrentTco() / max_tco;
  }

  // --- bookkeeping ----------------------------------------------------------
  const PageState& page_state(std::uint64_t page) const { return pages_[page]; }
  // Pages currently in each tier. O(tiers): counts are maintained
  // incrementally on every placement change (optionally cross-checked against
  // a full scan via EngineConfig::check_tier_counts).
  std::vector<std::uint64_t> PagesPerTier() const;
  // Pages of `region` currently in each tier, written into caller-provided
  // storage (`counts.size()` must be the tier count) — the allocation-free
  // form for per-window loops. O(tiers): copied from counts maintained
  // incrementally in SetPageTier, not a page scan (the daemon calls this for
  // every region every window, §6.2's per-region placement sweep).
  void RegionTierHistogram(std::uint64_t region, std::span<std::uint64_t> counts) const;
  std::vector<std::uint64_t> RegionTierHistogram(std::uint64_t region) const;
  // Dominant tier of a region (where most of its pages live). O(tiers).
  int RegionTier(std::uint64_t region) const;

  const std::unordered_map<int, FaultRecord>& window_faults() const { return window_faults_; }
  void ResetWindowFaults() { window_faults_.clear(); }

  std::uint64_t total_faults() const { return total_faults_; }
  std::uint64_t total_migrated_pages() const { return migrated_pages_; }
  Nanos migration_ns() const { return migration_ns_; }
  // Demand faults served in place because no byte tier had a free frame: the
  // page stayed compressed instead of crashing the engine (DESIGN.md §4d).
  std::uint64_t degraded_promotes() const { return degraded_promotes_; }

  PebsSampler& sampler() { return sampler_; }
  AddressSpace& space() { return space_; }
  TierTable& tiers() { return tiers_; }
  const EngineConfig& config() const { return config_; }
  // Null when EngineConfig::compression_cache is off.
  const CompressionCache* compression_cache() const { return compression_cache_.get(); }
  // The assembly's observability scope (TierTable's, falling back to the
  // process default). The engine registers its virtual clock with the trace
  // recorder for its lifetime; the daemon and filter record through this too.
  Observability& obs() { return *obs_; }

 private:
  // One page of a migration batch staged by the parallel compress phase.
  struct StagedPage {
    std::uint64_t page = 0;
    bool compressed_ready = false;  // bytes/checksum below are valid
    bool cache_hit = false;
    bool compress_failed = false;  // output overflowed even the full scratch
    Status source_status;  // phase-1 compressed-source read; checked in phase 2
    std::uint64_t checksum = 0;
    std::span<const std::byte> bytes;  // cache entry or per-slot scratch
  };

  // Allocates a frame on the byte tier `tier` or, when full, on successive
  // byte tiers. Returns the tier actually used.
  StatusOr<int> AllocByteFrame(int preferred_tier, std::uint64_t* frame_out);
  Status EvictPage(std::uint64_t page);  // frees the page's current location
  Status PlacePageInByteTier(std::uint64_t page, int tier);
  // Handles an access to a compressed page: decompress + promote.
  Nanos HandleFault(std::uint64_t page);
  // Moves a page between tier count buckets; the single mutation point for
  // PageState::tier, keeping the incremental PagesPerTier() counts exact.
  void SetPageTier(std::uint64_t page, int tier);

  AddressSpace& space_;
  TierTable& tiers_;
  EngineConfig config_;
  Observability* obs_ = nullptr;  // resolved in the constructor, never null
  PebsSampler sampler_;
  std::vector<PageState> pages_;
  std::vector<std::uint64_t> tier_pages_;  // incremental per-tier page counts
  // Incremental per-region per-tier counts, row-major [region][tier]; kept
  // exact by SetPageTier so region histograms never rescan pages.
  std::vector<std::uint64_t> region_tier_pages_;
  // Cached instrument handles ("engine/..."): resolved once at construction
  // so the access hot path never touches the registry map.
  Counter* m_access_ops_ = nullptr;
  Counter* m_access_stores_ = nullptr;
  Counter* m_faults_ = nullptr;
  Counter* m_fault_ns_ = nullptr;
  Counter* m_migrate_regions_ = nullptr;
  Counter* m_migrate_pages_ = nullptr;
  Counter* m_migrate_rejected_ = nullptr;
  Counter* m_migrate_fanout_compressed_ = nullptr;
  Counter* m_migrate_fanout_cache_hits_ = nullptr;
  Counter* m_migrate_load_ns_ = nullptr;
  Counter* m_migrate_store_ns_ = nullptr;
  Counter* m_migrate_virtual_ns_ = nullptr;
  // Degradation accounting ("fault/engine/..."): pure functions of the
  // virtual execution (injection itself is seeded + virtual-time), so these
  // live outside the wall/ quarantine.
  Counter* m_retry_attempts_ = nullptr;
  Counter* m_retry_backoff_ns_ = nullptr;
  Counter* m_transient_failures_ = nullptr;
  Counter* m_shortfall_pages_ = nullptr;
  Counter* m_degraded_promotes_ = nullptr;
  std::vector<Gauge*> m_tier_pages_;  // "engine/pages/<label>", by tier index
  std::unique_ptr<CompressionCache> compression_cache_;
  // Reused staging buffers for MigrateRegion (one compressed-output slot per
  // page of a region), so the per-window migration loop does not allocate.
  std::vector<std::byte> migrate_scratch_;
  std::vector<StagedPage> migrate_staged_;
  Nanos clock_ = 0;
  Nanos opt_clock_ = 0;
  Nanos migration_ns_ = 0;
  std::uint64_t total_faults_ = 0;
  std::uint64_t migrated_pages_ = 0;
  std::uint64_t degraded_promotes_ = 0;
  std::unordered_map<int, FaultRecord> window_faults_;
};

}  // namespace tierscape

#endif  // SRC_TIERING_ENGINE_H_
