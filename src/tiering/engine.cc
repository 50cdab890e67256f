#include "src/tiering/engine.h"

#include <algorithm>

#include "src/common/logging.h"

namespace tierscape {

namespace {

// Graceful degradation (DESIGN.md §4d): a transient (kUnavailable) pool store
// failure during migration is retried up to kMigrateRetryLimit times, each
// attempt charging an exponentially-growing virtual-time backoff
// (kMigrateRetryBackoffNs << attempt) to the migration clock.
constexpr int kMigrateRetryLimit = 3;
constexpr Nanos kMigrateRetryBackoffNs = 2000;

}  // namespace

Status EngineConfig::Validate() const {
  if (pebs_period == 0) {
    return InvalidArgument("EngineConfig: pebs_period must be >= 1 (1-in-N sampling)");
  }
  if (migration_interference < 0.0 || migration_interference > 1.0) {
    return InvalidArgument("EngineConfig: migration_interference must be in [0, 1], got " +
                           std::to_string(migration_interference));
  }
  if (migrate_threads < 1) {
    return InvalidArgument("EngineConfig: migrate_threads must be >= 1, got " +
                           std::to_string(migrate_threads));
  }
  return OkStatus();
}

TieringEngine::TieringEngine(AddressSpace& space, TierTable& tiers, EngineConfig config)
    : space_(space),
      tiers_(tiers),
      config_(config),
      obs_(&ResolveObs(tiers.obs())),
      sampler_(config.pebs_period, tiers.fault()) {
  const Status valid = config_.Validate();
  TS_CHECK(valid.ok()) << valid.ToString();
  pages_.resize(space_.total_pages());
  tier_pages_.assign(tiers_.count(), 0);
  region_tier_pages_.assign(space_.total_regions() * static_cast<std::uint64_t>(tiers_.count()),
                            0);
  thread_pool_ = std::make_unique<ThreadPool>(config_.migrate_threads);
  if (config_.compression_cache) {
    compression_cache_ = std::make_unique<CompressionCache>(space_.total_pages(), &obs_->metrics);
  }
  MetricsRegistry& metrics = obs_->metrics;
  m_access_ops_ = &metrics.GetCounter("engine/access/ops");
  m_access_stores_ = &metrics.GetCounter("engine/access/store_ops");
  m_faults_ = &metrics.GetCounter("engine/faults");
  m_fault_ns_ = &metrics.GetCounter("engine/fault_ns");
  m_migrate_regions_ = &metrics.GetCounter("engine/migrate/regions");
  m_migrate_pages_ = &metrics.GetCounter("engine/migrate/pages");
  m_migrate_rejected_ = &metrics.GetCounter("engine/migrate/rejected");
  // Fan-out composition (really compressed vs. served from the cache) depends
  // on the cache knob, which must never show in deterministic exports: wall/.
  m_migrate_fanout_compressed_ = &metrics.GetCounter("wall/engine/migrate/fanout_compressed");
  m_migrate_fanout_cache_hits_ = &metrics.GetCounter("wall/engine/migrate/fanout_cache_hits");
  m_migrate_load_ns_ = &metrics.GetCounter("engine/migrate/load_ns");
  m_migrate_store_ns_ = &metrics.GetCounter("engine/migrate/store_ns");
  m_migrate_virtual_ns_ = &metrics.GetCounter("engine/migrate/virtual_ns");
  m_retry_attempts_ = &metrics.GetCounter("fault/engine/retries");
  m_retry_backoff_ns_ = &metrics.GetCounter("fault/engine/retry_backoff_ns");
  m_transient_failures_ = &metrics.GetCounter("fault/engine/transient_store_failures");
  m_shortfall_pages_ = &metrics.GetCounter("fault/engine/shortfall_pages");
  m_degraded_promotes_ = &metrics.GetCounter("fault/engine/degraded_promotes");
  m_tier_pages_.reserve(tiers_.count());
  for (int tier = 0; tier < tiers_.count(); ++tier) {
    m_tier_pages_.push_back(&metrics.GetGauge("engine/pages/" + tiers_.tier(tier).label));
  }
  // Trace timestamps follow this engine's virtual clock from here on.
  obs_->trace.SetClock(&clock_);
}

TieringEngine::~TieringEngine() {
  // Return byte-tier frames so media can be reused across engines in tests.
  for (std::uint64_t page = 0; page < pages_.size(); ++page) {
    (void)EvictPage(page);
  }
  obs_->trace.ClearClockIf(&clock_);
}

StatusOr<int> TieringEngine::AllocByteFrame(int preferred_tier, std::uint64_t* frame_out) {
  for (int tier = preferred_tier; tier < tiers_.count(); ++tier) {
    const TierRef& ref = tiers_.tier(tier);
    if (ref.kind != TierKind::kByteAddressable) {
      continue;
    }
    auto frame = ref.medium->AllocFrame();
    if (frame.ok()) {
      *frame_out = frame.value();
      return tier;
    }
  }
  return OutOfMemory("engine: all byte-addressable tiers are full");
}

Status TieringEngine::PlacePageInByteTier(std::uint64_t page, int tier) {
  std::uint64_t frame = 0;
  auto used = AllocByteFrame(tier, &frame);
  if (!used.ok()) {
    return used.status();
  }
  SetPageTier(page, *used);
  pages_[page].location = frame;
  pages_[page].compressed_size = 0;
  return OkStatus();
}

void TieringEngine::SetPageTier(std::uint64_t page, int tier) {
  PageState& state = pages_[page];
  const std::uint64_t region_row =
      (page / kPagesPerRegion) * static_cast<std::uint64_t>(tiers_.count());
  if (state.tier >= 0) {
    --tier_pages_[state.tier];
    --region_tier_pages_[region_row + state.tier];
    m_tier_pages_[state.tier]->Set(static_cast<double>(tier_pages_[state.tier]));
  }
  state.tier = tier;
  if (tier >= 0) {
    ++tier_pages_[tier];
    ++region_tier_pages_[region_row + tier];
    m_tier_pages_[tier]->Set(static_cast<double>(tier_pages_[tier]));
  }
}

Status TieringEngine::PlaceInitial() {
  for (std::uint64_t page = 0; page < pages_.size(); ++page) {
    TS_RETURN_IF_ERROR(PlacePageInByteTier(page, 0));
  }
  return OkStatus();
}

Status TieringEngine::EvictPage(std::uint64_t page) {
  PageState& state = pages_[page];
  if (state.tier < 0) {
    return OkStatus();
  }
  const TierRef& ref = tiers_.tier(state.tier);
  if (ref.kind == TierKind::kByteAddressable) {
    TS_RETURN_IF_ERROR(ref.medium->FreeFrame(state.location));
  } else {
    TS_RETURN_IF_ERROR(ref.compressed->Invalidate(state.location));
  }
  SetPageTier(page, -1);
  return OkStatus();
}

Nanos TieringEngine::HandleFault(std::uint64_t page) {
  PageState& state = pages_[page];
  const TierRef& ref = tiers_.tier(state.tier);
  CompressedTier& ctier = *ref.compressed;

  std::byte buffer[kPageSize];
  const Status load = ctier.Load(state.location, buffer);
  TS_CHECK(load.ok()) << "fault decompression failed: " << load.ToString();
  // Every fault verifies the page contents against the checksum taken at store.
  TS_CHECK_EQ(PageChecksum(buffer), state.checksum)
      << "page " << page << " corrupted in tier " << ctier.label();
  const Nanos fault_cost = ctier.LoadCost(state.compressed_size);
  ctier.RecordFault();
  auto& record = window_faults_[state.tier];
  ++record.faults;
  record.latency += fault_cost;
  ++total_faults_;
  m_faults_->Add();
  m_fault_ns_->Add(fault_cost);

  // Promote: allocate the destination frame *before* invalidating the source
  // so a failed allocation (genuine or injected capacity exhaustion) degrades
  // gracefully — the access is served from the decompressed copy and the page
  // simply stays compressed — instead of crashing with the entry already gone
  // (DESIGN.md §4d).
  std::uint64_t frame = 0;
  auto used = AllocByteFrame(0, &frame);
  if (!used.ok()) {
    ++degraded_promotes_;
    m_degraded_promotes_->Add();
    return fault_cost;
  }
  const Status freed = ctier.Invalidate(state.location);
  TS_CHECK(freed.ok()) << freed.ToString();
  SetPageTier(page, *used);
  state.location = frame;
  state.compressed_size = 0;
  return fault_cost;
}

Nanos TieringEngine::AccessBulk(std::uint64_t vaddr, std::uint32_t lines, bool is_store) {
  const std::uint64_t page = AddressSpace::PageOf(vaddr);
  TS_CHECK_LT(page, pages_.size());
  sampler_.OnAccessN(vaddr, lines, is_store);
  m_access_ops_->Add();
  if (is_store) {
    m_access_stores_->Add();
  }

  PageState& state = pages_[page];
  Nanos latency = 0;
  if (tiers_.tier(state.tier).kind == TierKind::kCompressed) {
    latency += HandleFault(page);
  }
  // The accesses themselves, now from a byte-addressable tier. After a
  // degraded promote (frame allocation failed, DESIGN.md §4d) the page is
  // still compressed and its TierRef has no medium; the access is then served
  // from the transient decompressed copy, which lives in DRAM.
  const Medium* medium = tiers_.tier(state.tier).medium;
  latency += lines * (medium != nullptr ? medium->load_latency_ns()
                                        : tiers_.dram().load_latency_ns());
  if (is_store) {
    space_.DirtyPage(page);
  }
  clock_ += latency;
  opt_clock_ += lines * tiers_.dram().load_latency_ns();
  return latency;
}

StatusOr<TieringEngine::MigrateOutcome> TieringEngine::MigrateRegion(std::uint64_t region,
                                                                    int dst) {
  if (dst < 0 || dst >= tiers_.count()) {
    return InvalidArgument("engine: bad destination tier");
  }
  const std::uint64_t first_page = region * kPagesPerRegion;
  if (first_page >= pages_.size()) {
    return InvalidArgument("engine: bad region");
  }
  const TierRef& dref = tiers_.tier(dst);
  const std::uint64_t end_page =
      std::min<std::uint64_t>(first_page + kPagesPerRegion, pages_.size());

  // Virtual-time span over the whole migration (fan-out + apply); args carry
  // the fan-out breakdown so a trace alone shows the pipeline's shape.
  TraceSpan migrate_span(&obs_->trace, "engine/migrate_region");

  migrate_staged_.clear();
  for (std::uint64_t page = first_page; page < end_page; ++page) {
    if (pages_[page].tier == dst || pages_[page].tier < 0) {
      continue;
    }
    StagedPage staged;
    staged.page = page;
    migrate_staged_.push_back(staged);
  }

  // Phase 1 — compression fan-out on the push threads (PT2, §7.2): pages
  // bound for a compressed destination are read (byte-tier contents are
  // synthesized — a pure function of page + version; compressed-tier sources
  // are decompressed through the pure read path, PeekCompressed + the
  // source's compressor, with no pool mutation and no statistics), probed
  // against the compression cache (read-only here), and compressed into
  // disjoint per-index scratch slots. Nothing shared is mutated, so the
  // staged results — and therefore every virtual-time charge derived from
  // them — are identical for any thread count; compressed-source load
  // statistics and costs commit in page order in phase 2 (CommitLoads).
  constexpr std::size_t kSlotBytes = 2 * kPageSize;
  const bool compressed_dst = dref.kind == TierKind::kCompressed;
  if (compressed_dst && !migrate_staged_.empty()) {
    const Algorithm algorithm = dref.compressed->config().algorithm;
    const Compressor& compressor = dref.compressed->compressor();
    migrate_scratch_.resize(migrate_staged_.size() * kSlotBytes);
    thread_pool_->ParallelFor(migrate_staged_.size(), [&](std::size_t i) {
      StagedPage& staged = migrate_staged_[i];
      const TierRef& src = tiers_.tier(pages_[staged.page].tier);
      if (compression_cache_ != nullptr) {
        const auto* entry = compression_cache_->Lookup(
            staged.page, space_.PageVersion(staged.page), algorithm);
        if (entry != nullptr) {
          staged.cache_hit = true;
          staged.compressed_ready = true;
          staged.checksum = entry->checksum;
          staged.bytes = entry->bytes;
          return;
        }
      }
      std::byte contents[kPageSize];
      if (src.kind == TierKind::kByteAddressable) {
        space_.SynthesizePage(staged.page, contents);
      } else {
        // Pure concurrent read (safe: phase 2 owns every pool mutation, and
        // it only starts after this barrier). Failures surface in page order.
        auto peeked = src.compressed->PeekCompressed(pages_[staged.page].location);
        if (!peeked.ok()) {
          staged.source_status = peeked.status();
          return;
        }
        auto size = src.compressed->compressor().Decompress(*peeked, contents);
        if (!size.ok()) {
          staged.source_status = size.status();
          return;
        }
      }
      staged.checksum = PageChecksum(contents);
      const std::span<std::byte> slot(&migrate_scratch_[i * kSlotBytes], kSlotBytes);
      auto compressed = compressor.Compress(contents, slot);
      if (!compressed.ok()) {
        staged.compress_failed = true;
        return;
      }
      staged.compressed_ready = true;
      staged.bytes = slot.first(*compressed);
    });
  }

  // Fan-out outcome of phase 1: pages really compressed on the push threads
  // (byte and compressed sources alike) vs. served from the cache.
  std::uint64_t fanout_compressed = 0;
  std::uint64_t fanout_cache_hits = 0;
  for (const StagedPage& staged : migrate_staged_) {
    if (staged.cache_hit) {
      ++fanout_cache_hits;
    } else if (staged.compressed_ready || staged.compress_failed) {
      ++fanout_compressed;
    }
  }

  // Phase 2 — sequential apply in ascending page order: source loads, pool
  // inserts, evictions, statistics, and virtual-time charges all happen here,
  // bit-identical to a serial migration.
  MigrateOutcome outcome;
  Nanos cost = 0;
  Nanos load_ns = 0;   // reading sources (byte loads + decompressions)
  Nanos store_ns = 0;  // writing destinations (byte stores + pool inserts)
  std::byte buffer[kPageSize];

  for (std::size_t i = 0; i < migrate_staged_.size(); ++i) {
    StagedPage& staged = migrate_staged_[i];
    const std::uint64_t page = staged.page;
    PageState& state = pages_[page];
    const TierRef& sref = tiers_.tier(state.tier);
    const bool byte_source = sref.kind == TierKind::kByteAddressable;

    // Read the page contents: charged for byte tiers (contents were staged in
    // phase 1 when needed), really decompressed for compressed tiers.
    if (byte_source) {
      load_ns += kPageSize / 64 * sref.medium->load_latency_ns();
    } else if (compressed_dst) {
      // The source entry was decompressed by the phase-1 fan-out through the
      // pure read path (PeekCompressed); charge the load and commit its
      // statistics here, in page order — byte-identical to a sequential Load.
      TS_RETURN_IF_ERROR(staged.source_status);
      sref.compressed->CommitLoads(1);
      load_ns += sref.compressed->LoadCost(state.compressed_size);
    } else {
      TS_RETURN_IF_ERROR(sref.compressed->Load(state.location, buffer));
      load_ns += sref.compressed->LoadCost(state.compressed_size);
    }

    if (!compressed_dst) {
      auto frame = dref.medium->AllocFrame();
      if (!frame.ok()) {
        ++outcome.shortfall;  // destination full: partial placement, page stays
        continue;
      }
      TS_RETURN_IF_ERROR(EvictPage(page));
      SetPageTier(page, dst);
      state.location = frame.value();
      state.compressed_size = 0;
      store_ns += kPageSize / 64 * dref.medium->load_latency_ns();
    } else {
      CompressedTier& ctier = *dref.compressed;
      const Algorithm algorithm = ctier.config().algorithm;
      const std::uint32_t version = space_.PageVersion(page);
      if (compression_cache_ != nullptr) {
        compression_cache_->RecordLookup(staged.cache_hit);
        if (!staged.cache_hit && staged.compressed_ready) {
          compression_cache_->Insert(page, version, algorithm, staged.checksum, staged.bytes);
        }
      }
      // A compress_failed page overflowed even the full scratch slot, so it
      // cannot fit any tier's store limit: routing the whole slot through
      // StoreCompressed reproduces Store's reject accounting.
      const auto attempt_store = [&] {
        return staged.compressed_ready
                   ? ctier.StoreCompressed(staged.bytes)
                   : ctier.StoreCompressed(std::span<const std::byte>(
                         &migrate_scratch_[i * kSlotBytes], kSlotBytes));
      };
      auto stored = attempt_store();
      // Transient (kUnavailable) store failures are retried with exponential
      // virtual-time backoff, bounded by kMigrateRetryLimit (DESIGN.md §4d).
      for (int attempt = 0;
           !stored.ok() && stored.status().code() == StatusCode::kUnavailable &&
           attempt < kMigrateRetryLimit;
           ++attempt) {
        ++outcome.transient_failures;
        m_transient_failures_->Add();
        const Nanos backoff = kMigrateRetryBackoffNs << attempt;
        outcome.retry_backoff_ns += backoff;
        ++outcome.retries;
        m_retry_attempts_->Add();
        m_retry_backoff_ns_->Add(backoff);
        stored = attempt_store();
      }
      if (!stored.ok()) {
        if (stored.status().code() == StatusCode::kRejected) {
          ++outcome.rejected;
          continue;  // incompressible page: leave in place (zswap behaviour)
        }
        if (stored.status().code() == StatusCode::kUnavailable) {
          // Retry budget exhausted: give the page up for this window.
          ++outcome.transient_failures;
          m_transient_failures_->Add();
        }
        ++outcome.shortfall;  // no space (or no luck): partial placement
        continue;
      }
      TS_RETURN_IF_ERROR(EvictPage(page));
      SetPageTier(page, dst);
      state.location = stored->handle;
      state.compressed_size = stored->compressed_size;
      state.checksum = staged.checksum;
      store_ns += stored->latency;
    }
    ++outcome.moved;
  }
  cost = load_ns + store_ns + outcome.retry_backoff_ns;
  migrated_pages_ += outcome.moved;
  migration_ns_ += cost;
  clock_ += static_cast<Nanos>(static_cast<double>(cost) * config_.migration_interference);

  m_migrate_regions_->Add();
  m_migrate_pages_->Add(outcome.moved);
  m_migrate_rejected_->Add(outcome.rejected);
  m_shortfall_pages_->Add(outcome.shortfall);
  m_migrate_fanout_compressed_->Add(fanout_compressed);
  m_migrate_fanout_cache_hits_->Add(fanout_cache_hits);
  m_migrate_load_ns_->Add(load_ns);
  m_migrate_store_ns_->Add(store_ns);
  m_migrate_virtual_ns_->Add(cost);
  if (migrate_span.armed()) {
    // Args stay cache-/thread-independent so traces compare byte-for-byte;
    // the fan-out split is visible through the wall/ counters instead.
    migrate_span.set_args(
        "\"region\":" + std::to_string(region) + ",\"dst\":" + std::to_string(dst) +
        ",\"moved\":" + std::to_string(outcome.moved) +
        ",\"rejected\":" + std::to_string(outcome.rejected) +
        ",\"shortfall\":" + std::to_string(outcome.shortfall) +
        ",\"load_ns\":" + std::to_string(load_ns) + ",\"store_ns\":" + std::to_string(store_ns));
  }
  return outcome;
}

double TieringEngine::CurrentTco() const {
  double tco = 0.0;
  for (const Medium* medium : tiers_.media()) {
    tco += medium->UsedCost();
  }
  return tco;
}

double TieringEngine::DramOnlyTco() const {
  return BytesToGiB(space_.total_bytes()) * tiers_.dram().cost_per_gib();
}

std::vector<std::uint64_t> TieringEngine::PagesPerTier() const {
  if (config_.check_tier_counts) {
    std::vector<std::uint64_t> scanned(tiers_.count(), 0);
    for (const PageState& state : pages_) {
      if (state.tier >= 0) {
        ++scanned[state.tier];
      }
    }
    for (int tier = 0; tier < tiers_.count(); ++tier) {
      TS_CHECK_EQ(scanned[tier], tier_pages_[tier]) << "tier count drift at tier " << tier;
    }
  }
  return tier_pages_;
}

void TieringEngine::RegionTierHistogram(std::uint64_t region,
                                        std::span<std::uint64_t> counts) const {
  TS_CHECK_EQ(counts.size(), static_cast<std::size_t>(tiers_.count()));
  if (region >= space_.total_regions()) {
    std::fill(counts.begin(), counts.end(), 0);  // out of range: empty, as a scan would find
    return;
  }
  const std::uint64_t* row = &region_tier_pages_[region * counts.size()];
  std::copy(row, row + counts.size(), counts.begin());
  if (config_.check_tier_counts) {
    // Drift cross-check: re-derive the row with the old page scan.
    const std::uint64_t first_page = region * kPagesPerRegion;
    std::vector<std::uint64_t> scanned(counts.size(), 0);
    for (std::uint64_t page = first_page;
         page < std::min<std::uint64_t>(first_page + kPagesPerRegion, pages_.size()); ++page) {
      if (pages_[page].tier >= 0) {
        ++scanned[pages_[page].tier];
      }
    }
    for (std::size_t tier = 0; tier < counts.size(); ++tier) {
      TS_CHECK_EQ(scanned[tier], counts[tier])
          << "region " << region << " tier count drift at tier " << tier;
    }
  }
}

std::vector<std::uint64_t> TieringEngine::RegionTierHistogram(std::uint64_t region) const {
  std::vector<std::uint64_t> counts(tiers_.count());
  RegionTierHistogram(region, counts);
  return counts;
}

int TieringEngine::RegionTier(std::uint64_t region) const {
  // Tier sets are small (≤ a dozen in every assembly): a stack buffer keeps
  // the per-window placement sweep allocation-free.
  constexpr int kInlineTiers = 32;
  std::uint64_t inline_counts[kInlineTiers];
  std::vector<std::uint64_t> heap_counts;
  std::span<std::uint64_t> counts;
  if (tiers_.count() <= kInlineTiers) {
    counts = std::span<std::uint64_t>(inline_counts, static_cast<std::size_t>(tiers_.count()));
  } else {
    heap_counts.resize(tiers_.count());
    counts = heap_counts;
  }
  RegionTierHistogram(region, counts);
  return static_cast<int>(std::max_element(counts.begin(), counts.end()) - counts.begin());
}

}  // namespace tierscape
