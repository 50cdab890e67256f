// Micro-benchmark: the sharded MPMC access path (src/zswap/access_path.h,
// DESIGN.md §4g). Four cells churn the SAME key set — store, verify-load,
// invalidate, on two tiers sharing one medium — with 1, 2, 4, and 8 caller
// threads on disjoint key partitions, then TS_CHECK that every deterministic
// output (per-cell op counts, compressed bytes, virtual-time sums, post-drain
// occupancy) is identical across caller counts: the caller count is a
// wall-clock-only knob, exactly like grid and migrate threads.
//
// Callers run on the shared ThreadPool, one cell at a time so each caller
// count has the whole pool. Expected shape: near-linear throughput scaling
// while cores last — compression and decompression run outside every lock, so
// the serial remainder is the striped map updates and the under-lock pool
// copies. The >=3x assertion at 8 callers runs at full scale when the pool has
// >= 8 threads on a >=8-core machine.
// Wall times land in wall/access/* gauges and stderr; stdout carries only
// deterministic outputs (tools/bench_smoke.sh diffs it across grid threads).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/experiment_grid.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/compress/corpus.h"
#include "src/mem/medium.h"
#include "src/zswap/access_path.h"
#include "src/zswap/zswap.h"

using namespace tierscape;
using namespace tierscape::bench;

namespace {

constexpr std::uint64_t kContentSeed = 2026;
constexpr int kTiers = 2;  // zsmalloc + zbud, sharing one NVMM medium

// One caller's slot: virtual-time and count sums over its key partition.
// Workers write only their own slot; the orchestrator merges in ascending
// caller order (thread_pool.h invariant).
struct CallerSlot {
  Nanos virtual_ns = 0;
  std::uint64_t stores = 0;
  std::uint64_t loads = 0;
  std::uint64_t invalidates = 0;
  std::uint64_t compressed_bytes = 0;
};

// Deterministic sums for one cell plus its wall-side measurements.
struct CellOutput {
  CallerSlot totals;
  std::size_t drained_entries = 0;  // EntryCount sum after the drain; must be 0
  double store_ms = 0.0;
  double load_ms = 0.0;
  double churn_ms = 0.0;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

CellOutput RunAccessCell(int callers, std::uint64_t total_keys, Observability& obs) {
  // Every cell stores the same total_keys pages under the same keys with the
  // same contents; key k lives in tier k % kTiers. Callers own contiguous
  // disjoint slices, so per-caller sums are pure functions of the partition.
  Medium medium(NvmmSpec(512 * kMiB));
  ZswapBackend zswap(obs);
  CompressedTierConfig zs;
  zs.label = "AZ";
  zs.pool_manager = PoolManager::kZsmalloc;
  auto zs_id = zswap.AddTier(zs, medium);
  TS_CHECK(zs_id.ok()) << zs_id.status().ToString();
  CompressedTierConfig zb;
  zb.label = "AB";
  zb.pool_manager = PoolManager::kZbud;
  auto zb_id = zswap.AddTier(zb, medium);
  TS_CHECK(zb_id.ok()) << zb_id.status().ToString();
  ZswapAccessPath& path = zswap.AccessPath();

  // Each logical caller is one pool index; callers and their key partitions
  // never change with the pool size, only how many run at once.
  CellOutput out;
  ThreadPool& pool = ThreadPool::Shared();
  const std::uint64_t per_caller = total_keys / static_cast<std::uint64_t>(callers);
  std::vector<CallerSlot> slots(static_cast<std::size_t>(callers));

  const auto store_start = std::chrono::steady_clock::now();
  pool.ParallelFor(callers, [&path, &slots, per_caller](std::size_t caller) {
    CallerSlot& slot = slots[caller];
    std::byte page[kPageSize];
    const std::uint64_t begin = caller * per_caller;
    for (std::uint64_t k = begin; k < begin + per_caller; ++k) {
      FillPage(CorpusProfile::kNci, SplitSeed(kContentSeed, k), page);
      auto stored = path.Store(static_cast<int>(k % kTiers), k, page);
      TS_CHECK(stored.ok()) << "store key " << k << ": " << stored.status().ToString();
      slot.virtual_ns += stored->latency;
      slot.compressed_bytes += stored->compressed_size;
      ++slot.stores;
    }
  });
  out.store_ms = MsSince(store_start);

  const auto load_start = std::chrono::steady_clock::now();
  pool.ParallelFor(callers, [&path, &slots, per_caller](std::size_t caller) {
    CallerSlot& slot = slots[caller];
    std::byte page[kPageSize];
    std::byte expected[kPageSize];
    const std::uint64_t begin = caller * per_caller;
    for (std::uint64_t k = begin; k < begin + per_caller; ++k) {
      auto loaded = path.Load(static_cast<int>(k % kTiers), k, page);
      TS_CHECK(loaded.ok()) << "load key " << k << ": " << loaded.status().ToString();
      FillPage(CorpusProfile::kNci, SplitSeed(kContentSeed, k), expected);
      TS_CHECK_EQ(PageChecksum(page), PageChecksum(expected)) << "load key " << k;
      slot.virtual_ns += loaded->latency;
      ++slot.loads;
    }
  });
  out.load_ms = MsSince(load_start);

  pool.ParallelFor(callers, [&path, &slots, per_caller](std::size_t caller) {
    CallerSlot& slot = slots[caller];
    const std::uint64_t begin = caller * per_caller;
    for (std::uint64_t k = begin; k < begin + per_caller; ++k) {
      const Status dropped = path.Invalidate(static_cast<int>(k % kTiers), k);
      TS_CHECK(dropped.ok()) << "invalidate key " << k << ": " << dropped.ToString();
      ++slot.invalidates;
    }
  });
  out.churn_ms = MsSince(store_start);

  // Sequential commit point: shard deltas roll up to the tier gauges, and the
  // fully drained pools must be empty, so every exported gauge is a constant.
  path.FlushAccounting();
  for (int tier = 0; tier < kTiers; ++tier) {
    out.drained_entries += path.EntryCount(tier);
    TS_CHECK_EQ(zswap.tier(tier).stored_pages(), 0u) << "tier " << tier << " not drained";
    TS_CHECK_EQ(zswap.tier(tier).pool_bytes(), 0u) << "tier " << tier << " not drained";
  }
  // Merge in ascending caller order.
  for (const CallerSlot& slot : slots) {
    out.totals.virtual_ns += slot.virtual_ns;
    out.totals.stores += slot.stores;
    out.totals.loads += slot.loads;
    out.totals.invalidates += slot.invalidates;
    out.totals.compressed_bytes += slot.compressed_bytes;
  }
  return out;
}

std::string ResultsTable(const std::vector<ExperimentResult>& results) {
  TablePrinter table({"cell", "stores", "loads", "invalidates", "compressed KiB",
                      "virtual ms", "left"});
  for (const ExperimentResult& r : results) {
    table.AddRow({r.policy, TablePrinter::Fmt(r.Extra("stores"), 0),
                  TablePrinter::Fmt(r.Extra("loads"), 0),
                  TablePrinter::Fmt(r.Extra("invalidates"), 0),
                  TablePrinter::Fmt(r.Extra("compressed_kib"), 0),
                  TablePrinter::Fmt(r.Extra("virtual_ms"), 3),
                  TablePrinter::Fmt(r.Extra("drained"), 0)});
  }
  return table.ToString();
}

}  // namespace

int main() {
  const bool smoke = BenchSmoke();
  const std::uint64_t total_keys = smoke ? 2048 : 32768;
  const int caller_counts[] = {1, 2, 4, 8};

  ExperimentGrid grid("micro_access");
  std::vector<ExperimentResult> results;
  for (const int callers : caller_counts) {
    CellSpec spec;
    spec.label = "c" + std::to_string(callers);
    spec.run = [callers, total_keys](Observability& obs, const CellContext&) {
      Gauge& wall_store_ms = obs.metrics.GetGauge("wall/access/store_ms");
      Gauge& wall_load_ms = obs.metrics.GetGauge("wall/access/load_ms");
      Gauge& wall_churn_ms = obs.metrics.GetGauge("wall/access/churn_ms");
      const CellOutput out = RunAccessCell(callers, total_keys, obs);
      wall_store_ms.Set(out.store_ms);
      wall_load_ms.Set(out.load_ms);
      wall_churn_ms.Set(out.churn_ms);
      ExperimentResult result;
      result.workload = "access";
      result.policy = "c" + std::to_string(callers);
      result.extras.emplace_back("stores", static_cast<double>(out.totals.stores));
      result.extras.emplace_back("loads", static_cast<double>(out.totals.loads));
      result.extras.emplace_back("invalidates", static_cast<double>(out.totals.invalidates));
      result.extras.emplace_back("compressed_kib",
                                 static_cast<double>(out.totals.compressed_bytes) / 1024.0);
      result.extras.emplace_back("virtual_ms",
                                 static_cast<double>(out.totals.virtual_ns) / 1e6);
      result.extras.emplace_back("drained", static_cast<double>(out.drained_entries));
      result.extras.emplace_back("wall_store_ms", out.store_ms);
      result.extras.emplace_back("wall_load_ms", out.load_ms);
      result.extras.emplace_back("wall_churn_ms", out.churn_ms);
      return result;
    };
    grid.Add(std::move(spec));
    // One cell per Run(): the cells never race each other for the pool.
    results.push_back(std::move(grid.Run().front()));
  }

  // Hard invariant: the caller count is a wall-clock-only knob. Every
  // deterministic output must match the single-caller cell exactly.
  for (const char* key : {"stores", "loads", "invalidates", "compressed_kib", "virtual_ms",
                          "drained"}) {
    for (const ExperimentResult& r : results) {
      TS_CHECK_EQ(r.Extra(key), results.front().Extra(key))
          << r.policy << ": `" << key << "` diverged from c1 — caller interleaving leaked "
          << "into deterministic results";
    }
  }

  std::printf("Micro: sharded MPMC access path (%llu keys, %d tiers; outputs identical "
              "across 1/2/4/8 callers)\n\n",
              static_cast<unsigned long long>(total_keys), kTiers);
  std::printf("%s\n", ResultsTable(results).c_str());

  const ExperimentResult& c1 = results.front();
  const ExperimentResult& c8 = results.back();
  const double speedup =
      c8.Extra("wall_churn_ms") > 0.0 ? c1.Extra("wall_churn_ms") / c8.Extra("wall_churn_ms")
                                      : 0.0;
  for (const ExperimentResult& r : results) {
    std::fprintf(stderr, "%s: store %.1f ms, load %.1f ms, churn %.1f ms (%.2fx vs c1)\n",
                 r.policy.c_str(), r.Extra("wall_store_ms"), r.Extra("wall_load_ms"),
                 r.Extra("wall_churn_ms"),
                 r.Extra("wall_churn_ms") > 0.0
                     ? c1.Extra("wall_churn_ms") / r.Extra("wall_churn_ms")
                     : 0.0);
  }
  const int pool_threads = ThreadPool::Shared().threads();
  if (!smoke && pool_threads >= 8 && std::thread::hardware_concurrency() >= 8) {
    TS_CHECK_GT(speedup, 3.0)
        << "MPMC access-path speedup below 3x at 8 callers on a >=8-core machine";
  } else {
    std::fprintf(stderr, "(speedup assertion skipped: smoke=%d pool=%d hw=%u)\n",
                 smoke ? 1 : 0, pool_threads, std::thread::hardware_concurrency());
  }
  return 0;
}
