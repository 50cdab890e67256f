// Micro-benchmark: wall-clock throughput of the migration pipeline across
// push-thread counts and with the compression cache on/off (§7.2's PT2
// threads). Each config is one grid cell running the identical
// demote/promote script — one warmup round to populate the cache, then
// measured rounds — and the harness TS_CHECKs that every virtual-time
// observable (migration ns, pages moved, placement) is byte-identical across
// all configs before reporting speedups: the knobs are wall-clock-only by
// construction.
//
// The push threads are the shared ThreadPool, so each config resizes it and
// runs as its own one-cell batch: the sweep IS the experiment, and cells
// never race each other for cores. It overrides TIERSCAPE_BENCH_THREADS.
//
// Expected shape: the cache dominates on repeat migrations (steady-state hit
// rate > 50%, well over 2x at 4 threads vs the serial uncached baseline);
// extra threads help only when real compression work remains (cold cache or
// cache off) and the machine has cores to spare.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/experiment_grid.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/tiering/engine.h"

using namespace tierscape;
using namespace tierscape::bench;

namespace {

constexpr std::uint64_t kWarmupRounds = 1;
constexpr std::uint64_t kMeasuredRounds = 4;
constexpr int kCtTier = 2;  // StandardMix: 0=DRAM, 1=NVMM, 2=CT-1, 3=CT-2

ExperimentResult RunConfig(bool cache, Observability& obs) {
  SystemConfig system_config = StandardMixConfig(64 * kMiB, 128 * kMiB);
  system_config.obs = &obs;
  TieredSystem system(system_config);
  AddressSpace space;
  space.Allocate("nci", 6 * kMiB, CorpusProfile::kNci);
  space.Allocate("text", 6 * kMiB, CorpusProfile::kDickens);
  space.Allocate("bin", 4 * kMiB, CorpusProfile::kBinary);
  EngineConfig config;
  config.compression_cache = cache;
  TieringEngine engine(space, system.tiers(), config);
  TS_CHECK(engine.PlaceInitial().ok());

  ExperimentResult result;
  double demote_wall_ms = 0.0;
  std::uint64_t hits_at_warmup = 0;
  std::uint64_t misses_at_warmup = 0;
  for (std::uint64_t round = 0; round < kWarmupRounds + kMeasuredRounds; ++round) {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t region = 0; region < space.total_regions(); ++region) {
      TS_CHECK(engine.MigrateRegion(region, kCtTier).ok());
    }
    const auto end = std::chrono::steady_clock::now();
    if (round >= kWarmupRounds) {
      demote_wall_ms += std::chrono::duration<double, std::milli>(end - start).count();
    } else if (engine.compression_cache() != nullptr) {
      hits_at_warmup = engine.compression_cache()->stats().hits;
      misses_at_warmup = engine.compression_cache()->stats().misses;
    }
    // Promote everything back (untimed: the demote direction carries the
    // compression work this benchmark isolates).
    for (std::uint64_t region = 0; region < space.total_regions(); ++region) {
      TS_CHECK(engine.MigrateRegion(region, 0).ok());
    }
  }
  double steady_hit_rate = 0.0;
  if (engine.compression_cache() != nullptr) {
    const auto& stats = engine.compression_cache()->stats();
    const std::uint64_t steady_hits = stats.hits - hits_at_warmup;
    const std::uint64_t steady_lookups = steady_hits + stats.misses - misses_at_warmup;
    steady_hit_rate = steady_lookups == 0 ? 0.0
                                          : static_cast<double>(steady_hits) /
                                                static_cast<double>(steady_lookups);
  }
  result.migrated_pages = engine.total_migrated_pages();
  result.extras = {{"migration_ns", static_cast<double>(engine.migration_ns())},
                   {"virtual_now_ns", static_cast<double>(engine.now())},
                   {"demote_wall_ms", demote_wall_ms},
                   {"steady_hit_rate", steady_hit_rate}};
  const std::vector<std::uint64_t> pages_per_tier = engine.PagesPerTier();
  for (std::size_t tier = 0; tier < pages_per_tier.size(); ++tier) {
    result.extras.emplace_back("pages_tier" + std::to_string(tier),
                               static_cast<double>(pages_per_tier[tier]));
  }
  return result;
}

}  // namespace

int main() {
  ExperimentGrid grid("micro_migration");
  struct Config {
    int threads;
    bool cache;
  };
  const Config configs[] = {{1, false}, {2, false}, {4, false}, {8, false},
                            {1, true},  {2, true},  {4, true},  {8, true}};

  std::vector<ExperimentResult> results;
  for (const Config& config : configs) {
    const Status resized = ThreadPool::SetSharedThreadsForTesting(config.threads);
    TS_CHECK(resized.ok()) << resized.ToString();
    CellSpec cell;
    cell.label = "t" + std::to_string(config.threads) + (config.cache ? "/cache" : "/nocache");
    cell.run = [config](Observability& obs, const CellContext&) {
      return RunConfig(config.cache, obs);
    };
    grid.Add(std::move(cell));
    results.push_back(std::move(grid.Run().front()));
  }

  // Hard invariant: thread count and cache are wall-clock-only knobs.
  const ExperimentResult& base = results[0];
  for (const ExperimentResult& result : results) {
    TS_CHECK_EQ(result.Extra("migration_ns"), base.Extra("migration_ns"));
    TS_CHECK_EQ(result.Extra("virtual_now_ns"), base.Extra("virtual_now_ns"));
    TS_CHECK_EQ(result.migrated_pages, base.migrated_pages);
    for (int tier = 0; tier < 4; ++tier) {
      const std::string key = "pages_tier" + std::to_string(tier);
      TS_CHECK_EQ(result.Extra(key), base.Extra(key));
    }
  }

  const double base_wall_ms = base.Extra("demote_wall_ms");
  std::printf("Micro: migration pipeline wall-clock (virtual time identical across rows:\n"
              "%.3f ms migration, %llu pages)\n\n",
              base.Extra("migration_ns") / 1e6,
              static_cast<unsigned long long>(base.migrated_pages));
  TablePrinter table({"push threads", "compression cache", "demote wall (ms)",
                      "speedup vs serial", "steady hit rate %"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.AddRow({std::to_string(configs[i].threads), configs[i].cache ? "on" : "off",
                  TablePrinter::Fmt(r.Extra("demote_wall_ms")),
                  TablePrinter::Fmt(base_wall_ms / r.Extra("demote_wall_ms")) + "x",
                  configs[i].cache
                      ? TablePrinter::Fmt(100.0 * r.Extra("steady_hit_rate"), 1)
                      : "-"});
  }
  table.Print();

  // The memoized pipeline must keep hitting in steady state (repeat stores of
  // unchanged pages) and beat the serial uncached baseline at 4 threads.
  const ExperimentResult& four_cached = results[6];
  TS_CHECK_GT(four_cached.Extra("steady_hit_rate"), 0.5);
  TS_CHECK_GT(base_wall_ms / four_cached.Extra("demote_wall_ms"), 2.0);
  return 0;
}
