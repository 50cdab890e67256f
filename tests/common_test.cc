// Unit tests for src/common: status, RNG distributions, histograms, and the
// shared thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace tierscape {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status status = OutOfMemory("pool full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(status.ToString(), "OUT_OF_MEMORY: pool full");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFound("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 3);
}

TEST(SplitSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(SplitSeed(42, 7), SplitSeed(42, 7));
  // Adjacent indices and adjacent bases must not collide or correlate the
  // way `base + index` does (SplitSeed(s, 1) vs SplitSeed(s + 1, 0)).
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(42, 1));
  EXPECT_NE(SplitSeed(42, 1), SplitSeed(43, 0));
  EXPECT_NE(SplitSeed(0, 0), SplitSeed(0, 1));
  // Streams seeded from adjacent indices diverge immediately.
  Rng a(SplitSeed(5, 0));
  Rng b(SplitSeed(5, 1));
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 3);
}

TEST(SplitSeedTest, IndexFanOutIsCollisionFreeAtSmallScale) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seeds.push_back(SplitSeed(0xF16, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_TRUE(std::adjacent_find(seeds.begin(), seeds.end()) == seeds.end());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(ZipfianTest, SkewsTowardHead) {
  const std::uint64_t n = 1000;
  ZipfianGenerator gen(n, 0.99, 77, /*scrambled=*/false);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) {
    ++counts[gen.Next()];
  }
  // Rank 0 must dominate, and the head must carry a large share.
  int head = 0;
  for (std::uint64_t r = 0; r < 10; ++r) {
    head += counts[r];
  }
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(head, 100000 / 4);
}

TEST(ZipfianTest, ScrambledSpreadsHotKeys) {
  const std::uint64_t n = 1000;
  ZipfianGenerator gen(n, 0.99, 77, /*scrambled=*/true);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    ++counts[gen.Next()];
  }
  // The hottest key should not be key 0 in general (scrambling moved it).
  std::uint64_t hottest = 0;
  int best = 0;
  for (const auto& [key, count] : counts) {
    if (count > best) {
      best = count;
      hottest = key;
    }
  }
  EXPECT_NE(hottest, 0u);
}

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator gen(100, 0.9, 3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.Next(), 100u);
  }
}

TEST(GaussianGeneratorTest, CentersMidKeyspace) {
  GaussianGenerator gen(10000, 1.0 / 6.0, 8);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = gen.Next();
    EXPECT_LT(v, 10000u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 5000.0, 100.0);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_NEAR(h.Mean(), 15.5, 1e-9);
}

TEST(HistogramTest, PercentileMonotone) {
  Histogram h;
  Rng rng(4);
  for (int i = 0; i < 100000; ++i) {
    h.Record(rng.NextBelow(1'000'000));
  }
  const std::uint64_t p50 = h.Percentile(0.50);
  const std::uint64_t p95 = h.Percentile(0.95);
  const std::uint64_t p999 = h.Percentile(0.999);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p999);
  // Uniform distribution: p50 near 500k within bucket error (~3%).
  EXPECT_NEAR(static_cast<double>(p50), 500'000.0, 500'000.0 * 0.05);
}

TEST(HistogramTest, BoundedRelativeError) {
  Histogram h(5);  // 1/32 resolution
  const std::uint64_t value = 123'456'789;
  h.Record(value);
  const std::uint64_t p = h.Percentile(1.0);
  EXPECT_NEAR(static_cast<double>(p), static_cast<double>(value),
              static_cast<double>(value) / 16.0);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
}

TEST(HistogramTest, SingleSampleDominatesEveryQuantile) {
  Histogram h;
  h.Record(7);  // below sub_bucket_count: exact bucketing
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.Percentile(0.0), 7u);
  EXPECT_EQ(h.Percentile(0.5), 7u);
  EXPECT_EQ(h.Percentile(1.0), 7u);
  // Out-of-range quantiles clamp instead of reading out of bounds.
  EXPECT_EQ(h.Percentile(-1.0), 7u);
  EXPECT_EQ(h.Percentile(2.0), 7u);
}

TEST(HistogramTest, ExtremeValueLandsInTopBucket) {
  Histogram h;
  const std::uint64_t value = ~std::uint64_t{0};
  h.Record(value);
  EXPECT_EQ(h.max(), value);
  // The reported percentile is a bucket midpoint within the log-linear
  // relative error, capped at the recorded max — never beyond it.
  const std::uint64_t p = h.Percentile(1.0);
  EXPECT_LE(p, value);
  EXPECT_GE(static_cast<double>(p), static_cast<double>(value) * (1.0 - 1.0 / 16.0));
}

TEST(HistogramTest, RecordZeroCountIsNoOp) {
  Histogram h;
  h.RecordN(42, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, MergeWithEmptyPreservesStats) {
  Histogram a;
  Histogram empty;
  a.Record(10);
  a.Record(30);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 10u);
  EXPECT_EQ(empty.max(), 30u);
}

TEST(HistogramTest, ResetRestoresEmptyState) {
  Histogram h;
  h.Record(123'456);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  h.Record(5);
  EXPECT_EQ(h.Percentile(1.0), 5u);
}

TEST(ExactPercentileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(ExactPercentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(ExactPercentile({5.0}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(ExactPercentile({}, 0.5), 0.0);
}

TEST(UnitsTest, Constants) {
  EXPECT_EQ(kPageSize, 4096u);
  EXPECT_EQ(kRegionSize, 2u * 1024 * 1024);
  EXPECT_EQ(kPagesPerRegion, 512u);
}

TEST(SplitMixTest, Avalanche) {
  // Flipping one input bit should flip ~half the output bits.
  int total = 0;
  for (std::uint64_t x = 0; x < 100; ++x) {
    total += __builtin_popcountll(SplitMix64(x) ^ SplitMix64(x ^ 1));
  }
  EXPECT_GT(total / 100, 20);
  EXPECT_LT(total / 100, 44);
}

// ThreadPool (thread_pool.h): the shared pool is reentrant and takes
// batches from several threads at once; each test sizes it itself.

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnceAtEverySize) {
  for (const int threads : {1, 2, 4, 8}) {
    ASSERT_TRUE(ThreadPool::SetSharedThreadsForTesting(threads).ok());
    EXPECT_EQ(ThreadPool::Shared().threads(), threads);
    for (const std::size_t n : {0, 1, 7, 1000}) {
      std::vector<int> slots(n, 0);
      ThreadPool::Shared().ParallelFor(n, [&slots](std::size_t i) { slots[i] += 1; });
      EXPECT_EQ(std::count(slots.begin(), slots.end(), 1), static_cast<std::ptrdiff_t>(n))
          << threads << " threads, n = " << n;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForFromATask) {
  ASSERT_TRUE(ThreadPool::SetSharedThreadsForTesting(4).ok());
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kMiddle = 5;
  constexpr std::size_t kInner = 40;
  ThreadPool& pool = ThreadPool::Shared();
  std::vector<std::uint64_t> slots(kOuter * kMiddle * kInner, 0);
  pool.ParallelFor(kOuter, [&pool, &slots](std::size_t i) {
    pool.ParallelFor(kMiddle, [&pool, &slots, i](std::size_t j) {
      pool.ParallelFor(kInner, [&slots, i, j](std::size_t k) {
        slots[(i * kMiddle + j) * kInner + k] += (i * kMiddle + j) * kInner + k + 1;
      });
    });
  });
  for (std::size_t x = 0; x < slots.size(); ++x) {
    EXPECT_EQ(slots[x], x + 1) << "slot " << x;
  }
}

TEST(ThreadPoolTest, IdleWorkersJoinANestedBatch) {
  // Outer index 0 fans out two inner indices, each of which waits (boundedly)
  // until both run at once. Only an idle worker claiming from the nested
  // batch can make that happen; three threads leave one idle whoever takes
  // index 0.
  ASSERT_TRUE(ThreadPool::SetSharedThreadsForTesting(3).ok());
  ThreadPool& pool = ThreadPool::Shared();
  std::atomic<int> running{0};
  std::vector<int> met(2, 0);
  pool.ParallelFor(2, [&pool, &running, &met](std::size_t outer) {
    if (outer != 0) {
      return;
    }
    pool.ParallelFor(2, [&running, &met](std::size_t inner) {
      running.fetch_add(1);
      for (int spin = 0; running.load() < 2 && spin < 20'000'000; ++spin) {
        std::this_thread::yield();
      }
      met[inner] = running.load() >= 2 ? 1 : 0;
    });
  });
  EXPECT_EQ(met, (std::vector<int>{1, 1}));
}

TEST(ThreadPoolTest, ConcurrentSubmittersFromOutsideThePool) {
  ASSERT_TRUE(ThreadPool::SetSharedThreadsForTesting(4).ok());
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kN = 300;
  std::vector<std::uint64_t> sums(2, 0);
  const auto submit = [&sums](std::size_t submitter) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      std::vector<std::uint64_t> slots(kN, 0);
      ThreadPool::Shared().ParallelFor(
          kN, [&slots, submitter](std::size_t i) { slots[i] = i * (submitter + 1); });
      sums[submitter] += std::accumulate(slots.begin(), slots.end(), std::uint64_t{0});
    }
  };
  std::thread first(submit, 0);
  std::thread second(submit, 1);
  first.join();
  second.join();
  constexpr std::uint64_t kOnePass = kN * (kN - 1) / 2;
  EXPECT_EQ(sums[0], kRounds * kOnePass);
  EXPECT_EQ(sums[1], 2 * kRounds * kOnePass);
}

TEST(ThreadPoolTest, ResizeRefusedWhileABatchIsOpen) {
  for (const int threads : {1, 2}) {
    ASSERT_TRUE(ThreadPool::SetSharedThreadsForTesting(threads).ok());
    std::vector<StatusCode> codes(4, StatusCode::kOk);
    ThreadPool::Shared().ParallelFor(4, [&codes](std::size_t i) {
      codes[i] = ThreadPool::SetSharedThreadsForTesting(8).code();
    });
    for (const StatusCode code : codes) {
      EXPECT_EQ(code, StatusCode::kFailedPrecondition) << threads << " threads";
    }
    EXPECT_EQ(ThreadPool::Shared().threads(), threads);
  }
  // Idle again: the resize goes through.
  EXPECT_TRUE(ThreadPool::SetSharedThreadsForTesting(8).ok());
  EXPECT_EQ(ThreadPool::Shared().threads(), 8);
  EXPECT_EQ(ThreadPool::SetSharedThreadsForTesting(0).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tierscape
