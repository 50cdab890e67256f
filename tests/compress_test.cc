// Tests for the seven compression algorithms: round-trip correctness on all
// corpus profiles and sizes (parameterized), ratio-ordering properties the
// paper's tier characterization relies on, and corruption handling.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/compress/compressor.h"
#include "src/compress/corpus.h"

namespace tierscape {
namespace {

std::vector<std::byte> MakePage(CorpusProfile profile, std::uint64_t seed,
                                std::size_t size = kPageSize) {
  std::vector<std::byte> page(size);
  FillPage(profile, seed, page);
  return page;
}

// ---------------------------------------------------------------------------
// Parameterized round-trip: every algorithm x every corpus profile.
// ---------------------------------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RoundTripTest, CompressDecompressIdentity) {
  const auto algorithm = static_cast<Algorithm>(std::get<0>(GetParam()));
  const auto profile = static_cast<CorpusProfile>(std::get<1>(GetParam()));
  const Compressor& compressor = GetCompressor(algorithm);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<std::byte> page = MakePage(profile, seed);
    std::vector<std::byte> compressed(2 * kPageSize);
    auto size = compressor.Compress(page, compressed);
    ASSERT_TRUE(size.ok()) << compressor.name() << " seed " << seed << ": "
                           << size.status().ToString();
    std::vector<std::byte> restored(kPageSize);
    auto restored_size = compressor.Decompress(
        std::span<const std::byte>(compressed.data(), *size), restored);
    ASSERT_TRUE(restored_size.ok()) << restored_size.status().ToString();
    EXPECT_EQ(*restored_size, kPageSize);
    EXPECT_EQ(restored, page) << compressor.name() << " corrupted seed " << seed;
  }
}

TEST_P(RoundTripTest, OddSizes) {
  const auto algorithm = static_cast<Algorithm>(std::get<0>(GetParam()));
  const auto profile = static_cast<CorpusProfile>(std::get<1>(GetParam()));
  const Compressor& compressor = GetCompressor(algorithm);

  for (std::size_t size : {1ul, 2ul, 7ul, 13ul, 64ul, 100ul, 1000ul, 4095ul}) {
    const std::vector<std::byte> data = MakePage(profile, size * 31 + 1, size);
    std::vector<std::byte> compressed(4 * size + 1024);
    auto csize = compressor.Compress(data, compressed);
    ASSERT_TRUE(csize.ok()) << compressor.name() << " size " << size;
    std::vector<std::byte> restored(size);
    auto rsize = compressor.Decompress(
        std::span<const std::byte>(compressed.data(), *csize), restored);
    ASSERT_TRUE(rsize.ok()) << compressor.name() << " size " << size << ": "
                            << rsize.status().ToString();
    EXPECT_EQ(restored, data) << compressor.name() << " size " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RoundTripTest,
    ::testing::Combine(::testing::Range(0, kAlgorithmCount),
                       ::testing::Range(0, kCorpusProfileCount)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      std::string name(AlgorithmName(static_cast<Algorithm>(std::get<0>(info.param))));
      name += "_";
      name += CorpusProfileName(static_cast<CorpusProfile>(std::get<1>(info.param)));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Property: random binary blobs round-trip through every algorithm.
// ---------------------------------------------------------------------------

class FuzzRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzRoundTripTest, RandomStructuredBlobs) {
  const auto algorithm = static_cast<Algorithm>(GetParam());
  const Compressor& compressor = GetCompressor(algorithm);
  Rng rng(999 + GetParam());
  for (int iteration = 0; iteration < 50; ++iteration) {
    // Blobs mixing runs, repeated motifs, and random bytes.
    std::vector<std::byte> data(64 + rng.NextBelow(4096));
    std::size_t i = 0;
    while (i < data.size()) {
      const int mode = static_cast<int>(rng.NextBelow(3));
      std::size_t run = 1 + rng.NextBelow(64);
      run = std::min(run, data.size() - i);
      if (mode == 0) {
        std::memset(data.data() + i, static_cast<int>(rng.NextBelow(4)), run);
      } else if (mode == 1 && i >= 8) {
        for (std::size_t j = 0; j < run; ++j) {
          data[i + j] = data[i + j - 8];
        }
      } else {
        for (std::size_t j = 0; j < run; ++j) {
          data[i + j] = static_cast<std::byte>(rng.Next() & 0xff);
        }
      }
      i += run;
    }
    std::vector<std::byte> compressed(2 * data.size() + 1024);
    auto csize = compressor.Compress(data, compressed);
    ASSERT_TRUE(csize.ok());
    std::vector<std::byte> restored(data.size());
    auto rsize = compressor.Decompress(
        std::span<const std::byte>(compressed.data(), *csize), restored);
    ASSERT_TRUE(rsize.ok()) << compressor.name() << " iteration " << iteration;
    ASSERT_EQ(restored, data) << compressor.name() << " iteration " << iteration;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, FuzzRoundTripTest,
                         ::testing::Range(0, kAlgorithmCount),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name(
                               AlgorithmName(static_cast<Algorithm>(info.param)));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Ratio ordering properties (§2, §4, Figure 2).
// ---------------------------------------------------------------------------

double MeanRatio(Algorithm algorithm, CorpusProfile profile) {
  const Compressor& compressor = GetCompressor(algorithm);
  double total = 0.0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    const std::vector<std::byte> page = MakePage(profile, 100 + i);
    std::vector<std::byte> compressed(2 * kPageSize);
    total += static_cast<double>(*compressor.Compress(page, compressed)) / kPageSize;
  }
  return total / n;
}

TEST(RatioOrderingTest, DeflateBestOnText) {
  // deflate offers one of the best compression ratios (§2).
  for (CorpusProfile profile : {CorpusProfile::kNci, CorpusProfile::kDickens}) {
    const double deflate = MeanRatio(Algorithm::kDeflate, profile);
    EXPECT_LT(deflate, MeanRatio(Algorithm::kLz4, profile));
    EXPECT_LT(deflate, MeanRatio(Algorithm::kLzo, profile));
    EXPECT_LT(deflate, MeanRatio(Algorithm::kZstd, profile));
    EXPECT_LT(deflate, MeanRatio(Algorithm::k842, profile));
  }
}

TEST(RatioOrderingTest, ZstdBetweenLzoAndDeflate) {
  for (CorpusProfile profile : {CorpusProfile::kNci, CorpusProfile::kDickens}) {
    const double zstd = MeanRatio(Algorithm::kZstd, profile);
    EXPECT_LT(zstd, MeanRatio(Algorithm::kLzo, profile));
    EXPECT_GT(zstd, MeanRatio(Algorithm::kDeflate, profile));
  }
}

TEST(RatioOrderingTest, Lz4HcBeatsLz4) {
  for (CorpusProfile profile : {CorpusProfile::kNci, CorpusProfile::kDickens,
                                CorpusProfile::kBinary}) {
    EXPECT_LT(MeanRatio(Algorithm::kLz4Hc, profile), MeanRatio(Algorithm::kLz4, profile));
  }
}

TEST(RatioOrderingTest, NciMoreCompressibleThanDickens) {
  // nci is the highly compressible corpus [22].
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const auto algorithm = static_cast<Algorithm>(a);
    EXPECT_LT(MeanRatio(algorithm, CorpusProfile::kNci),
              MeanRatio(algorithm, CorpusProfile::kDickens))
        << AlgorithmName(algorithm);
  }
}

TEST(RatioOrderingTest, RandomDataIncompressible) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    EXPECT_GT(MeanRatio(static_cast<Algorithm>(a), CorpusProfile::kRandom), 0.98);
  }
}

TEST(RatioOrderingTest, ZeroPagesNearlyFree) {
  for (Algorithm algorithm : {Algorithm::kLz4, Algorithm::kLzo, Algorithm::kLzoRle,
                              Algorithm::kDeflate, Algorithm::kZstd}) {
    EXPECT_LT(MeanRatio(algorithm, CorpusProfile::kZero), 0.02)
        << AlgorithmName(algorithm);
  }
}

TEST(RatioOrderingTest, LzoRleWinsOnRunHeavyData) {
  EXPECT_LE(MeanRatio(Algorithm::kLzoRle, CorpusProfile::kZero),
            MeanRatio(Algorithm::kLzo, CorpusProfile::kZero));
}

// ---------------------------------------------------------------------------
// Rejection and corruption handling.
// ---------------------------------------------------------------------------

TEST(RejectionTest, TightBufferRejectsIncompressible) {
  const std::vector<std::byte> page = MakePage(CorpusProfile::kRandom, 7);
  std::vector<std::byte> small(kPageSize * 9 / 10);
  for (int a = 0; a < kAlgorithmCount; ++a) {
    auto result = GetCompressor(static_cast<Algorithm>(a)).Compress(page, small);
    EXPECT_FALSE(result.ok()) << AlgorithmName(static_cast<Algorithm>(a));
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kRejected);
    }
  }
}

TEST(CorruptionTest, TruncatedStreamFailsCleanly) {
  const std::vector<std::byte> page = MakePage(CorpusProfile::kDickens, 3);
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const Compressor& compressor = GetCompressor(static_cast<Algorithm>(a));
    std::vector<std::byte> compressed(2 * kPageSize);
    auto size = compressor.Compress(page, compressed);
    ASSERT_TRUE(size.ok());
    std::vector<std::byte> restored(kPageSize);
    // Truncate to half: must fail, not crash, not read out of bounds.
    auto result = compressor.Decompress(
        std::span<const std::byte>(compressed.data(), *size / 2), restored);
    EXPECT_FALSE(result.ok()) << compressor.name();
  }
}

TEST(CorpusTest, Deterministic) {
  for (int p = 0; p < kCorpusProfileCount; ++p) {
    const auto profile = static_cast<CorpusProfile>(p);
    EXPECT_EQ(MakePage(profile, 5), MakePage(profile, 5));
    if (profile != CorpusProfile::kZero) {
      EXPECT_NE(MakePage(profile, 5), MakePage(profile, 6));
    }
  }
}

TEST(CorpusTest, ChecksumDetectsChange) {
  std::vector<std::byte> page = MakePage(CorpusProfile::kBinary, 9);
  const std::uint64_t before = PageChecksum(page);
  page[100] ^= std::byte{1};
  EXPECT_NE(before, PageChecksum(page));
}

TEST(CorpusTest, ChecksumDetectsEverySingleBitFlip) {
  // A page, and an odd size whose last bytes fall outside the 8-byte words.
  for (const std::size_t size : {kPageSize, std::size_t{4099}}) {
    std::vector<std::byte> page = MakePage(CorpusProfile::kDickens, 11, size);
    const std::uint64_t before = PageChecksum(page);
    for (std::size_t bit = 0; bit < 8 * size; ++bit) {
      page[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      ASSERT_NE(PageChecksum(page), before) << "size " << size << " bit " << bit;
      page[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
  }
}

TEST(CompressorRegistryTest, NamesRoundTrip) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const auto algorithm = static_cast<Algorithm>(a);
    auto parsed = AlgorithmFromName(AlgorithmName(algorithm));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(AlgorithmFromName("gzip").ok());
}

TEST(CompressorRegistryTest, LatencyModelOrdering) {
  // Fig. 2a ordering: lz4 fastest, then lzo, then zstd, then deflate.
  EXPECT_LT(GetCompressor(Algorithm::kLz4).decompress_page_ns(),
            GetCompressor(Algorithm::kLzo).decompress_page_ns());
  EXPECT_LT(GetCompressor(Algorithm::kLzo).decompress_page_ns(),
            GetCompressor(Algorithm::kZstd).decompress_page_ns());
  EXPECT_LT(GetCompressor(Algorithm::kZstd).decompress_page_ns(),
            GetCompressor(Algorithm::kDeflate).decompress_page_ns());
}

}  // namespace
}  // namespace tierscape
