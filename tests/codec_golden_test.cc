// Golden digests of everything the codec layer outputs: synthesized page
// bytes, every compressor's stream, Huffman code construction, and what every
// decoder returns on corrupted input. Compression ratios feed every figure,
// so a codec change that alters one output byte must fail here; this is the
// oracle for performance work on src/compress.
//
// Each digest is FNV-1a over the outputs of a seeded input set. On a mismatch
// the test prints the actual value. Change a constant only for an intended
// change of codec output, and record why in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/compress/bitstream.h"
#include "src/compress/compressor.h"
#include "src/compress/corpus.h"
#include "src/compress/huffman.h"

namespace tierscape {
namespace {

class Digest {
 public:
  void Add(std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      hash_ = (hash_ ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
    }
  }
  void Add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

constexpr int kSeedsPerProfile = 16;

std::vector<std::byte> MakePage(CorpusProfile profile, std::uint64_t seed,
                                std::size_t size = kPageSize) {
  std::vector<std::byte> page(size);
  FillPage(profile, seed, page);
  return page;
}

// The blob shapes of compress_test's FuzzRoundTripTest: runs, repeated
// 8-byte motifs and random bytes.
std::vector<std::byte> MakeBlob(Rng& rng) {
  std::vector<std::byte> data(64 + rng.NextBelow(4096));
  std::size_t i = 0;
  while (i < data.size()) {
    const int mode = static_cast<int>(rng.NextBelow(3));
    const std::size_t run = std::min<std::size_t>(1 + rng.NextBelow(64), data.size() - i);
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
  return data;
}

// Adds (status code, size, output bytes) of compressing `data` into a buffer
// of `capacity` bytes.
void AddCompress(Digest& digest, const Compressor& codec, std::span<const std::byte> data,
                 std::size_t capacity) {
  std::vector<std::byte> out(capacity);
  const auto size = codec.Compress(data, out);
  digest.Add(static_cast<std::uint64_t>(size.status().code()));
  if (size.ok()) {
    digest.Add(*size);
    digest.Add(std::span<const std::byte>(out).first(*size));
  }
}

std::uint64_t FillDigest(CorpusProfile profile) {
  Digest digest;
  for (int s = 0; s < kSeedsPerProfile; ++s) {
    digest.Add(MakePage(profile, SplitMix64(s)));
  }
  return digest.value();
}

std::uint64_t CompressDigest(Algorithm algorithm) {
  const Compressor& codec = GetCompressor(algorithm);
  Digest digest;
  for (int p = 0; p < kCorpusProfileCount; ++p) {
    const auto profile = static_cast<CorpusProfile>(p);
    for (int s = 0; s < kSeedsPerProfile; ++s) {
      const std::vector<std::byte> page = MakePage(profile, SplitMix64(s));
      AddCompress(digest, codec, page, 2 * kPageSize);
      // The tight buffer pins where a stream is rejected as too large.
      AddCompress(digest, codec, page, kPageSize * 3 / 4);
    }
    for (const std::size_t size : {1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17, 31, 64, 100, 1000,
                                   4095, 8192}) {
      AddCompress(digest, codec, MakePage(profile, size * 31 + 1, size), 4 * size + 1024);
    }
  }
  Rng rng(999 + static_cast<int>(algorithm));
  for (int i = 0; i < 50; ++i) {
    const std::vector<std::byte> blob = MakeBlob(rng);
    AddCompress(digest, codec, blob, 2 * blob.size() + 1024);
  }
  return digest.value();
}

// Frequency tables of several shapes. Fibonacci tables of 20+ symbols force
// trees deeper than 15 bits, so they always exercise the max_bits clamp.
std::vector<std::uint32_t> MakeFreqs(Rng& rng, int shape) {
  std::vector<std::uint32_t> freqs(1 + rng.NextBelow(300));
  switch (shape) {
    case 0:  // uniform small counts
      for (auto& f : freqs) {
        f = static_cast<std::uint32_t>(rng.NextBelow(100));
      }
      break;
    case 1:  // sparse
      for (auto& f : freqs) {
        f = rng.NextBelow(10) < 7 ? 0 : static_cast<std::uint32_t>(1 + rng.NextBelow(1000));
      }
      break;
    case 2:  // heavy-tailed: counts spread over 2^0..2^23
      for (auto& f : freqs) {
        f = (1u << rng.NextBelow(24)) + static_cast<std::uint32_t>(rng.NextBelow(3));
      }
      break;
    case 3: {  // Fibonacci, shuffled
      freqs.resize(20 + rng.NextBelow(25));
      std::uint32_t a = 1;
      std::uint32_t b = 1;
      for (auto& f : freqs) {
        f = a;
        const std::uint32_t next = a + b;
        a = b;
        b = next;
      }
      for (std::size_t i = freqs.size() - 1; i > 0; --i) {
        std::swap(freqs[i], freqs[rng.NextBelow(i + 1)]);
      }
      break;
    }
    case 4:  // many equal counts: ties decide the tree
      for (auto& f : freqs) {
        f = static_cast<std::uint32_t>(1 + rng.NextBelow(3));
      }
      break;
    default:  // at most two used symbols
      std::fill(freqs.begin(), freqs.end(), 0u);
      freqs[rng.NextBelow(freqs.size())] = 5;
      if (rng.NextBelow(2) == 0) {
        freqs[rng.NextBelow(freqs.size())] += 3;
      }
      break;
  }
  return freqs;
}

std::uint64_t HuffmanDigest() {
  Rng rng(2024);
  Digest digest;
  std::vector<std::byte> bits(64);
  for (int i = 0; i < 600; ++i) {
    const std::vector<std::uint32_t> freqs = MakeFreqs(rng, i % 6);
    // 9 bits still leaves room for all 300 symbols.
    const int max_bits = rng.NextBelow(3) == 0 ? 9 : kMaxHuffmanBits;
    const HuffmanCode code = BuildHuffmanCode(freqs, max_bits);
    digest.Add(static_cast<std::uint64_t>(max_bits));
    digest.Add(std::as_bytes(std::span(code.lengths)));
    digest.Add(std::as_bytes(std::span(code.reversed_codes)));

    // Decode random bits with the code: pins symbols, -1 on unused patterns,
    // how many bits each step consumes, and where the reader runs dry.
    HuffmanDecoder decoder;
    const bool valid = decoder.Init(code.lengths);
    digest.Add(static_cast<std::uint64_t>(valid));
    if (!valid) {
      continue;
    }
    for (auto& b : bits) {
      b = static_cast<std::byte>(rng.Next() & 0xff);
    }
    BitReader reader(std::span<const std::byte>(bits).first(1 + rng.NextBelow(bits.size())));
    for (int k = 0; k < 80; ++k) {
      digest.Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(decoder.Decode(reader))));
      digest.Add(static_cast<std::uint64_t>(reader.exhausted()));
    }
    digest.Add(reader.Read(7));
  }
  return digest.value();
}

// Compresses seeded inputs, corrupts each stream one way, and adds the
// decoder's status code, plus its output when it accepts the stream.
std::uint64_t CorruptDigest(Algorithm algorithm) {
  const Compressor& codec = GetCompressor(algorithm);
  Rng rng(0xc0de + static_cast<std::uint64_t>(algorithm));
  Digest digest;
  std::vector<std::byte> stream(3 * kPageSize);
  for (int i = 0; i < 300; ++i) {
    const auto profile = static_cast<CorpusProfile>(i % kCorpusProfileCount);
    const std::size_t size = i % 4 == 3 ? 1 + rng.NextBelow(kPageSize) : kPageSize;
    const std::vector<std::byte> page = MakePage(profile, SplitMix64(1000 + i), size);
    const auto compressed = codec.Compress(page, stream);
    if (!compressed.ok()) {
      ADD_FAILURE() << codec.name() << " rejected input " << i;
      continue;
    }
    std::vector<std::byte> bad(stream.begin(), stream.begin() + *compressed);
    std::size_t out_size = size;
    switch (rng.NextBelow(6)) {
      case 0:  // one bit flip
        bad[rng.NextBelow(bad.size())] ^= static_cast<std::byte>(1u << rng.NextBelow(8));
        break;
      case 1: {  // several bit flips
        const int flips = 2 + static_cast<int>(rng.NextBelow(7));
        for (int f = 0; f < flips; ++f) {
          bad[rng.NextBelow(bad.size())] ^= static_cast<std::byte>(1u << rng.NextBelow(8));
        }
        break;
      }
      case 2:  // truncation
        bad.resize(rng.NextBelow(bad.size()));
        break;
      case 3: {  // extension with garbage
        const std::size_t extra = 1 + rng.NextBelow(16);
        for (std::size_t e = 0; e < extra; ++e) {
          bad.push_back(static_cast<std::byte>(rng.Next() & 0xff));
        }
        break;
      }
      case 4: {  // header garbage
        const std::size_t n = std::min<std::size_t>(bad.size(), 1 + rng.NextBelow(4));
        for (std::size_t e = 0; e < n; ++e) {
          bad[e] = static_cast<std::byte>(rng.Next() & 0xff);
        }
        break;
      }
      default:  // intact stream, wrong output size
        out_size = rng.NextBelow(2) == 0 ? size - 1 : size + 1;
        break;
    }
    std::vector<std::byte> out(out_size, std::byte{0xa5});
    const auto result = codec.Decompress(bad, out);
    digest.Add(static_cast<std::uint64_t>(result.status().code()));
    if (result.ok()) {
      digest.Add(*result);
      digest.Add(out);
    }
  }
  return digest.value();
}

constexpr std::uint64_t kFillDigests[kCorpusProfileCount] = {
    0xe9ed382047b55009ULL,  // nci
    0x7d055a80cfab8986ULL,  // dickens
    0x2ff04e70d2bc1ecaULL,  // binary
    0x0640338459f4f40aULL,  // random
    0xeb05052ea5b62325ULL,  // zero
};

constexpr std::uint64_t kCompressDigests[kAlgorithmCount] = {
    0x729111c3b3152674ULL,  // lz4
    0xffc9bfb99580d963ULL,  // lz4hc
    0xee3ff565333ce40bULL,  // lzo
    0xa1eb2a7032e7d829ULL,  // lzo-rle
    0xc97f42d783b488b1ULL,  // deflate
    0x2e28fec93b10de10ULL,  // zstd
    0x77689cefc6cd9eceULL,  // 842
};

constexpr std::uint64_t kHuffmanDigest = 0xc2ced50049b47ea6ULL;

constexpr std::uint64_t kCorruptDigests[kAlgorithmCount] = {
    0x7d64c75d252fba25ULL,  // lz4
    0xf93ec3e968c3dcb9ULL,  // lz4hc
    0x949fc3952adad646ULL,  // lzo
    0x5e34edef5d9689ccULL,  // lzo-rle
    0x683584a405b7c2c5ULL,  // deflate
    0x73b80f4cac4d7202ULL,  // zstd
    0xf248e2c5013ef468ULL,  // 842
};

TEST(CodecGoldenTest, FillPage) {
  for (int p = 0; p < kCorpusProfileCount; ++p) {
    const auto profile = static_cast<CorpusProfile>(p);
    EXPECT_EQ(FillDigest(profile), kFillDigests[p])
        << CorpusProfileName(profile) << " actual 0x" << std::hex << FillDigest(profile);
  }
}

TEST(CodecGoldenTest, Compress) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const auto algorithm = static_cast<Algorithm>(a);
    const std::uint64_t actual = CompressDigest(algorithm);
    EXPECT_EQ(actual, kCompressDigests[a])
        << AlgorithmName(algorithm) << " actual 0x" << std::hex << actual;
  }
}

TEST(CodecGoldenTest, BuildHuffmanCodeAndDecode) {
  const std::uint64_t actual = HuffmanDigest();
  EXPECT_EQ(actual, kHuffmanDigest) << "actual 0x" << std::hex << actual;
}

TEST(CodecGoldenTest, DecompressCorruptStreams) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const auto algorithm = static_cast<Algorithm>(a);
    const std::uint64_t actual = CorruptDigest(algorithm);
    EXPECT_EQ(actual, kCorruptDigests[a])
        << AlgorithmName(algorithm) << " actual 0x" << std::hex << actual;
  }
}

}  // namespace
}  // namespace tierscape
