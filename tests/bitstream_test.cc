// Unit + property tests for the entropy-coding building blocks: the LSB-first
// bitstream and the canonical length-limited Huffman coder.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/compress/bitstream.h"
#include "src/compress/codelen.h"
#include "src/compress/huffman.h"

namespace tierscape {
namespace {

TEST(BitStreamTest, RoundTripsFixedPattern) {
  std::vector<std::byte> buffer(64);
  BitWriter writer(buffer);
  ASSERT_TRUE(writer.Write(0b101, 3));
  ASSERT_TRUE(writer.Write(0xffff, 16));
  ASSERT_TRUE(writer.Write(0, 1));
  ASSERT_TRUE(writer.Write(0x12345678, 32));
  const std::size_t size = writer.Finish();
  ASSERT_GT(size, 0u);

  BitReader reader(std::span<const std::byte>(buffer.data(), size));
  EXPECT_EQ(reader.Read(3), 0b101u);
  EXPECT_EQ(reader.Read(16), 0xffffu);
  EXPECT_EQ(reader.Read(1), 0u);
  EXPECT_EQ(reader.Read(32), 0x12345678u);
  EXPECT_FALSE(reader.exhausted());
}

TEST(BitStreamTest, RandomWidthsRoundTrip) {
  Rng rng(31);
  std::vector<std::pair<std::uint32_t, int>> values;
  for (int i = 0; i < 2000; ++i) {
    const int bits = 1 + static_cast<int>(rng.NextBelow(32));
    const std::uint32_t value =
        static_cast<std::uint32_t>(rng.Next()) &
        (bits == 32 ? 0xffffffffu : ((1u << bits) - 1));
    values.emplace_back(value, bits);
  }
  std::vector<std::byte> buffer(16 * 1024);
  BitWriter writer(buffer);
  for (const auto& [value, bits] : values) {
    ASSERT_TRUE(writer.Write(value, bits));
  }
  const std::size_t size = writer.Finish();
  BitReader reader(std::span<const std::byte>(buffer.data(), size));
  for (const auto& [value, bits] : values) {
    ASSERT_EQ(reader.Read(bits), value);
  }
}

TEST(BitStreamTest, OverflowDetected) {
  std::vector<std::byte> buffer(2);
  BitWriter writer(buffer);
  ASSERT_TRUE(writer.Write(0xff, 8));
  ASSERT_TRUE(writer.Write(0xff, 8));
  // A trailing partial bit may sit in the accumulator, but a full byte past
  // the end must fail, and Finish must report the overflow.
  EXPECT_FALSE(writer.Write(0xff, 8));
  EXPECT_TRUE(writer.overflowed());
  EXPECT_EQ(writer.Finish(), 0u);
}

TEST(BitStreamTest, ReaderPastEndSetsExhausted) {
  std::vector<std::byte> buffer = {std::byte{0xab}};
  BitReader reader(buffer);
  reader.Read(8);
  EXPECT_FALSE(reader.exhausted());
  reader.Read(8);
  EXPECT_TRUE(reader.exhausted());
}

TEST(BitStreamTest, PeekLooksAheadWithoutConsuming) {
  const std::vector<std::byte> buffer = {std::byte{0xab}, std::byte{0xcd}};
  BitReader reader(buffer);
  EXPECT_EQ(reader.Peek(4), 0xbu);
  EXPECT_EQ(reader.Peek(16), 0xcdabu);
  // Bits past the end peek as zeros, and peeking never exhausts.
  EXPECT_EQ(reader.Peek(32), 0xcdabu);
  EXPECT_FALSE(reader.exhausted());
  reader.Skip(4);
  EXPECT_EQ(reader.Peek(12), 0xcdau);
  EXPECT_EQ(reader.Read(12), 0xcdau);
  EXPECT_FALSE(reader.exhausted());
}

TEST(BitStreamTest, SkipExhaustsExactlyAtTheEnd) {
  // Sizes below and above eight bytes take the byte-wise and the word-wise
  // refill; every chunk width leaves the reader exactly at the end.
  Rng rng(17);
  for (std::size_t size = 1; size <= 24; ++size) {
    for (int width = 1; width <= 32; ++width) {
      std::vector<std::byte> buffer(size);
      for (auto& b : buffer) {
        b = static_cast<std::byte>(rng.Next() & 0xff);
      }
      BitReader reader(buffer);
      int left = static_cast<int>(8 * size);
      while (left > 0) {
        const int count = std::min(width, left);
        reader.Peek(32);  // looks past the end without consuming it
        reader.Skip(count);
        left -= count;
      }
      ASSERT_FALSE(reader.exhausted()) << "size " << size << " width " << width;
      EXPECT_EQ(reader.Peek(32), 0u);
      EXPECT_FALSE(reader.exhausted());
      reader.Skip(1);
      EXPECT_TRUE(reader.exhausted()) << "size " << size << " width " << width;
    }
  }
}

TEST(BitStreamTest, SkipPastTheEndInOneStepExhausts) {
  const std::vector<std::byte> buffer(3);
  BitReader reader(buffer);
  reader.Skip(20);
  EXPECT_FALSE(reader.exhausted());
  reader.Skip(5);  // 4 real bits and 1 padding bit
  EXPECT_TRUE(reader.exhausted());
}

TEST(HuffmanTest, SkewedFrequenciesGetShortCodes) {
  std::vector<std::uint32_t> freqs(8, 1);
  freqs[0] = 1000;
  const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
  for (std::size_t sym = 1; sym < freqs.size(); ++sym) {
    EXPECT_LE(code.lengths[0], code.lengths[sym]);
  }
}

TEST(HuffmanTest, UnusedSymbolsGetNoCode) {
  std::vector<std::uint32_t> freqs = {5, 0, 3, 0};
  const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
  EXPECT_GT(code.lengths[0], 0);
  EXPECT_EQ(code.lengths[1], 0);
  EXPECT_GT(code.lengths[2], 0);
  EXPECT_EQ(code.lengths[3], 0);
}

TEST(HuffmanTest, SingleSymbolGetsOneBit) {
  std::vector<std::uint32_t> freqs = {0, 7, 0};
  const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
  EXPECT_EQ(code.lengths[1], 1);
}

TEST(HuffmanTest, KraftInequalityHolds) {
  Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint32_t> freqs(64);
    for (auto& f : freqs) {
      f = rng.NextBelow(1000);
    }
    const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
    std::uint64_t kraft = 0;
    for (const auto len : code.lengths) {
      if (len > 0) {
        ASSERT_LE(len, kMaxHuffmanBits);
        kraft += 1ull << (kMaxHuffmanBits - len);
      }
    }
    EXPECT_LE(kraft, 1ull << kMaxHuffmanBits);
  }
}

TEST(HuffmanTest, LengthLimitingRespectsMaxBits) {
  // Fibonacci-ish frequencies force deep trees without limiting.
  std::vector<std::uint32_t> freqs;
  std::uint32_t a = 1;
  std::uint32_t b = 1;
  for (int i = 0; i < 30; ++i) {
    freqs.push_back(a);
    const std::uint32_t next = a + b;
    a = b;
    b = next;
  }
  const HuffmanCode code = BuildHuffmanCode(freqs, 10);
  for (const auto len : code.lengths) {
    EXPECT_LE(len, 10);
  }
}

TEST(HuffmanTest, EncodeDecodeRandomStreams) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint32_t> freqs(100);
    for (auto& f : freqs) {
      f = rng.NextBelow(50);
    }
    freqs[0] = 500;  // ensure at least one used symbol
    const HuffmanCode code = BuildHuffmanCode(freqs, kMaxHuffmanBits);
    HuffmanDecoder decoder;
    ASSERT_TRUE(decoder.Init(code.lengths));

    // Encode a random stream of used symbols.
    std::vector<int> symbols;
    for (int i = 0; i < 500; ++i) {
      int sym = 0;
      do {
        sym = static_cast<int>(rng.NextBelow(freqs.size()));
      } while (code.lengths[sym] == 0);
      symbols.push_back(sym);
    }
    std::vector<std::byte> buffer(8 * 1024);
    BitWriter writer(buffer);
    for (const int sym : symbols) {
      ASSERT_TRUE(code.Encode(writer, sym));
    }
    const std::size_t size = writer.Finish();
    BitReader reader(std::span<const std::byte>(buffer.data(), size));
    for (const int sym : symbols) {
      ASSERT_EQ(decoder.Decode(reader), sym);
    }
  }
}

// The canonical decoder walked one bit at a time: the reference for the
// table-driven HuffmanDecoder, on valid and on unused bit patterns alike.
int ReferenceDecode(std::span<const std::uint8_t> lengths, BitReader& reader) {
  std::uint32_t code = 0;
  for (int bits = 1; bits <= kMaxHuffmanBits; ++bits) {
    code = (code << 1) | reader.Read(1);
    // Canonical codes of this length: count the shorter codes' space first.
    std::uint32_t first = 0;
    for (int len = 1; len < bits; ++len) {
      std::uint32_t count = 0;
      for (const auto l : lengths) {
        count += l == len ? 1 : 0;
      }
      first = (first + count) << 1;
    }
    std::uint32_t rank = 0;
    for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
      if (lengths[sym] != bits) {
        continue;
      }
      if (first + rank == code) {
        return static_cast<int>(sym);
      }
      ++rank;
    }
  }
  return -1;
}

// Decodes `stream` with both decoders and checks they agree on every symbol,
// on -1 for unused patterns, on the bits each step consumes and on where the
// stream runs dry.
void ExpectMatchesReference(std::span<const std::uint8_t> lengths,
                            std::span<const std::byte> stream, int symbols) {
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.Init(lengths));
  BitReader fast(stream);
  BitReader reference(stream);
  for (int i = 0; i < symbols; ++i) {
    ASSERT_EQ(decoder.Decode(fast), ReferenceDecode(lengths, reference)) << "symbol " << i;
    ASSERT_EQ(fast.exhausted(), reference.exhausted()) << "symbol " << i;
    ASSERT_EQ(fast.Peek(32), reference.Peek(32)) << "symbol " << i;
  }
}

TEST(HuffmanDecoderTest, CodesLongerThanTheTable) {
  // A complete code with one code of each length 1..14 and two of 15: the
  // codes of 11+ bits are resolved past the first-level table.
  std::vector<std::uint8_t> lengths;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    lengths.push_back(static_cast<std::uint8_t>(len));
  }
  lengths.push_back(kMaxHuffmanBits);
  HuffmanCode code;
  code.lengths = lengths;
  code.reversed_codes.assign(lengths.size(), 0);
  {
    // Canonical codes, the way BuildHuffmanCode assigns them.
    std::uint32_t next = 0;
    for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
      if (sym > 0 && lengths[sym] != lengths[sym - 1]) {
        next <<= lengths[sym] - lengths[sym - 1];
      }
      std::uint16_t reversed = 0;
      for (int b = 0; b < lengths[sym]; ++b) {
        reversed = static_cast<std::uint16_t>((reversed << 1) | ((next >> b) & 1));
      }
      code.reversed_codes[sym] = reversed;
      ++next;
    }
  }
  std::vector<std::byte> buffer(256);
  BitWriter writer(buffer);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t sym = lengths.size(); sym-- > 0;) {
      ASSERT_TRUE(code.Encode(writer, sym));
    }
  }
  const std::size_t size = writer.Finish();
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.Init(lengths));
  BitReader reader(std::span<const std::byte>(buffer.data(), size));
  for (int round = 0; round < 3; ++round) {
    for (std::size_t sym = lengths.size(); sym-- > 0;) {
      ASSERT_EQ(decoder.Decode(reader), static_cast<int>(sym));
    }
  }
  EXPECT_FALSE(reader.exhausted());
  ExpectMatchesReference(lengths, std::span<const std::byte>(buffer.data(), size), 60);
}

TEST(HuffmanDecoderTest, UnusedPatternConsumesMaxBitsAndFails) {
  // Under-subscribed: "0" -> 0 and "100000000000" (12 bits) -> 1; patterns
  // starting "11" or "101" belong to no code.
  const std::uint8_t lengths[] = {1, 12};
  HuffmanDecoder decoder;
  ASSERT_TRUE(decoder.Init(lengths));
  std::vector<std::byte> buffer(16);
  BitWriter writer(buffer);
  ASSERT_TRUE(writer.Write(0b11, 2));  // unused; then 13 filler bits
  ASSERT_TRUE(writer.Write(0, 13));
  ASSERT_TRUE(writer.Write(0b101, 3));  // marker
  ASSERT_TRUE(writer.Write(1, 1));     // long code, MSB first: 1 then 11 zeros
  ASSERT_TRUE(writer.Write(0, 11));
  ASSERT_TRUE(writer.Write(0b101, 3));  // unused (inside the table width)
  const std::size_t size = writer.Finish();
  BitReader reader(std::span<const std::byte>(buffer.data(), size));
  EXPECT_EQ(decoder.Decode(reader), -1);
  EXPECT_EQ(reader.Read(3), 0b101u);  // exactly kMaxHuffmanBits were consumed
  EXPECT_EQ(decoder.Decode(reader), 1);
  EXPECT_EQ(decoder.Decode(reader), -1);  // consumes the padding too
  EXPECT_TRUE(reader.exhausted());
}

TEST(HuffmanDecoderTest, MatchesCanonicalWalkOnRandomBits) {
  // Built codes, clamped ones (lengths up to 15) and under-subscribed ones,
  // decoded over random bits: symbols, -1s, bits consumed and exhaustion all
  // match the bit-at-a-time walk.
  Rng rng(4242);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::uint32_t> freqs(2 + rng.NextBelow(300));
    for (auto& f : freqs) {
      f = rng.NextBelow(3) == 0 ? 0 : (1u << rng.NextBelow(20));
    }
    freqs[0] = 1;
    std::vector<std::uint8_t> lengths = BuildHuffmanCode(freqs, kMaxHuffmanBits).lengths;
    if (round % 3 == 0) {
      // Drop symbols to leave unused code space.
      for (auto& len : lengths) {
        if (rng.NextBelow(4) == 0) {
          len = 0;
        }
      }
    }
    std::vector<std::byte> stream(1 + rng.NextBelow(64));
    for (auto& b : stream) {
      b = static_cast<std::byte>(rng.Next() & 0xff);
    }
    ExpectMatchesReference(lengths, stream, 100);
  }
}

TEST(HuffmanDecoderTest, RejectsOversubscribedLengths) {
  // Three symbols of length 1 oversubscribe the code space.
  const std::uint8_t lengths[] = {1, 1, 1};
  HuffmanDecoder decoder;
  EXPECT_FALSE(decoder.Init(lengths));
}

TEST(CodeLengthsTest, RoundTripWithRuns) {
  Rng rng(9);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::uint8_t> lengths(286);
    std::size_t i = 0;
    while (i < lengths.size()) {
      const std::uint8_t value =
          rng.NextBelow(3) == 0 ? 0 : static_cast<std::uint8_t>(1 + rng.NextBelow(15));
      std::size_t run = 1 + rng.NextBelow(30);
      run = std::min(run, lengths.size() - i);
      for (std::size_t j = 0; j < run; ++j) {
        lengths[i++] = value;
      }
    }
    std::vector<std::byte> buffer(4096);
    BitWriter writer(buffer);
    ASSERT_TRUE(WriteCodeLengths(writer, lengths));
    const std::size_t size = writer.Finish();
    std::vector<std::uint8_t> decoded(lengths.size());
    BitReader reader(std::span<const std::byte>(buffer.data(), size));
    ASSERT_TRUE(ReadCodeLengths(reader, decoded));
    EXPECT_EQ(decoded, lengths);
  }
}

}  // namespace
}  // namespace tierscape
