#include "src/compress/zstd_like.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/compress/bitstream.h"
#include "src/compress/codelen.h"
#include "src/compress/huffman.h"
#include "src/compress/lz_match.h"

namespace tierscape {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr int kHashBits = 13;
constexpr int kMaxChain = 32;

struct Sequence {
  std::uint32_t literal_run;  // literals preceding the match
  std::uint32_t match_len;    // >= kMinMatch
  std::uint32_t offset;       // 1..65535
};

struct ParseResult {
  std::vector<std::byte> literals;
  std::vector<Sequence> sequences;
};

// Parses `src` into the calling thread's ParseResult, which the next parse on
// the same thread overwrites.
const ParseResult& Parse(std::span<const std::byte> src) {
  const std::byte* const base = src.data();
  const std::size_t n = src.size();
  thread_local ParseResult result;
  result.literals.clear();
  result.sequences.clear();

  std::int32_t head[1 << kHashBits];
  std::memset(head, -1, sizeof(head));
  std::int32_t* const chain = ChainScratch(n);

  auto hash = [&](std::size_t pos) {
    const std::uint32_t v = (static_cast<std::uint32_t>(base[pos]) << 16) |
                            (static_cast<std::uint32_t>(base[pos + 1]) << 8) |
                            static_cast<std::uint32_t>(base[pos + 2]);
    return (v * 506832829u) >> (32 - kHashBits);
  };
  auto insert = [&](std::size_t pos) {
    const std::uint32_t h = hash(pos);
    chain[pos] = head[h];
    head[h] = static_cast<std::int32_t>(pos);
  };

  std::size_t run_start = 0;
  std::size_t pos = 0;
  while (pos + kMinMatch <= n) {
    const std::byte* const cur = base + pos;
    const std::size_t limit = n - pos;
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    int depth = kMaxChain;
    for (std::int32_t cand = head[hash(pos)]; cand >= 0 && depth-- > 0; cand = chain[cand]) {
      const auto cpos = static_cast<std::size_t>(cand);
      if (pos - cpos > 65535) {
        break;  // chains are position-ordered; older candidates are farther
      }
      // A candidate that differs at best_len cannot be strictly longer.
      if (base[cpos + best_len] != cur[best_len]) {
        continue;
      }
      const std::size_t len = CommonPrefix(base + cpos, cur, limit);
      if (len > best_len) {
        best_len = len;
        best_dist = pos - cpos;
        if (best_len == limit) {
          break;  // no candidate can match past the end of the input
        }
      }
    }
    if (best_len >= kMinMatch) {
      result.sequences.push_back(
          Sequence{.literal_run = static_cast<std::uint32_t>(pos - run_start),
                   .match_len = static_cast<std::uint32_t>(best_len),
                   .offset = static_cast<std::uint32_t>(best_dist)});
      result.literals.insert(result.literals.end(), base + run_start, base + pos);
      const std::size_t match_end = pos + best_len;
      // Index a few positions inside the match; full indexing is what makes
      // this cheaper than the deflate parse.
      insert(pos);
      if (pos + 2 + kMinMatch <= n) {
        insert(pos + 2);
      }
      pos = match_end;
      run_start = pos;
    } else {
      insert(pos);
      ++pos;
    }
  }
  result.literals.insert(result.literals.end(), base + run_start, base + n);
  return result;
}

// Length fields: 4-bit fast path, escape 15 followed by 16 raw bits. With
// page-sized inputs most runs and matches are short, so this is close to what
// zstd's FSE coding achieves for sequence lengths.
bool WriteLength(BitWriter& writer, std::uint32_t value) {
  if (value < 15) {
    return writer.Write(value, 4);
  }
  return writer.Write(15, 4) && writer.Write(value, 16);
}

std::uint32_t ReadLength(BitReader& reader) {
  const std::uint32_t v = reader.Read(4);
  if (v < 15) {
    return v;
  }
  return reader.Read(16);
}

// Offsets only need as many bits as the current output position allows —
// within a 4 KiB page that is <= 12 bits instead of a fixed 16.
int OffsetBits(std::size_t produced) {
  return std::clamp(static_cast<int>(std::bit_width(produced)), 1, 16);
}

}  // namespace

StatusOr<std::size_t> ZstdCompressor::Compress(std::span<const std::byte> src,
                                               std::span<std::byte> dst) const {
  const ParseResult& parsed = Parse(src);

  std::uint32_t freq[256] = {};
  for (std::byte b : parsed.literals) {
    ++freq[static_cast<std::size_t>(b)];
  }
  const HuffmanCode lit_code = BuildHuffmanCode(freq, kMaxHuffmanBits);

  BitWriter writer(dst);
  if (!writer.Write(static_cast<std::uint32_t>(parsed.literals.size()), 24) ||
      !writer.Write(static_cast<std::uint32_t>(parsed.sequences.size()), 24) ||
      !WriteCodeLengths(writer, lit_code.lengths)) {
    return Rejected("zstd: output too small");
  }
  for (std::byte b : parsed.literals) {
    if (!lit_code.Encode(writer, static_cast<std::size_t>(b))) {
      return Rejected("zstd: output too small");
    }
  }
  std::size_t produced = 0;
  for (const Sequence& seq : parsed.sequences) {
    produced += seq.literal_run;
    if (!WriteLength(writer, seq.literal_run) ||
        !WriteLength(writer, seq.match_len - kMinMatch) ||
        !writer.Write(seq.offset, OffsetBits(produced))) {
      return Rejected("zstd: output too small");
    }
    produced += seq.match_len;
  }
  const std::size_t size = writer.Finish();
  if (size == 0) {
    return Rejected("zstd: output too small");
  }
  return size;
}

StatusOr<std::size_t> ZstdCompressor::Decompress(std::span<const std::byte> src,
                                                 std::span<std::byte> dst) const {
  BitReader reader(src);
  const std::uint32_t n_literals = reader.Read(24);
  const std::uint32_t n_sequences = reader.Read(24);
  std::uint8_t lengths[256];
  if (!ReadCodeLengths(reader, lengths)) {
    return Corruption("zstd: bad header");
  }
  HuffmanDecoder lit_dec;
  if (!lit_dec.Init(lengths)) {
    return Corruption("zstd: bad literal code");
  }
  // Every literal is copied to the output once, so a valid stream has no
  // more literals than output bytes.
  if (n_literals > dst.size()) {
    return Corruption("zstd: too many literals");
  }
  // 16 bytes of slack let CopyLiterals move short runs whole.
  thread_local std::vector<std::byte> literal_buffer;
  if (literal_buffer.size() < n_literals + 16) {
    literal_buffer.resize(n_literals + 16);
  }
  const std::span<std::byte> literals(literal_buffer.data(), n_literals);
  for (std::uint32_t i = 0; i < n_literals; ++i) {
    const int sym = lit_dec.Decode(reader);
    if (sym < 0) {
      return Corruption("zstd: bad literal");
    }
    literals[i] = static_cast<std::byte>(sym);
  }
  if (reader.exhausted()) {
    return Corruption("zstd: truncated literals");
  }

  std::byte* out = dst.data();
  std::byte* const out_end = out + dst.size();
  std::size_t lit_pos = 0;
  for (std::uint32_t s = 0; s < n_sequences; ++s) {
    const std::uint32_t run = ReadLength(reader);
    const std::uint32_t match_len = ReadLength(reader) + kMinMatch;
    const std::uint32_t offset =
        reader.Read(OffsetBits(static_cast<std::size_t>(out - dst.data()) + run));
    if (reader.exhausted() || lit_pos + run > literals.size() || out + run > out_end) {
      return Corruption("zstd: bad sequence");
    }
    CopyLiterals(out, literals.data() + lit_pos, run,
                 std::min<std::size_t>(literal_buffer.size() - lit_pos, out_end - out));
    lit_pos += run;
    out += run;
    if (offset == 0 || offset > static_cast<std::size_t>(out - dst.data()) ||
        out + match_len > out_end) {
      return Corruption("zstd: bad match");
    }
    CopyMatch(out, offset, match_len, out_end);
    out += match_len;
  }
  const std::size_t tail = literals.size() - lit_pos;
  if (out + tail != out_end) {
    return Corruption("zstd: short output");
  }
  std::memcpy(out, literals.data() + lit_pos, tail);
  return dst.size();
}

}  // namespace tierscape
