#include "src/compress/lz4.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/compress/lz_match.h"

namespace tierscape {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kLastLiterals = 5;   // final bytes must be literals
constexpr std::size_t kMatchFindLimit = 12;  // no match may start after size-12
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;

inline std::uint32_t Load32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t Hash4(std::uint32_t sequence) {
  return (sequence * 2654435761u) >> (32 - kHashBits);
}

class SequenceEmitter {
 public:
  explicit SequenceEmitter(std::span<std::byte> dst) : dst_(dst) {}

  // Emits one sequence: `lit_len` literals starting at `lits`, then a match of
  // `match_len` (>= kMinMatch) at `offset`. A match_len of 0 emits a final
  // literal-only sequence.
  bool Emit(const std::byte* lits, std::size_t lit_len, std::size_t offset,
            std::size_t match_len) {
    const std::size_t ml_code = match_len == 0 ? 0 : match_len - kMinMatch;
    // Worst case: token + lit extensions + literals + offset + match extensions.
    const std::size_t worst =
        1 + lit_len / 255 + 1 + lit_len + 2 + ml_code / 255 + 1;
    if (pos_ + worst > dst_.size()) {
      return false;
    }
    std::byte* token = &dst_[pos_++];
    // Literal length.
    if (lit_len >= 15) {
      *token = static_cast<std::byte>(15 << 4);
      std::size_t rest = lit_len - 15;
      while (rest >= 255) {
        dst_[pos_++] = static_cast<std::byte>(255);
        rest -= 255;
      }
      dst_[pos_++] = static_cast<std::byte>(rest);
    } else {
      *token = static_cast<std::byte>(lit_len << 4);
    }
    std::memcpy(&dst_[pos_], lits, lit_len);
    pos_ += lit_len;
    if (match_len == 0) {
      return true;  // final literal-only sequence
    }
    // Offset (little endian).
    dst_[pos_++] = static_cast<std::byte>(offset & 0xff);
    dst_[pos_++] = static_cast<std::byte>(offset >> 8);
    // Match length.
    if (ml_code >= 15) {
      *token |= static_cast<std::byte>(15);
      std::size_t rest = ml_code - 15;
      while (rest >= 255) {
        dst_[pos_++] = static_cast<std::byte>(255);
        rest -= 255;
      }
      dst_[pos_++] = static_cast<std::byte>(rest);
    } else {
      *token |= static_cast<std::byte>(ml_code);
    }
    return true;
  }

  std::size_t size() const { return pos_; }

 private:
  std::span<std::byte> dst_;
  std::size_t pos_ = 0;
};

StatusOr<std::size_t> CompressGeneric(std::span<const std::byte> src, std::span<std::byte> dst,
                                      bool high_compression, int search_depth) {
  const std::byte* const base = src.data();
  const std::byte* const end = base + src.size();
  SequenceEmitter out(dst);

  if (src.size() < kMatchFindLimit + 1) {
    // Too small for any match: single literal run.
    if (!out.Emit(base, src.size(), 0, 0)) {
      return Rejected("lz4: output too small");
    }
    return out.size();
  }

  const std::byte* const match_limit = end - kLastLiterals;
  const std::byte* const find_limit = end - kMatchFindLimit;

  // Fast path: single-slot hash table. HC path: hash heads + chain links.
  std::int32_t head[1 << kHashBits];
  std::memset(head, -1, sizeof(head));
  std::int32_t* const chain = high_compression ? ChainScratch(src.size()) : nullptr;

  auto insert = [&](const std::byte* p) {
    const std::uint32_t h = Hash4(Load32(p));
    const auto pos = static_cast<std::int32_t>(p - base);
    if (high_compression) {
      chain[pos] = head[h];
    }
    head[h] = pos;
  };

  // Finds the best match for `p`; returns length (0 if none) and offset.
  auto find_match = [&](const std::byte* p, std::size_t& best_off) -> std::size_t {
    const auto limit = static_cast<std::size_t>(match_limit - p);
    std::size_t best_len = 0;
    int depth = high_compression ? search_depth : 1;
    for (std::int32_t cand = head[Hash4(Load32(p))]; cand >= 0 && depth-- > 0;
         cand = high_compression ? chain[cand] : -1) {
      const std::byte* cp = base + cand;
      // A candidate that differs at best_len cannot be strictly longer.
      if (static_cast<std::size_t>(p - cp) > kMaxOffset || cp[best_len] != p[best_len] ||
          Load32(cp) != Load32(p)) {
        continue;
      }
      const std::size_t len = CommonPrefix(p, cp, limit);
      if (len >= kMinMatch && len > best_len) {
        best_len = len;
        best_off = static_cast<std::size_t>(p - cp);
        if (best_len == limit) {
          break;  // no candidate can match past match_limit
        }
      }
    }
    return best_len;
  };

  const std::byte* anchor = base;
  const std::byte* p = base;
  while (p < find_limit) {
    std::size_t offset = 0;
    const std::size_t len = find_match(p, offset);
    if (len == 0) {
      insert(p);
      ++p;
      continue;
    }
    if (!out.Emit(anchor, static_cast<std::size_t>(p - anchor), offset, len)) {
      return Rejected("lz4: output too small");
    }
    // Index positions inside the match so later data can reference them. The
    // fast path indexes sparsely (matching the reference's stride behaviour);
    // HC indexes every position.
    const std::byte* match_end = p + len;
    if (high_compression) {
      while (p < match_end && p < find_limit) {
        insert(p);
        ++p;
      }
      p = match_end;
    } else {
      insert(p);
      if (p + len / 2 < find_limit) {
        insert(p + len / 2);
      }
      p = match_end;
    }
    anchor = p;
  }
  // Final literals.
  if (!out.Emit(anchor, static_cast<std::size_t>(end - anchor), 0, 0)) {
    return Rejected("lz4: output too small");
  }
  return out.size();
}

StatusOr<std::size_t> DecompressImpl(std::span<const std::byte> src, std::span<std::byte> dst) {
  const std::byte* in = src.data();
  const std::byte* const in_end = in + src.size();
  std::byte* out = dst.data();
  std::byte* const out_end = out + dst.size();

  while (in < in_end) {
    const auto token = static_cast<unsigned>(*in++);
    // Literal length.
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) {
      unsigned b = 0;
      do {
        if (in >= in_end) {
          return Corruption("lz4: truncated literal length");
        }
        b = static_cast<unsigned>(*in++);
        lit_len += b;
      } while (b == 255);
    }
    if (in + lit_len > in_end || out + lit_len > out_end) {
      return Corruption("lz4: literal overrun");
    }
    CopyLiterals(out, in, lit_len,
                 std::min<std::size_t>(in_end - in, out_end - out));
    in += lit_len;
    out += lit_len;
    if (in >= in_end) {
      break;  // final literal-only sequence
    }
    // Offset.
    if (in + 2 > in_end) {
      return Corruption("lz4: truncated offset");
    }
    const std::size_t offset =
        static_cast<std::size_t>(static_cast<unsigned>(in[0])) |
        (static_cast<std::size_t>(static_cast<unsigned>(in[1])) << 8);
    in += 2;
    if (offset == 0 || offset > static_cast<std::size_t>(out - dst.data())) {
      return Corruption("lz4: bad offset");
    }
    // Match length.
    std::size_t match_len = (token & 0xf) + kMinMatch;
    if ((token & 0xf) == 15) {
      unsigned b = 0;
      do {
        if (in >= in_end) {
          return Corruption("lz4: truncated match length");
        }
        b = static_cast<unsigned>(*in++);
        match_len += b;
      } while (b == 255);
    }
    if (out + match_len > out_end) {
      return Corruption("lz4: match overrun");
    }
    // Overlapping matches (offset < match_len) are the RLE idiom and must
    // replicate forward.
    CopyMatch(out, offset, match_len, out_end);
    out += match_len;
  }
  if (out != out_end) {
    return Corruption("lz4: short output");
  }
  return dst.size();
}

}  // namespace

StatusOr<std::size_t> Lz4Compressor::Compress(std::span<const std::byte> src,
                                              std::span<std::byte> dst) const {
  return CompressGeneric(src, dst, /*high_compression=*/false, /*search_depth=*/1);
}

StatusOr<std::size_t> Lz4Compressor::Decompress(std::span<const std::byte> src,
                                                std::span<std::byte> dst) const {
  return DecompressImpl(src, dst);
}

StatusOr<std::size_t> Lz4HcCompressor::Compress(std::span<const std::byte> src,
                                                std::span<std::byte> dst) const {
  return CompressGeneric(src, dst, /*high_compression=*/true, /*search_depth=*/64);
}

StatusOr<std::size_t> Lz4HcCompressor::Decompress(std::span<const std::byte> src,
                                                  std::span<std::byte> dst) const {
  return DecompressImpl(src, dst);
}

}  // namespace tierscape
