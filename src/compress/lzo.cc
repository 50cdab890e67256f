#include "src/compress/lzo.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/compress/lz_match.h"

namespace tierscape {
namespace {

constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;
constexpr int kMaxChain = 8;

constexpr unsigned kLiteralTag = 0x00;
constexpr unsigned kMatchTag = 0x40;
constexpr unsigned kRunTag = 0x80;
constexpr unsigned kFieldMax = 63;  // 6-bit field; 63 means "extended"

inline std::uint32_t Hash3(const std::byte* p) {
  const std::uint32_t v = (static_cast<std::uint32_t>(p[0]) << 16) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          static_cast<std::uint32_t>(p[2]);
  return (v * 506832829u) >> (32 - kHashBits);
}

class ByteWriter {
 public:
  explicit ByteWriter(std::span<std::byte> dst) : dst_(dst) {}

  bool Put(unsigned byte) {
    if (pos_ >= dst_.size()) {
      return false;
    }
    dst_[pos_++] = static_cast<std::byte>(byte);
    return true;
  }

  bool PutBytes(const std::byte* data, std::size_t len) {
    if (pos_ + len > dst_.size()) {
      return false;
    }
    std::memcpy(&dst_[pos_], data, len);
    pos_ += len;
    return true;
  }

  // Emits a token with a 6-bit field; values beyond the field maximum are
  // carried in 255-terminated extension bytes.
  bool PutToken(unsigned tag, std::size_t field_value) {
    if (field_value < kFieldMax) {
      return Put(tag | static_cast<unsigned>(field_value));
    }
    if (!Put(tag | kFieldMax)) {
      return false;
    }
    std::size_t rest = field_value - kFieldMax;
    while (rest >= 255) {
      if (!Put(255)) {
        return false;
      }
      rest -= 255;
    }
    return Put(static_cast<unsigned>(rest));
  }

  std::size_t size() const { return pos_; }

 private:
  std::span<std::byte> dst_;
  std::size_t pos_ = 0;
};

// Reads a 6-bit field plus 255-terminated extensions. Returns false on a
// truncated stream.
bool ReadField(const std::byte*& in, const std::byte* in_end, unsigned token,
               std::size_t& value) {
  value = token & kFieldMax;
  if (value != kFieldMax) {
    return true;
  }
  unsigned b = 0;
  do {
    if (in >= in_end) {
      return false;
    }
    b = static_cast<unsigned>(*in++);
    value += b;
  } while (b == 255);
  return true;
}

StatusOr<std::size_t> CompressImpl(std::span<const std::byte> src, std::span<std::byte> dst,
                                   bool rle) {
  const std::byte* const base = src.data();
  const std::byte* const end = base + src.size();
  ByteWriter out(dst);

  std::int32_t head[1 << kHashBits];
  std::memset(head, -1, sizeof(head));
  std::int32_t* const chain = ChainScratch(src.size());
  auto insert = [&](const std::byte* at) {
    const std::uint32_t h = Hash3(at);
    const auto ipos = static_cast<std::int32_t>(at - base);
    chain[ipos] = head[h];
    head[h] = ipos;
  };

  const std::byte* anchor = base;
  const std::byte* p = base;
  const std::byte* const find_limit = src.size() >= kMinMatch ? end - kMinMatch : base;

  auto flush_literals = [&](const std::byte* upto) -> bool {
    if (upto > anchor) {
      const auto len = static_cast<std::size_t>(upto - anchor);
      if (!out.PutToken(kLiteralTag, len) || !out.PutBytes(anchor, len)) {
        return false;
      }
      anchor = upto;
    }
    return true;
  };

  while (p < find_limit) {
    const auto limit = static_cast<std::size_t>(end - p);
    // RLE fast path: a run of >= 4 identical bytes (at most 2^20), measured
    // as how far the input matches itself shifted by one byte.
    if (rle) {
      const std::size_t run = 1 + CommonPrefix(p + 1, p, std::min(limit, std::size_t{1} << 20) - 1);
      if (run >= 4) {
        if (!flush_literals(p) || !out.PutToken(kRunTag, run - 4) ||
            !out.Put(static_cast<unsigned>(*p))) {
          return Rejected("lzo: output too small");
        }
        p += run;
        anchor = p;
        continue;
      }
    }
    // Hash-chain match finder (bounded depth, greedy) — a better parse than
    // lz4's single probe is what gives lzo its slightly denser output.
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    int depth = kMaxChain;
    for (std::int32_t cand = head[Hash3(p)]; cand >= 0 && depth-- > 0; cand = chain[cand]) {
      const std::byte* cp = base + cand;
      if (static_cast<std::size_t>(p - cp) > kMaxOffset) {
        break;
      }
      // A candidate that differs at best_len cannot be strictly longer.
      if (cp[best_len] != p[best_len]) {
        continue;
      }
      const std::size_t len = CommonPrefix(cp, p, limit);
      if (len > best_len) {
        best_len = len;
        best_off = static_cast<std::size_t>(p - cp);
        if (best_len == limit) {
          break;  // no candidate can match past the end of the input
        }
      }
    }
    if (best_len >= kMinMatch) {
      if (!flush_literals(p) || !out.PutToken(kMatchTag, best_len - kMinMatch) ||
          !out.Put(static_cast<unsigned>(best_off & 0xff)) ||
          !out.Put(static_cast<unsigned>(best_off >> 8))) {
        return Rejected("lzo: output too small");
      }
      const std::byte* const match_end = p + best_len;
      for (; p < match_end && p < find_limit; ++p) {
        insert(p);
      }
      p = match_end;
      anchor = p;
      continue;
    }
    insert(p);
    ++p;
  }
  if (!flush_literals(end)) {
    return Rejected("lzo: output too small");
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
    const unsigned tag = token & 0xc0;
    std::size_t field = 0;
    if (!ReadField(in, in_end, token, field)) {
      return Corruption("lzo: truncated length");
    }
    if (tag == kLiteralTag) {
      const std::size_t len = field;
      if (len == 0 || in + len > in_end || out + len > out_end) {
        return Corruption("lzo: literal overrun");
      }
      CopyLiterals(out, in, len,
                   std::min<std::size_t>(in_end - in, out_end - out));
      in += len;
      out += len;
    } else if (tag == kMatchTag) {
      const std::size_t len = field + kMinMatch;
      if (in + 2 > in_end) {
        return Corruption("lzo: truncated offset");
      }
      const std::size_t offset =
          static_cast<std::size_t>(static_cast<unsigned>(in[0])) |
          (static_cast<std::size_t>(static_cast<unsigned>(in[1])) << 8);
      in += 2;
      if (offset == 0 || offset > static_cast<std::size_t>(out - dst.data()) ||
          out + len > out_end) {
        return Corruption("lzo: bad match");
      }
      CopyMatch(out, offset, len, out_end);
      out += len;
    } else if (tag == kRunTag) {
      const std::size_t len = field + 4;
      if (in >= in_end || out + len > out_end) {
        return Corruption("lzo: run overrun");
      }
      const std::byte value = *in++;
      std::memset(out, static_cast<int>(value), len);
      out += len;
    } else {
      return Corruption("lzo: bad token");
    }
  }
  if (out != out_end) {
    return Corruption("lzo: short output");
  }
  return dst.size();
}

}  // namespace

StatusOr<std::size_t> LzoCompressor::Compress(std::span<const std::byte> src,
                                              std::span<std::byte> dst) const {
  return CompressImpl(src, dst, /*rle=*/false);
}

StatusOr<std::size_t> LzoCompressor::Decompress(std::span<const std::byte> src,
                                                std::span<std::byte> dst) const {
  return DecompressImpl(src, dst);
}

StatusOr<std::size_t> LzoRleCompressor::Compress(std::span<const std::byte> src,
                                                 std::span<std::byte> dst) const {
  return CompressImpl(src, dst, /*rle=*/true);
}

StatusOr<std::size_t> LzoRleCompressor::Decompress(std::span<const std::byte> src,
                                                   std::span<std::byte> dst) const {
  return DecompressImpl(src, dst);
}

}  // namespace tierscape
