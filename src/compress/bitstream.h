// Bit-granular writer/reader used by the entropy-coded compressors
// (deflate-style and zstd-style). Bits are emitted LSB-first within bytes.
#ifndef SRC_COMPRESS_BITSTREAM_H_
#define SRC_COMPRESS_BITSTREAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace tierscape {

// Unaligned little-endian 64-bit load and store. GCC can warn about them
// (-Warray-bounds) where it inlines a bit stream over a buffer shorter than
// eight bytes, on branches that never run for such buffers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
inline std::uint64_t LoadLE64(const std::byte* p) {
  std::uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, p, sizeof(word));
  } else {
    for (int i = 0; i < 8; ++i) {
      word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
  }
  return word;
}

inline void StoreLE64(std::byte* p, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &word, sizeof(word));
  } else {
    for (int i = 0; i < 8; ++i) {
      p[i] = static_cast<std::byte>(word >> (8 * i));
    }
  }
}
#pragma GCC diagnostic pop

class BitWriter {
 public:
  explicit BitWriter(std::span<std::byte> out) : out_(out) {}

  // Writes the low `count` bits of `bits` (count <= 32). Returns false once
  // the output buffer is exhausted; the stream is then invalid.
  bool Write(std::uint32_t bits, int count) {
    acc_ |= static_cast<std::uint64_t>(bits & ((count == 32) ? 0xffffffffu
                                                             : ((1u << count) - 1u)))
            << filled_;
    filled_ += count;
    if (filled_ < 8) {
      return true;
    }
    if (out_.size() - pos_ >= 8) {
      // Room for a whole word: store all of acc_ and advance past the
      // complete bytes only; the rest is rewritten by later stores.
      StoreLE64(out_.data() + pos_, acc_);
      const int whole = filled_ >> 3;
      pos_ += static_cast<std::size_t>(whole);
      acc_ >>= 8 * whole;
      filled_ &= 7;
      return true;
    }
    while (filled_ >= 8) {
      if (pos_ >= out_.size()) {
        overflow_ = true;
        return false;
      }
      out_[pos_++] = static_cast<std::byte>(acc_ & 0xff);
      acc_ >>= 8;
      filled_ -= 8;
    }
    return true;
  }

  // Flushes any pending partial byte. Returns total bytes written, or 0 on
  // overflow.
  std::size_t Finish() {
    if (filled_ > 0) {
      if (pos_ >= out_.size()) {
        overflow_ = true;
      } else {
        out_[pos_++] = static_cast<std::byte>(acc_ & 0xff);
        acc_ = 0;
        filled_ = 0;
      }
    }
    return overflow_ ? 0 : pos_;
  }

  bool overflowed() const { return overflow_; }
  std::size_t bytes_written() const { return pos_; }

 private:
  std::span<std::byte> out_;
  std::uint64_t acc_ = 0;
  int filled_ = 0;
  std::size_t pos_ = 0;
  bool overflow_ = false;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> in) : in_(in) {}

  // Returns the next `count` bits (count <= 32) without consuming them. Bits
  // past the end of the input read as zeros.
  std::uint32_t Peek(int count) {
    if (filled_ < count) {
      Refill(count);
    }
    return static_cast<std::uint32_t>(acc_ & ((1ull << count) - 1));
  }

  // Consumes `count` bits (count <= 32). Consuming any bit past the end of the
  // input sets the exhausted flag.
  void Skip(int count) {
    if (filled_ < count) {
      Refill(count);
    }
    Consume(count);
  }

  // Reads `count` bits (count <= 32). Reading past the end returns zeros and
  // sets the exhausted flag (checked by callers at the end).
  std::uint32_t Read(int count) {
    const std::uint32_t value = Peek(count);
    Consume(count);
    return value;
  }

  bool exhausted() const { return exhausted_; }

 private:
  // Buffers at least `count` bits. With eight input bytes left, one load
  // tops the buffer up to 56+ bits; the bits it leaves above `filled_` are
  // the low bits of the next unread byte, so OR-ing that byte in later is
  // harmless. Near the end, whole bytes go in one at a time, zeros past it.
  void Refill(int count) {
    if (in_.size() - pos_ >= 8) {
      acc_ |= LoadLE64(in_.data() + pos_) << filled_;
      pos_ += static_cast<std::size_t>((63 - filled_) >> 3);
      filled_ |= 56;
      return;
    }
    while (filled_ < count) {
      if (pos_ < in_.size()) {
        acc_ |= static_cast<std::uint64_t>(in_[pos_++]) << filled_;
      } else {
        padding_ += 8;
      }
      filled_ += 8;
    }
  }

  // Drops `count` buffered bits (count <= filled_).
  void Consume(int count) {
    if (count > filled_ - padding_) {
      exhausted_ = true;
      padding_ = filled_ - count;
    }
    acc_ >>= count;
    filled_ -= count;
  }

  std::span<const std::byte> in_;
  std::uint64_t acc_ = 0;
  int filled_ = 0;   // buffered bits, the low bits of acc_
  int padding_ = 0;  // how many of the buffered bits lie past the end (the top ones)
  std::size_t pos_ = 0;
  bool exhausted_ = false;
};

}  // namespace tierscape

#endif  // SRC_COMPRESS_BITSTREAM_H_
