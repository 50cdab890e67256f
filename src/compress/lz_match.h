// Kernels shared by the LZ77 compressors: word-at-a-time match extension,
// per-thread hash-chain scratch, and match copying for the decoders.
#ifndef SRC_COMPRESS_LZ_MATCH_H_
#define SRC_COMPRESS_LZ_MATCH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/compress/bitstream.h"

namespace tierscape {

// Length of the common prefix of a[0, limit) and b[0, limit), compared eight
// bytes at a time. Both ranges must be readable.
inline std::size_t CommonPrefix(const std::byte* a, const std::byte* b, std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    // Little-endian words put the first differing byte at the lowest set bit.
    if (const std::uint64_t diff = LoadLE64(a + len) ^ LoadLE64(b + len); diff != 0) {
      return len + static_cast<std::size_t>(std::countr_zero(diff) >> 3);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// Hash-chain links for an input of `n` bytes, reused by every parse on the
// calling thread. The entries are not cleared: a parser writes chain[p] when
// it inserts position p, and only follows links out of inserted positions.
inline std::int32_t* ChainScratch(std::size_t n) {
  thread_local std::vector<std::int32_t> chain;
  if (chain.size() < n) {
    chain.resize(n);
  }
  return chain.data();
}

// Appends the `len` bytes that start `offset` bytes before `out`, in a buffer
// that ends at `out_end` (out + len <= out_end). Overlapping matches
// (offset < len) replicate forward, as a byte-by-byte copy does. Matches with
// offset >= 8 move in 8-byte chunks that may write up to 7 bytes past
// out + len, if the buffer has room; later output overwrites those bytes.
inline void CopyMatch(std::byte* out, std::size_t offset, std::size_t len,
                      const std::byte* out_end) {
  const std::byte* from = out - offset;
  if (offset >= 8 && static_cast<std::size_t>(out_end - out) >= len + 7) {
    for (std::size_t i = 0; i < len; i += 8) {
      std::memcpy(out + i, from + i, 8);
    }
    return;
  }
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = from[i];
  }
}

// Copies `len` bytes from `in` to `out` (separate buffers). If both have at
// least 16 bytes left (`room`), a short copy moves 16 bytes whole, which is
// cheaper than a variable-length copy; later output overwrites the bytes past
// out + len.
inline void CopyLiterals(std::byte* out, const std::byte* in, std::size_t len, std::size_t room) {
  if (len <= 16 && room >= 16) {
    std::memcpy(out, in, 16);
  } else {
    std::memcpy(out, in, len);
  }
}

}  // namespace tierscape

#endif  // SRC_COMPRESS_LZ_MATCH_H_
