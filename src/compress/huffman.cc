#include "src/compress/huffman.h"

#include <algorithm>
#include <array>
#include <cstdint>

namespace tierscape {
namespace {

// The low `bits` bits of `value`, in reverse order.
std::uint16_t ReverseBits(std::uint16_t value, int bits) {
  static constexpr auto kReversedBytes = [] {
    std::array<std::uint8_t, 256> table{};
    for (int b = 0; b < 256; ++b) {
      for (int i = 0; i < 8; ++i) {
        table[b] |= static_cast<std::uint8_t>(((b >> i) & 1) << (7 - i));
      }
    }
    return table;
  }();
  const unsigned reversed = (kReversedBytes[value & 0xff] << 8) | kReversedBytes[value >> 8];
  return static_cast<std::uint16_t>(reversed >> (16 - bits));
}

// Computes unlimited Huffman code lengths. Each merge takes the two smallest
// nodes by (frequency, index), where leaves are indexed by symbol and internal
// nodes by n, n+1, ... in creation order. Internal nodes are created with
// non-decreasing frequencies, so the used leaves sorted by that key plus a
// FIFO of internal nodes yield the same merge order as a heap would.
std::vector<std::uint8_t> TreeLengths(std::span<const std::uint32_t> freqs) {
  const int n = static_cast<int>(freqs.size());
  std::vector<std::uint8_t> lengths(n, 0);
  std::vector<std::uint64_t> leaves;  // (frequency << 32) | symbol, sorted
  for (int i = 0; i < n; ++i) {
    if (freqs[i] > 0) {
      leaves.push_back((static_cast<std::uint64_t>(freqs[i]) << 32) | static_cast<unsigned>(i));
    }
  }
  const int used = static_cast<int>(leaves.size());
  if (used == 0) {
    return lengths;
  }
  if (used == 1) {
    // A lone symbol still needs one bit so the stream is self-terminating.
    lengths[static_cast<std::uint32_t>(leaves[0])] = 1;
    return lengths;
  }
  std::sort(leaves.begin(), leaves.end());
  std::vector<std::uint64_t> internal_freq(used - 1);
  std::vector<int> parent(n + used - 1, -1);  // by node index
  int next_leaf = 0;
  int next_internal = 0;
  // Pops the smallest node among the leaves left and the `created` internal
  // nodes; on equal frequencies the leaf has the lower index.
  auto pop = [&](int created, std::uint64_t& freq) -> int {
    if (next_leaf < used &&
        (next_internal == created || (leaves[next_leaf] >> 32) <= internal_freq[next_internal])) {
      freq = leaves[next_leaf] >> 32;
      return static_cast<std::uint32_t>(leaves[next_leaf++]);
    }
    freq = internal_freq[next_internal];
    return n + next_internal++;
  };
  for (int k = 0; k < used - 1; ++k) {
    std::uint64_t freq_a = 0;
    std::uint64_t freq_b = 0;
    const int a = pop(k, freq_a);
    const int b = pop(k, freq_b);
    internal_freq[k] = freq_a + freq_b;
    parent[a] = n + k;
    parent[b] = n + k;
  }
  // Parents are created after their children, so depths fill in from the
  // root (the last node) down.
  std::vector<int> depth(n + used - 1, 0);
  for (int node = n + used - 3; node >= n; --node) {
    depth[node] = depth[parent[node]] + 1;
  }
  for (int i = 0; i < n; ++i) {
    if (freqs[i] > 0) {
      lengths[i] = static_cast<std::uint8_t>(depth[parent[i]] + 1);
    }
  }
  return lengths;
}

}  // namespace

HuffmanCode BuildHuffmanCode(std::span<const std::uint32_t> freqs, int max_bits) {
  HuffmanCode code;
  code.lengths = TreeLengths(freqs);
  code.reversed_codes.assign(freqs.size(), 0);

  // Length-limit: clamp, then restore the Kraft inequality by deepening the
  // shallowest over-contributing leaves.
  bool clamped = false;
  for (auto& len : code.lengths) {
    if (len > max_bits) {
      len = static_cast<std::uint8_t>(max_bits);
      clamped = true;
    }
  }
  if (clamped) {
    std::uint64_t kraft = 0;  // in units of 2^-max_bits
    for (auto len : code.lengths) {
      if (len > 0) {
        kraft += 1ULL << (max_bits - len);
      }
    }
    const std::uint64_t full = 1ULL << max_bits;
    while (kraft > full) {
      // Deepen the longest code below max_bits (costs the least), the lowest
      // symbol first. Once deepened it is the longest, so it stays the one
      // to deepen until it reaches max_bits or the sum fits.
      int best = -1;
      for (std::size_t i = 0; i < code.lengths.size(); ++i) {
        if (code.lengths[i] > 0 && code.lengths[i] < max_bits) {
          if (best < 0 || code.lengths[i] > code.lengths[best]) {
            best = static_cast<int>(i);
          }
        }
      }
      if (best < 0) {
        break;  // cannot happen for valid inputs
      }
      while (kraft > full && code.lengths[best] < max_bits) {
        kraft -= 1ULL << (max_bits - code.lengths[best] - 1);
        ++code.lengths[best];
      }
    }
  }

  // Canonical code assignment: symbols sorted by (length, symbol index).
  std::uint16_t length_count[kMaxHuffmanBits + 1] = {};
  for (auto len : code.lengths) {
    ++length_count[len];
  }
  length_count[0] = 0;
  std::uint16_t next_code[kMaxHuffmanBits + 1] = {};
  std::uint16_t c = 0;
  for (int bits = 1; bits <= max_bits; ++bits) {
    c = static_cast<std::uint16_t>((c + length_count[bits - 1]) << 1);
    next_code[bits] = c;
  }
  for (std::size_t i = 0; i < code.lengths.size(); ++i) {
    const int len = code.lengths[i];
    if (len > 0) {
      code.reversed_codes[i] = ReverseBits(next_code[len]++, len);
    }
  }
  return code;
}

bool HuffmanDecoder::Init(std::span<const std::uint8_t> lengths) {
  std::fill(std::begin(first_code_), std::end(first_code_), 0);
  std::fill(std::begin(count_), std::end(count_), 0);
  std::fill(std::begin(offset_), std::end(offset_), 0);
  std::fill(std::begin(table_), std::end(table_), TableEntry{});
  symbols_.clear();

  for (auto len : lengths) {
    if (len > kMaxHuffmanBits) {
      return false;
    }
    if (len > 0) {
      ++count_[len];
    }
  }
  // Kraft check: must not be oversubscribed.
  std::uint64_t kraft = 0;
  for (int bits = 1; bits <= kMaxHuffmanBits; ++bits) {
    kraft += static_cast<std::uint64_t>(count_[bits]) << (kMaxHuffmanBits - bits);
  }
  if (kraft > (1ULL << kMaxHuffmanBits)) {
    return false;
  }

  std::uint16_t code = 0;
  std::uint16_t offset = 0;
  for (int bits = 1; bits <= kMaxHuffmanBits; ++bits) {
    code = static_cast<std::uint16_t>((code + count_[bits - 1]) << 1);
    first_code_[bits] = code;
    offset_[bits] = offset;
    offset = static_cast<std::uint16_t>(offset + count_[bits]);
  }
  symbols_.resize(offset);
  std::uint16_t fill[kMaxHuffmanBits + 1] = {};
  for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
    const int len = lengths[sym];
    if (len == 0) {
      continue;
    }
    const std::uint16_t rank = fill[len]++;
    symbols_[offset_[len] + rank] = static_cast<std::uint16_t>(sym);
    if (len <= kTableBits) {
      // The stream carries the code MSB first, so a window whose low `len`
      // bits are the reversed code starts with this symbol.
      const TableEntry entry{.symbol = static_cast<std::uint16_t>(sym),
                             .length = static_cast<std::uint8_t>(len)};
      const std::uint16_t reversed =
          ReverseBits(static_cast<std::uint16_t>(first_code_[len] + rank), len);
      for (std::uint32_t i = reversed; i < (1u << kTableBits); i += 1u << len) {
        table_[i] = entry;
      }
    }
  }
  return true;
}

int HuffmanDecoder::DecodeLong(BitReader& reader, std::uint32_t window) const {
  // No code of kTableBits or fewer bits starts the window: walk the longer
  // lengths canonically, one window bit at a time.
  std::uint32_t code = 0;
  for (int bits = 1; bits <= kMaxHuffmanBits; ++bits) {
    code = (code << 1) | ((window >> (bits - 1)) & 1);
    if (bits > kTableBits && code - first_code_[bits] < std::uint32_t{count_[bits]}) {
      reader.Skip(bits);
      return symbols_[offset_[bits] + (code - first_code_[bits])];
    }
  }
  reader.Skip(kMaxHuffmanBits);
  return -1;
}

}  // namespace tierscape
