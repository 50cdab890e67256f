// Canonical, length-limited Huffman coding used by the deflate-style and
// zstd-style compressors.
//
// Codes are emitted most-significant-bit first into the LSB-first BitWriter
// (the encoder stores pre-reversed code words). The decoder resolves codes of
// up to kTableBits bits with one table lookup and walks the canonical
// first-code table, like a classic DEFLATE implementation, for longer ones.
#ifndef SRC_COMPRESS_HUFFMAN_H_
#define SRC_COMPRESS_HUFFMAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/compress/bitstream.h"

namespace tierscape {

inline constexpr int kMaxHuffmanBits = 15;

// Per-symbol canonical code description. Symbols with zero frequency have
// length 0 and no code.
struct HuffmanCode {
  std::vector<std::uint8_t> lengths;          // code length per symbol (0 = unused)
  std::vector<std::uint16_t> reversed_codes;  // code word, bit-reversed for LSB-first emission

  bool Encode(BitWriter& writer, std::size_t symbol) const {
    return writer.Write(reversed_codes[symbol], lengths[symbol]);
  }
};

// Builds a length-limited canonical Huffman code from symbol frequencies.
// Guarantees max code length <= max_bits and a complete/undersubscribed Kraft
// sum. If fewer than two symbols are used, the used symbol gets a 1-bit code.
HuffmanCode BuildHuffmanCode(std::span<const std::uint32_t> freqs, int max_bits);

// Canonical decoder built from code lengths (must match the encoder's).
class HuffmanDecoder {
 public:
  // Returns false if the lengths do not describe a decodable code.
  bool Init(std::span<const std::uint8_t> lengths);

  // Decodes one symbol; returns -1 on malformed input, after consuming
  // kMaxHuffmanBits bits.
  int Decode(BitReader& reader) const {
    const std::uint32_t window = reader.Peek(kMaxHuffmanBits);
    const TableEntry entry = table_[window & ((1u << kTableBits) - 1)];
    if (entry.length == 0) {
      return DecodeLong(reader, window);
    }
    reader.Skip(entry.length);
    return entry.symbol;
  }

 private:
  static constexpr int kTableBits = 10;
  struct TableEntry {
    std::uint16_t symbol = 0;
    std::uint8_t length = 0;  // 0: no code of <= kTableBits bits starts here
  };

  // Decode for windows the table does not resolve.
  int DecodeLong(BitReader& reader, std::uint32_t window) const;

  TableEntry table_[1 << kTableBits];  // indexed by the next kTableBits stream bits
  std::uint16_t first_code_[kMaxHuffmanBits + 1] = {};
  std::uint16_t count_[kMaxHuffmanBits + 1] = {};
  std::uint16_t offset_[kMaxHuffmanBits + 1] = {};
  std::vector<std::uint16_t> symbols_;  // symbols ordered by (length, symbol)
};

}  // namespace tierscape

#endif  // SRC_COMPRESS_HUFFMAN_H_
