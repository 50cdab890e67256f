#include "src/compress/corpus.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>

#include "src/common/rng.h"

namespace tierscape {
namespace {

class PageBuilder {
 public:
  explicit PageBuilder(std::span<std::byte> out) : out_(out) {}

  bool full() const { return pos_ >= out_.size(); }

  void Append(std::string_view text) {
    const std::size_t n = std::min(text.size(), out_.size() - pos_);
    std::memcpy(out_.data() + pos_, text.data(), n);
    pos_ += n;
  }

  // Appends the first `size` bytes of the N-byte `block`. With room for the
  // whole block it is copied whole, which is cheaper than a variable-length
  // copy. The bytes past `size` are overwritten by later appends, since every
  // filler appends until the page is full.
  template <std::size_t N>
  void AppendBlock(const char* block, std::size_t size) {
    if (out_.size() - pos_ >= N) {
      std::memcpy(out_.data() + pos_, block, N);
      pos_ += size;
    } else {
      Append(std::string_view(block, size));
    }
  }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

// `nci`-like: fixed-schema records over a tiny symbol alphabet with heavily
// repeated field values — compresses to ~10-20% like the real nci data set.
void FillNci(Rng& rng, std::span<std::byte> out) {
  static constexpr char kAtoms[] = {'C', 'N', 'O', 'H', 'S', 'P'};
  static constexpr std::string_view kBonds[] = {"1", "2", "ar"};
  PageBuilder page(out);
  while (!page.full()) {
    page.Append("@<MOL> ");
    const int n_atoms = 4 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < n_atoms && !page.full(); ++i) {
      // One "A x.x00 y.y00 0.0000" line, coordinates quantized to a coarse
      // grid: few distinct substrings. The fields are drawn last to first:
      // the draws used to be printf arguments, which GCC evaluates right to
      // left, and keeping that order keeps every page (and so every figure)
      // as it was, now on any compiler.
      const char y_frac = rng.NextBelow(2) == 0 ? '0' : '5';
      const char y_int = static_cast<char>('0' + rng.NextBelow(4));
      const char x_frac = rng.NextBelow(2) == 0 ? '0' : '5';
      const char x_int = static_cast<char>('0' + rng.NextBelow(4));
      const char atom = kAtoms[rng.NextBelow(6)];
      const char line[24] = {atom, ' ', x_int, '.', x_frac, '0', '0', ' ', y_int, '.', y_frac,
                             '0',  '0', ' ',   '0', '.',    '0', '0', '0', '0', '\n'};
      page.AppendBlock<sizeof(line)>(line, 21);
    }
    page.Append("BOND ");
    page.Append(kBonds[rng.NextBelow(3)]);
    page.Append("\n@</MOL>\n");
  }
}

// `dickens`-like: word stream from a zipf-weighted vocabulary with simple
// sentence structure — compresses to ~35-50% with entropy-coded LZ, ~60-70%
// with byte-aligned LZ, matching English prose behaviour.
void FillDickens(Rng& rng, std::span<std::byte> out) {
  // One zero-padded 16-byte block per word, for PageBuilder::AppendBlock.
  static constexpr char kWords[][16] = {
      "the",     "of",      "and",     "a",        "to",       "in",      "he",
      "was",     "that",    "it",      "his",      "her",      "with",    "as",
      "had",     "for",     "at",      "not",      "on",       "but",     "be",
      "which",   "him",     "said",    "from",     "she",      "this",    "all",
      "were",    "by",      "have",    "my",       "mr",       "little",  "so",
      "you",     "one",     "there",   "been",     "no",       "when",    "out",
      "what",    "old",     "up",      "would",    "time",     "very",    "more",
      "could",   "into",    "now",     "some",     "man",      "who",     "them",
      "they",    "like",    "upon",    "will",     "then",     "its",     "about",
      "me",      "door",    "hand",    "night",    "before",   "house",   "good",
      "down",    "come",    "again",   "face",     "over",     "such",    "might",
      "looking", "through", "nothing", "away",     "day",      "never",   "first",
      "dear",    "made",    "being",   "himself",  "gentleman", "returned", "great",
      "young",   "quite",   "long",    "looked",   "head",     "way",      "know",
      "well",    "much",    "where",   "after",    "round",    "eyes",     "any"};
  constexpr std::size_t kVocab = sizeof(kWords) / sizeof(kWords[0]);
  static constexpr auto kWordSizes = [] {
    std::array<std::size_t, kVocab> sizes{};
    for (std::size_t i = 0; i < kVocab; ++i) {
      sizes[i] = std::string_view(kWords[i]).size();
    }
    return sizes;
  }();
  static constexpr char kSpace[16] = " ";
  static constexpr char kStop[16] = ". ";
  PageBuilder page(out);
  int words_in_sentence = 0;
  while (!page.full()) {
    // Zipf-ish rank selection: square a uniform to bias toward low ranks.
    const double u = rng.NextDouble();
    const auto drawn = static_cast<std::size_t>(u * u * static_cast<double>(kVocab));
    const std::size_t rank = drawn < kVocab ? drawn : kVocab - 1;
    page.AppendBlock<16>(kWords[rank], kWordSizes[rank]);
    ++words_in_sentence;
    if (words_in_sentence > 6 && rng.NextBelow(5) == 0) {
      page.AppendBlock<16>(kStop, 2);
      words_in_sentence = 0;
    } else {
      page.AppendBlock<16>(kSpace, 1);
    }
  }
}

// Binary records: 32-byte structs with constant magic, small-domain enums,
// monotonic ids, and one random payload word — typical in-memory object data.
void FillBinary(Rng& rng, std::span<std::byte> out) {
  PageBuilder page(out);
  std::uint64_t id = rng.Next() & 0xffffff;
  while (!page.full()) {
    struct Record {
      std::uint32_t magic;
      std::uint32_t type;
      std::uint64_t id;
      std::uint64_t payload;
      std::uint64_t flags;
    } rec;
    rec.magic = 0xfeedc0de;
    rec.type = static_cast<std::uint32_t>(rng.NextBelow(4));
    rec.id = id++;
    rec.payload = rng.Next();
    rec.flags = rec.type == 0 ? 0 : 0x1;
    page.Append(std::string_view(reinterpret_cast<const char*>(&rec), sizeof(rec)));
  }
}

void FillRandom(Rng& rng, std::span<std::byte> out) {
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    const std::uint64_t v = rng.Next();
    std::memcpy(out.data() + i, &v, 8);
    i += 8;
  }
  while (i < out.size()) {
    out[i] = static_cast<std::byte>(rng.Next() & 0xff);
    ++i;
  }
}

}  // namespace

std::string_view CorpusProfileName(CorpusProfile profile) {
  switch (profile) {
    case CorpusProfile::kNci:
      return "nci";
    case CorpusProfile::kDickens:
      return "dickens";
    case CorpusProfile::kBinary:
      return "binary";
    case CorpusProfile::kRandom:
      return "random";
    case CorpusProfile::kZero:
      return "zero";
  }
  return "?";
}

StatusOr<CorpusProfile> CorpusProfileFromName(std::string_view name) {
  for (int i = 0; i < kCorpusProfileCount; ++i) {
    const auto profile = static_cast<CorpusProfile>(i);
    if (CorpusProfileName(profile) == name) {
      return profile;
    }
  }
  return NotFound("unknown corpus profile: " + std::string(name));
}

void FillPage(CorpusProfile profile, std::uint64_t seed, std::span<std::byte> out) {
  Rng rng(SplitMix64(seed ^ (static_cast<std::uint64_t>(profile) << 56)));
  switch (profile) {
    case CorpusProfile::kNci:
      FillNci(rng, out);
      return;
    case CorpusProfile::kDickens:
      FillDickens(rng, out);
      return;
    case CorpusProfile::kBinary:
      FillBinary(rng, out);
      return;
    case CorpusProfile::kRandom:
      FillRandom(rng, out);
      return;
    case CorpusProfile::kZero:
      std::memset(out.data(), 0, out.size());
      return;
  }
}

std::uint64_t PageChecksum(std::span<const std::byte> data) {
  // One multiply-rotate step per 8-byte word, then FNV-1a over the tail
  // bytes, folded through SplitMix for avalanche. Every step is a bijection
  // of the state for a fixed input word, so two inputs of equal length that
  // differ in a single word always get different checksums.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, sizeof(word));
    h = std::rotl((h ^ word) * 0x9e3779b97f4a7c15ULL, 29);
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<std::uint64_t>(data[i])) * 0x100000001b3ULL;
  }
  return SplitMix64(h);
}

}  // namespace tierscape
