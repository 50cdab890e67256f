#include "src/workloads/graph.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/logging.h"

namespace tierscape {
namespace {

// Addresses within the simulated segments.
constexpr std::uint64_t IndexAddr(std::uint64_t base, std::uint64_t v) { return base + v * 8; }
constexpr std::uint64_t EdgeAddr(std::uint64_t base, std::uint64_t e) { return base + e * 4; }
constexpr std::uint64_t RankAddr(std::uint64_t base, std::uint64_t v) { return base + v * 8; }

// The number of 53-bit draws k whose NextDouble(), k * 2^-53, is below `t`:
// ceil(t * 2^53), exact for t in [0, 1] since scaling by 2^53 is exact. So
// `NextDouble() < t` is `(Next() >> 11) < DrawsBelow(t)`, bit for bit.
std::uint64_t DrawsBelow(double t) {
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(t, 53)));
}

// Gathers the bits at even positions of `w` (0, 2, ..., 62) into its low 32
// bits, in order.
constexpr std::uint64_t EvenBits(std::uint64_t w) {
  w &= 0x5555555555555555ULL;
  w = (w | (w >> 1)) & 0x3333333333333333ULL;
  w = (w | (w >> 2)) & 0x0f0f0f0f0f0f0f0fULL;
  w = (w | (w >> 4)) & 0x00ff00ff00ff00ffULL;
  w = (w | (w >> 8)) & 0x0000ffff0000ffffULL;
  return (w | (w >> 16)) & 0x00000000ffffffffULL;
}

void CheckValid(const RmatConfig& config) {
  const Status valid = config.Validate();
  TS_CHECK(valid.ok()) << valid.ToString();
}

}  // namespace

Status RmatConfig::Validate() const {
  if (vertices == 0) {
    return InvalidArgument("RmatConfig: vertices must be >= 1");
  }
  if (vertices > (1ULL << 32)) {
    return InvalidArgument("RmatConfig: vertices must be <= 2^32 (32-bit CSR targets), got " +
                           std::to_string(vertices));
  }
  if (edges_per_vertex > ~0ULL / vertices) {
    return InvalidArgument("RmatConfig: vertices * edges_per_vertex overflows 64 bits");
  }
  if (!(a >= 0.0 && b >= 0.0 && c >= 0.0)) {
    return InvalidArgument("RmatConfig: a, b and c must be >= 0, got " + std::to_string(a) +
                           ", " + std::to_string(b) + ", " + std::to_string(c));
  }
  if (a + b + c > 1.0) {
    return InvalidArgument("RmatConfig: a + b + c must be <= 1 (d = 1 - a - b - c), got " +
                           std::to_string(a + b + c));
  }
  return OkStatus();
}

RmatGraph::RmatGraph(const RmatConfig& config) {
  CheckValid(config);
  const std::uint64_t n = config.vertices;
  const std::uint64_t m = config.edges();
  Rng rng(config.seed);
  const int bits = 63 - __builtin_clzll(n);

  // Each level picks a quadrant from one draw p: [0, a) top-left, [a, a+b)
  // top-right (dst bit), [a+b, a+b+c) bottom-left (src bit), the rest
  // bottom-right (both bits). Validate() keeps the thresholds ordered, so the
  // number of thresholds p has reached is the quadrant's (src bit, dst bit)
  // in binary: no branches. Two bits per level accumulate in `quadrants`,
  // whose odd and even bits are then the src and dst ids. Both ids have
  // `bits` bits, so they are below 2^bits <= n.
  const std::uint64_t below_a = DrawsBelow(config.a);
  const std::uint64_t below_ab = DrawsBelow(config.a + config.b);
  const std::uint64_t below_abc = DrawsBelow(config.a + config.b + config.c);
  // One (src << 32 | dst) key per edge.
  std::vector<std::uint64_t> keys;
  keys.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    std::uint64_t quadrants = 0;
    for (int level = 0; level < bits; ++level) {
      const std::uint64_t k = rng.Next() >> 11;
      quadrants = quadrants << 2 | (static_cast<std::uint64_t>(k >= below_a) +
                                    static_cast<std::uint64_t>(k >= below_ab) +
                                    static_cast<std::uint64_t>(k >= below_abc));
    }
    keys.push_back(EvenBits(quadrants >> 1) << 32 | EvenBits(quadrants));
  }

  // Counting sort by source. After the inclusive prefix sum offsets_[v] is
  // the end of v's slice; scattering the edges back to front steps each
  // cursor down to its slice's start, which keeps each slice in edge order
  // and leaves offsets_ as the CSR index. Sorting every slice then yields
  // the sorted edge list, with no buffer beyond keys, targets and offsets.
  offsets_.assign(n + 1, 0);
  for (const std::uint64_t key : keys) {
    ++offsets_[key >> 32];
  }
  for (std::uint64_t v = 1; v <= n; ++v) {
    offsets_[v] += offsets_[v - 1];
  }
  targets_.resize(m);
  for (auto key = keys.rbegin(); key != keys.rend(); ++key) {
    targets_[--offsets_[*key >> 32]] = static_cast<std::uint32_t>(*key);
  }
  std::vector<std::uint64_t>().swap(keys);  // frees the keys before the slice sorts
  for (std::uint64_t v = 0; v < n; ++v) {
    std::sort(targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
              targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]));
  }
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

PageRankWorkload::PageRankWorkload(GraphWorkloadConfig config)
    : config_(config), rng_(config.seed) {
  CheckValid(config_.rmat);
}

void PageRankWorkload::Reserve(AddressSpace& space) {
  const std::uint64_t n = config_.rmat.vertices;
  csr_index_base_ = space.Allocate("pagerank/csr-index", (n + 1) * 8, CorpusProfile::kBinary);
  csr_edges_base_ =
      space.Allocate("pagerank/csr-edges", config_.rmat.edges() * 4, CorpusProfile::kBinary);
  rank_base_ = space.Allocate("pagerank/ranks", n * 8, CorpusProfile::kBinary);
}

void PageRankWorkload::Populate(TieringEngine& engine) {
  graph_.emplace(config_.rmat);
  // Initialize the rank array (sequential stores) and touch the CSR once.
  for (std::uint64_t v = 0; v < graph_->vertices(); v += kPageSize / 8) {
    engine.Access(RankAddr(rank_base_, v), /*is_store=*/true);
  }
  for (std::uint64_t e = 0; e < graph_->edges(); e += kPageSize / 4) {
    engine.Access(EdgeAddr(csr_edges_base_, e), /*is_store=*/false);
  }
}

Nanos PageRankWorkload::Op(TieringEngine& engine) {
  const std::uint64_t v = cursor_;
  cursor_ = (cursor_ + 1) % graph_->vertices();
  Nanos latency = engine.Access(IndexAddr(csr_index_base_, v), false);

  auto [begin, end] = graph_->Neighbors(v);
  const std::uint64_t degree = static_cast<std::uint64_t>(end - begin);
  const std::uint64_t limit = std::min(degree, config_.max_edges_per_op);
  const std::uint64_t edge_offset = graph_->EdgeOffset(v);
  std::uint64_t last_edge_page = ~0ULL;
  for (std::uint64_t i = 0; i < limit; ++i) {
    // Sequential scan of the edge slice: one access per touched page.
    const std::uint64_t addr = EdgeAddr(csr_edges_base_, edge_offset + i);
    if (addr / kPageSize != last_edge_page) {
      latency += engine.Access(addr, false);
      last_edge_page = addr / kPageSize;
    }
    // Random gather of the neighbor's rank — the tiering-sensitive part.
    latency += engine.Access(RankAddr(rank_base_, begin[i]), false);
  }
  latency += engine.Access(RankAddr(rank_base_, v), /*is_store=*/true);
  engine.Compute(config_.op_compute);
  return latency + config_.op_compute;
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

BfsWorkload::BfsWorkload(GraphWorkloadConfig config) : config_(config) {
  CheckValid(config_.rmat);
}

void BfsWorkload::Reserve(AddressSpace& space) {
  const std::uint64_t n = config_.rmat.vertices;
  csr_index_base_ = space.Allocate("bfs/csr-index", (n + 1) * 8, CorpusProfile::kBinary);
  csr_edges_base_ =
      space.Allocate("bfs/csr-edges", config_.rmat.edges() * 4, CorpusProfile::kBinary);
  visited_base_ = space.Allocate("bfs/visited", n * 8, CorpusProfile::kZero);
}

void BfsWorkload::Populate(TieringEngine& engine) {
  graph_.emplace(config_.rmat);
  // Precompute a BFS order host-side; ops then replay the traversal against
  // the simulated memory. The order is its own FIFO: entries from `head` on
  // are queued, the ones before it visited.
  const std::uint64_t n = graph_->vertices();
  std::vector<char> seen(n, 0);
  bfs_order_.reserve(n);
  std::size_t head = 0;
  for (std::uint64_t root = 0; root < n; ++root) {
    if (seen[root]) {
      continue;
    }
    seen[root] = 1;
    bfs_order_.push_back(static_cast<std::uint32_t>(root));
    for (; head < bfs_order_.size(); ++head) {
      auto [begin, end] = graph_->Neighbors(bfs_order_[head]);
      for (const std::uint32_t* t = begin; t != end; ++t) {
        if (!seen[*t]) {
          seen[*t] = 1;
          bfs_order_.push_back(*t);
        }
      }
    }
  }

  for (std::uint64_t e = 0; e < graph_->edges(); e += kPageSize / 4) {
    engine.Access(EdgeAddr(csr_edges_base_, e), /*is_store=*/false);
  }
}

Nanos BfsWorkload::Op(TieringEngine& engine) {
  const std::uint32_t v = bfs_order_[cursor_];
  cursor_ = (cursor_ + 1) % bfs_order_.size();
  Nanos latency = engine.Access(IndexAddr(csr_index_base_, v), false);

  auto [begin, end] = graph_->Neighbors(v);
  const auto degree = static_cast<std::uint64_t>(end - begin);
  const std::uint64_t limit = std::min(degree, config_.max_edges_per_op);
  const std::uint64_t edge_offset = graph_->EdgeOffset(v);
  std::uint64_t last_edge_page = ~0ULL;
  for (std::uint64_t i = 0; i < limit; ++i) {
    const std::uint64_t addr = EdgeAddr(csr_edges_base_, edge_offset + i);
    if (addr / kPageSize != last_edge_page) {
      latency += engine.Access(addr, false);
      last_edge_page = addr / kPageSize;
    }
    // Visited-bit test and set.
    latency += engine.Access(RankAddr(visited_base_, begin[i]), /*is_store=*/true);
  }
  engine.Compute(config_.op_compute);
  return latency + config_.op_compute;
}

}  // namespace tierscape
