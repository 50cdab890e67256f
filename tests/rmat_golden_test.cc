// Golden digests of the R-MAT graphs the BFS and PageRank workloads run on:
// the CSR arrays and the BFS traversal order. The graph shapes every figure's
// Ligra rows, so a change to graph construction that moves one edge or
// reorders one vertex must fail here; this is the oracle for performance work
// on RmatGraph and the BFS precompute.
//
// Each digest is FNV-1a. On a mismatch the test prints the actual value.
// Change a constant only for an intended change of graph output, and record
// why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/core/tier_specs.h"
#include "src/tiering/address_space.h"
#include "src/tiering/engine.h"
#include "src/workloads/graph.h"

namespace tierscape {
namespace {

class Digest {
 public:
  void Add(std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      hash_ = (hash_ ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
    }
  }
  void Add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t OffsetsDigest(const RmatGraph& graph) {
  Digest digest;
  for (std::uint64_t v = 0; v <= graph.vertices(); ++v) {
    digest.Add(graph.EdgeOffset(v));
  }
  return digest.value();
}

std::uint64_t TargetsDigest(const RmatGraph& graph) {
  Digest digest;
  const std::uint32_t* targets = graph.Neighbors(0).first;
  digest.Add(std::as_bytes(std::span(targets, graph.edges())));
  return digest.value();
}

// The BFS order is private to BfsWorkload, so the test observes it the way
// the simulator does: it replays one full traversal (one op per vertex)
// against an all-DRAM engine and adds, per op, the op's latency (which counts
// the vertex's scanned edges and the edge pages they span) and the
// visited-bit pages the op stores to (which pages its neighbours live on).
std::uint64_t BfsOrderDigest(const RmatConfig& rmat) {
  GraphWorkloadConfig config;
  config.rmat = rmat;
  BfsWorkload workload(config);
  TieredSystem system(StandardMixConfig(64 * kMiB, 64 * kMiB));
  AddressSpace space;
  workload.Reserve(space);
  TieringEngine engine(space, system.tiers());
  EXPECT_TRUE(engine.PlaceInitial().ok());
  workload.Populate(engine);

  std::uint64_t first_page = 0;
  for (const AddressSpace::Segment& segment : space.segments()) {
    if (segment.name == "bfs/visited") {
      first_page = segment.first_page;
    }
  }
  std::vector<std::uint32_t> versions((rmat.vertices * 8 + kPageSize - 1) / kPageSize);
  for (std::size_t p = 0; p < versions.size(); ++p) {
    versions[p] = space.PageVersion(first_page + p);
  }
  Digest digest;
  for (std::uint64_t op = 0; op < rmat.vertices; ++op) {
    digest.Add(workload.Op(engine));
    for (std::size_t p = 0; p < versions.size(); ++p) {
      const std::uint32_t version = space.PageVersion(first_page + p);
      if (version != versions[p]) {
        digest.Add(p);
        digest.Add(version - versions[p]);
        versions[p] = version;
      }
    }
  }
  return digest.value();
}

struct GoldenCase {
  RmatConfig rmat;
  std::uint64_t offsets;
  std::uint64_t targets;
  std::uint64_t bfs_order;
};

// Power-of-two and other vertex counts, 1 and 16 edges per vertex, the
// default quadrant split and others: exactly representable thresholds
// (0.5/0.25/0.125), d = 0, and sums that round (0.1 + 0.2).
const GoldenCase kCases[] = {
    {{.vertices = 1, .edges_per_vertex = 16, .seed = 7},
     0x77cc904a0ff40675ULL, 0xb9b23f3a46fd0825ULL, 0xb22b88844ce7ceffULL},
    {{.vertices = 1000, .edges_per_vertex = 16, .seed = 1},
     0x2aa36c6a416a152bULL, 0xa6125a4bc0e56207ULL, 0x4dfccaf3c1f27032ULL},
    {{.vertices = 1000, .edges_per_vertex = 1, .a = 0.5, .b = 0.25, .c = 0.125, .seed = 2},
     0xca693c2b2fd163f0ULL, 0x6868996e2850b1beULL, 0x80f5fccf57beddabULL},
    {{.vertices = 3 << 10, .edges_per_vertex = 1, .seed = 3},
     0x3c9e95c40e59ea38ULL, 0x035b7c79b3c4648fULL, 0x0d8e1b631a331568ULL},
    {{.vertices = 3 << 10, .edges_per_vertex = 16, .a = 0.5, .b = 0.25, .c = 0.25, .seed = 4},
     0xaaf0e134b3b8dd48ULL, 0xf059d8bc831c799cULL, 0x005d686f098d197bULL},
    {{.vertices = 1 << 12, .edges_per_vertex = 16, .a = 0.1, .b = 0.2, .c = 0.3, .seed = 5},
     0x3b9becf5709f8ddcULL, 0xcf5119abc1d5f1e5ULL, 0x9902eb01771aa109ULL},
    {{.vertices = 1 << 14, .edges_per_vertex = 16, .seed = 6},
     0x5e92ae21e2733d22ULL, 0xe6c457cbd0333061ULL, 0xe5c8715020af60b0ULL},
    {{.vertices = 1 << 14, .edges_per_vertex = 1, .a = 0.45, .b = 0.15, .c = 0.15, .seed = 8},
     0x96c446d3ca64a9f6ULL, 0x544583bda5f71cc2ULL, 0xf0cc5add3439ed23ULL},
    {{.vertices = 5000, .edges_per_vertex = 16, .a = 0.25, .b = 0.25, .c = 0.25, .seed = 9},
     0x69ffa5313aac757aULL, 0xcfe2e9b2fd54706dULL, 0x70d94be28cfa7b6cULL},
};

std::string Describe(const RmatConfig& rmat) {
  std::ostringstream out;
  out << "vertices=" << rmat.vertices << " edges_per_vertex=" << rmat.edges_per_vertex
      << " a=" << rmat.a << " b=" << rmat.b << " c=" << rmat.c << " seed=" << rmat.seed;
  return out.str();
}

TEST(RmatGoldenTest, Csr) {
  for (const GoldenCase& golden : kCases) {
    SCOPED_TRACE(Describe(golden.rmat));
    const RmatGraph graph(golden.rmat);
    ASSERT_EQ(graph.vertices(), golden.rmat.vertices);
    ASSERT_EQ(graph.edges(), golden.rmat.vertices * golden.rmat.edges_per_vertex);
    const std::uint64_t offsets = OffsetsDigest(graph);
    const std::uint64_t targets = TargetsDigest(graph);
    EXPECT_EQ(offsets, golden.offsets) << "actual 0x" << std::hex << offsets;
    EXPECT_EQ(targets, golden.targets) << "actual 0x" << std::hex << targets;
  }
}

TEST(RmatGoldenTest, BfsOrder) {
  for (const GoldenCase& golden : kCases) {
    SCOPED_TRACE(Describe(golden.rmat));
    const std::uint64_t actual = BfsOrderDigest(golden.rmat);
    EXPECT_EQ(actual, golden.bfs_order) << "actual 0x" << std::hex << actual;
  }
}

}  // namespace
}  // namespace tierscape
