// Graph analytics workloads: BFS and PageRank over rMat-generated graphs,
// modeling the Ligra benchmarks of Table 2 [50, 4].
//
// The graph is generated host-side with the standard rMat recursive
// quadrant-splitting procedure (a=0.57, b=0.19, c=0.19, d=0.05), giving the
// power-law degree skew that makes a minority of rank/visited pages hot. The
// simulated footprint holds the CSR arrays and the per-vertex state. Its size
// follows from the config alone, so the workloads build the graph in
// Populate, and a footprint probe (construct + Reserve) never builds one.
#ifndef SRC_WORKLOADS_GRAPH_H_
#define SRC_WORKLOADS_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/workloads/workload.h"

namespace tierscape {

struct RmatConfig {
  std::uint64_t vertices = 1 << 17;
  std::uint64_t edges_per_vertex = 16;
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;  // d = 1 - a - b - c
  std::uint64_t seed = 7;

  std::uint64_t edges() const { return vertices * edges_per_vertex; }

  // Rejects configs the generator cannot build: no vertices, vertex ids
  // beyond the 32-bit CSR targets, an edge count that overflows, and
  // quadrant probabilities that are negative or sum past 1.
  Status Validate() const;
};

// Host-side CSR graph shared by the graph workloads. Each vertex's targets
// are sorted, so the CSR is the sorted edge list (duplicates kept).
class RmatGraph {
 public:
  // TS_CHECKs config.Validate().
  explicit RmatGraph(const RmatConfig& config);

  std::uint64_t vertices() const { return offsets_.size() - 1; }
  std::uint64_t edges() const { return targets_.size(); }
  std::pair<const std::uint32_t*, const std::uint32_t*> Neighbors(std::uint64_t v) const {
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }
  std::uint64_t EdgeOffset(std::uint64_t v) const { return offsets_[v]; }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> targets_;
};

struct GraphWorkloadConfig {
  RmatConfig rmat;
  std::uint64_t seed = 11;
  Nanos op_compute = 500;   // graph kernels are memory-bound
  // Cap on edges processed per operation (keeps op latency bounded on the
  // power-law head vertices).
  std::uint64_t max_edges_per_op = 64;
};

// PageRank: every operation processes one vertex — reads its CSR slice and
// gathers the rank of each out-neighbor, then writes the vertex's new rank.
class PageRankWorkload : public Workload {
 public:
  explicit PageRankWorkload(GraphWorkloadConfig config);

  std::string_view name() const override { return "pagerank"; }
  void Reserve(AddressSpace& space) override;
  void Populate(TieringEngine& engine) override;
  Nanos Op(TieringEngine& engine) override;

 private:
  GraphWorkloadConfig config_;
  std::optional<RmatGraph> graph_;  // built in Populate
  Rng rng_;
  std::uint64_t cursor_ = 0;
  std::uint64_t csr_index_base_ = 0;
  std::uint64_t csr_edges_base_ = 0;
  std::uint64_t rank_base_ = 0;
};

// BFS: operations consume a breadth-first order precomputed in Populate; each
// op scans one vertex's neighbors and tests/sets their visited bits.
class BfsWorkload : public Workload {
 public:
  explicit BfsWorkload(GraphWorkloadConfig config);

  std::string_view name() const override { return "bfs"; }
  void Reserve(AddressSpace& space) override;
  void Populate(TieringEngine& engine) override;
  Nanos Op(TieringEngine& engine) override;

 private:
  GraphWorkloadConfig config_;
  std::optional<RmatGraph> graph_;        // built in Populate
  std::vector<std::uint32_t> bfs_order_;  // host-side traversal, computed in Populate
  std::uint64_t cursor_ = 0;
  std::uint64_t csr_index_base_ = 0;
  std::uint64_t csr_edges_base_ = 0;
  std::uint64_t visited_base_ = 0;
};

}  // namespace tierscape

#endif  // SRC_WORKLOADS_GRAPH_H_
