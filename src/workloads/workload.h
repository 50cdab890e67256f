// Workload interface: the six real-world benchmarks of Table 2 are modeled
// as access-pattern generators that drive the tiering engine. Footprints are
// scaled down from the paper's 30-119 GB to hundreds of MiB (configurable);
// the properties the placement models consume — the hotness skew across
// regions and the compressibility mix across segments — are preserved.
#ifndef SRC_WORKLOADS_WORKLOAD_H_
#define SRC_WORKLOADS_WORKLOAD_H_

#include <string_view>

#include "src/common/units.h"
#include "src/tiering/address_space.h"
#include "src/tiering/engine.h"

namespace tierscape {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string_view name() const = 0;

  // Reserves the workload's segments. Called once, before the engine exists.
  // A footprint probe (construct + Reserve) stops here, so Reserve sizes the
  // segments from the config alone.
  virtual void Reserve(AddressSpace& space) = 0;

  // Population phase (e.g. loading the KV store), before measurement starts.
  // Every driver calls it once, after PlaceInitial and before the first Op.
  // The graph workloads build their host-side graph here.
  virtual void Populate(TieringEngine& engine) {}

  // Executes one operation and returns its latency (memory + compute).
  virtual Nanos Op(TieringEngine& engine) = 0;
};

}  // namespace tierscape

#endif  // SRC_WORKLOADS_WORKLOAD_H_
