// Global DRAM / compressed-tier arbiter for multi-tenant colocation
// (DESIGN.md §4f). TierScape's single-tenant daemon answers "which tier for
// each region under MY budget"; when N tenants share one box the host must
// first answer "how much DRAM and compressed-pool capacity does each tenant
// get". GlobalArbiter re-divides the shared pools at every window boundary
// under a pluggable policy; grants are enforced by Medium / CompressedTier
// grant caps so a tenant at its grant sees ordinary capacity pressure.
#ifndef SRC_MULTITENANT_ARBITER_H_
#define SRC_MULTITENANT_ARBITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/observability.h"

namespace tierscape {

// How the arbiter weighs tenants when splitting the pools (DESIGN.md §4f).
enum class ArbiterPolicy {
  kStaticShares,      // equal split, never rebalanced — the colocation baseline
  kFairShare,         // proportional to reserved footprint
  kPriorityWeighted,  // proportional to TenantSpec::priority
  kUtility,           // proportional to each tenant's MCKP marginal gradient
                      // (AnalyticalPolicy::Stats::last_marginal_gradient): the
                      // perf a tenant could still buy per extra TCO dollar
};

std::string_view ArbiterPolicyName(ArbiterPolicy policy);

struct ArbiterConfig {
  ArbiterPolicy policy = ArbiterPolicy::kStaticShares;
  // Shared pools the arbiter divides. DRAM frames and compressed-pool bytes
  // are granted separately; NVMM byte-spill capacity stays unpartitioned so a
  // squeezed tenant degrades (spills) instead of failing placement.
  std::size_t dram_pool_bytes = 0;
  std::size_t ct_pool_bytes = 0;
  // Every tenant is guaranteed this fraction of an equal share regardless of
  // weight (anti-starvation floor; the remainder is divided by weight).
  double fair_share_floor = 0.25;
  // EWMA factor applied to the share vector across successive Divide calls:
  // share = smoothing * new + (1 - smoothing) * previous. 1.0 (default)
  // follows the instantaneous weights; lower values damp window-to-window
  // grant oscillation, whose migration churn is pure slowdown (DESIGN.md §4f).
  double share_smoothing = 1.0;

  Status Validate() const;
};

// One tenant's standing in the current window, gathered by MultiTenantDaemon
// from the tenant's engine/daemon on the sequential path.
struct TenantDemand {
  int tenant = 0;
  double priority = 1.0;
  std::size_t footprint_bytes = 0;      // reserved address-space size
  std::size_t resident_dram_bytes = 0;  // currently used DRAM
  std::uint64_t window_faults = 0;      // tier faults during the last window
  double marginal_gradient = 0.0;       // Eq. 2 shadow price (analytical.h)
};

struct TenantGrant {
  std::size_t dram_bytes = 0;
  std::size_t ct_bytes = 0;
};

// Divides the shared pools across tenants. Sequential-path only: Divide
// mutates arbiter metrics and last-grant state, so MultiTenantDaemon calls it
// exclusively from the orchestrator thread between window shards.
class GlobalArbiter {
 public:
  GlobalArbiter(ArbiterConfig config, Observability& obs);

  // Returns one grant per demand, in demand order. Grants are frame-granular
  // and sum exactly to the configured pools (largest-remainder rounding).
  StatusOr<std::vector<TenantGrant>> Divide(const std::vector<TenantDemand>& demands);

  const ArbiterConfig& config() const { return config_; }
  // Total |delta| in granted bytes across the last Divide (0 on the first).
  std::size_t last_rebalanced_bytes() const { return last_rebalanced_bytes_; }

 private:
  ArbiterConfig config_;
  std::vector<double> last_shares_;
  std::vector<TenantGrant> last_grants_;
  std::size_t last_rebalanced_bytes_ = 0;
  Counter* m_decisions_ = nullptr;
  Counter* m_rebalanced_bytes_ = nullptr;
  Gauge* m_last_rebalanced_ = nullptr;
};

}  // namespace tierscape

#endif  // SRC_MULTITENANT_ARBITER_H_
