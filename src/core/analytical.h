// TierScape's analytical model (§6.2-§6.6).
//
// Builds the ILP of Eq. 2 as a multiple-choice knapsack: minimize total
// perf_ovh (Eq. 7) subject to TCO <= TCO_min + alpha * MTS (Eqs. 1, 10),
// where the knob alpha in [0,1] trades TCO savings (alpha -> 0) against
// performance (alpha -> 1, everything in DRAM). Solved with the in-repo MCKP
// solver (src/solver) in place of Google OR-Tools.
#ifndef SRC_CORE_ANALYTICAL_H_
#define SRC_CORE_ANALYTICAL_H_

#include <string>

#include "src/core/placement.h"
#include "src/solver/mckp.h"

namespace tierscape {

class AnalyticalPolicy : public PlacementPolicy {
 public:
  struct Stats {
    std::uint64_t solves = 0;
    // Wall-clock of the last Decide's solve, zero when it ran no solver
    // (alpha endpoints); a failed solve still reports the time it took.
    double last_solve_ms = 0.0;
    double total_solve_ms = 0.0;
    std::size_t last_groups = 0;
    double last_budget = 0.0;      // the TCO cap handed to the solver
    double last_tco_min = 0.0;
    double last_tco_max = 0.0;
    // False for the alpha-endpoint fast paths, which never touch the MCKP
    // solver.
    bool last_solver_used = false;
    // Marginal TCO-vs-performance gradient of the last plan: the steepest
    // perf_ovh reduction (Eq. 7 ns) available per extra normalized TCO
    // dollar, maximized over every region's unchosen upgrades — the LP
    // shadow price of the budget constraint (Eq. 2). Zero when no region can
    // buy performance with more budget (e.g. everything already in DRAM).
    // The multi-tenant utility arbiter reads this as each tenant's bid for
    // additional capacity (DESIGN.md §4f).
    double last_marginal_gradient = 0.0;
  };

  // alpha = 1: maximum performance (all DRAM); alpha = 0: maximum TCO savings.
  explicit AnalyticalPolicy(double alpha, MckpSolver::Options solver_options = {});

  std::string_view name() const override { return name_; }
  double alpha() const { return alpha_; }
  void set_alpha(double alpha);

  // The analytical model does not special-case the DecisionContext: pinned
  // regions are enforced downstream by the MigrationFilter's unconditional
  // pinned class, which keeps the solver inputs independent of pin churn.
  StatusOr<PlacementDecision> Decide(const PlacementInput& input, const CostModel& model,
                                     const DecisionContext& ctx) override;

  // Forwarded to the MCKP solver (timeout/infeasibility injection,
  // DESIGN.md §4d); TsDaemon wires this from its assembly's injector.
  void set_fault_injector(FaultInjector* fault) { solver_.set_fault_injector(fault); }

  const Stats& stats() const { return stats_; }
  // The underlying solver's per-solve counters for the last Solve call.
  const MckpSolver::SolveStats& solver_stats() const { return solver_.stats(); }

 private:
  double alpha_;
  std::string name_;
  MckpSolver solver_;
  Stats stats_;
};

}  // namespace tierscape

#endif  // SRC_CORE_ANALYTICAL_H_
