// Multiple-choice knapsack (MCKP) solver — the "ILP" of §6.4.
//
// TierScape's analytical model (Eq. 2) is, structurally, an MCKP: every 2 MiB
// region (a *group*) must be assigned to exactly one tier (a *choice*), each
// choice carrying a performance-overhead cost (Eq. 7) and a TCO weight
// (Eq. 10); total weight is capped by the knob-scaled TCO budget. The paper
// solves it with Google OR-Tools; this module is the offline-built
// equivalent, with two strategies:
//
//  * kDp     — dynamic program over a discretized weight budget. Rounds each
//              weight *up* to the next bucket, so solutions never violate the
//              budget; with the default resolution the cost error is
//              negligible and the result is reported as optimal.
//  * kGreedy — convex-hull incremental-efficiency greedy (the classic MCKP
//              LP-relaxation walk) plus a local improvement pass; O(n log n),
//              used for very large instances.
//
// Both strategies first prune each group's choice list (Options::prune):
// dominance pruning drops any choice beaten on both cost and weight by an
// earlier-or-cheaper sibling, and the greedy efficiency walk additionally
// restricts its move targets to the group's lower convex hull. Each rule is
// applied only where it provably cannot change the solved total_cost — see
// the notes in mckp.cc; MckpSolverTest.PruningPreservesTotalCost guards the
// equivalence on randomized instances.
//
// One cold solve per profile window, as the paper's OR-Tools ILP does
// (DESIGN.md §4e): kAuto picks the DP or the greedy by instance size. The
// paper reports its ILP consumes <0.3% of a CPU and ~480 MB (§8.4);
// bench/micro_solver measures this solver's 10³→10⁶-region cold scaling curve.
#ifndef SRC_SOLVER_MCKP_H_
#define SRC_SOLVER_MCKP_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"

namespace tierscape {

class FaultInjector;

struct MckpChoice {
  double cost = 0.0;    // objective contribution (minimized)
  double weight = 0.0;  // budgeted resource contribution
};

struct MckpProblem {
  // groups[g][k] is the k-th choice of group g; each group picks exactly one.
  std::vector<std::vector<MckpChoice>> groups;
  double capacity = 0.0;  // maximum total weight
};

// Per-group pruned choice-index sets; built in mckp.cc (opaque here).
struct MckpPruning;

struct MckpSolution {
  std::vector<int> choice;  // chosen index per group
  double total_cost = 0.0;
  double total_weight = 0.0;
  bool optimal = false;  // true when produced by the DP at full resolution
};

class MckpSolver {
 public:
  enum class Strategy { kAuto, kDp, kGreedy };

  struct Options {
    Strategy strategy = Strategy::kAuto;
    // Minimum weight-budget discretization for the DP. Each group's weight
    // rounds up by at most one bucket, so the effective resolution scales
    // with the group count (16 buckets per group, capped at 16384)
    // to keep the cumulative rounding loss below ~3% of the budget.
    int dp_buckets = 2048;
    // Per-group dominance/convex-hull pruning. Cost-neutral by construction;
    // off only for A/B measurement and the equivalence tests.
    bool prune = true;
  };

  struct SolveStats {
    std::size_t dp_cells = 0;
    std::size_t greedy_moves = 0;
    // Pruning effectiveness: total choices across groups, how many were
    // dominance-pruned (skipped by the DP and the greedy improvement pass),
    // and how many the greedy efficiency walk excludes as off-hull (the two
    // counts overlap: a dominated choice is usually also off the hull).
    std::size_t choices_total = 0;
    std::size_t pruned_dominated = 0;
    std::size_t pruned_off_hull = 0;
    Strategy used = Strategy::kDp;
  };

  MckpSolver() : options_(Options()) {}
  explicit MckpSolver(Options options) : options_(options) {}

  // Fault injection (DESIGN.md §4d): checked once at Solve entry; injects
  // kDeadlineExceeded (solve blew its window budget, §8.4) or
  // kResourceExhausted (spurious infeasibility).
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }

  // Fails with kInvalidArgument for malformed problems, kResourceExhausted
  // when even the minimum-weight assignment exceeds the capacity, and
  // kDeadlineExceeded on an injected solver timeout.
  StatusOr<MckpSolution> Solve(const MckpProblem& problem);

  const SolveStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

 private:
  StatusOr<MckpSolution> SolveDp(const MckpProblem& problem, const MckpPruning& pruning);
  int EffectiveBuckets(std::size_t n_groups) const;
  StatusOr<MckpSolution> SolveGreedy(const MckpProblem& problem, const MckpPruning& pruning);

  Options options_;
  SolveStats stats_;
  FaultInjector* fault_ = nullptr;
};

// Checks that a solution is well-formed and within capacity.
Status ValidateSolution(const MckpProblem& problem, const MckpSolution& solution);

}  // namespace tierscape

#endif  // SRC_SOLVER_MCKP_H_
