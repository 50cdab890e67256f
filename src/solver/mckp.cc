#include "src/solver/mckp.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>

#include "src/common/logging.h"
#include "src/fault/fault_injector.h"

namespace tierscape {

// Pruned per-group choice-index sets. Each rule is applied only where it is
// provably cost-neutral:
//
//  * dominant[g] — choices surviving dominance pruning: k is dropped iff some
//    sibling i has weight_i <= weight_k and either cost_i < cost_k, or
//    cost_i == cost_k with i < k ("keep-first"). Every exhaustive
//    first-index-tie-break scan (each DP column min, the greedy seed and
//    improvement passes) picks the same choice over dominant[g] as over the
//    full group: the dropped k is feasible only when i is, never strictly
//    better, and loses every tie to i.
//  * hull[g] — choices on the group's lower convex hull in (weight, cost),
//    colinear points and exact duplicates included. The greedy efficiency
//    walk only ever moves to hull choices: from a hull point, a choice
//    strictly above the hull has strictly worse efficiency than the adjacent
//    hull vertex, so restricting next_move to hull[g] reproduces the
//    unpruned walk move-for-move (up to floating-point-degenerate ties).
//    hull[g] is *not* a subset of dominant[g]: an equal-cost heavier choice
//    on a horizontal hull segment is dominated yet a legal walk target.
//
// Both lists are in ascending index order so first-index tie-breaks survive.
struct MckpPruning {
  std::vector<std::vector<int>> dominant;
  std::vector<std::vector<int>> hull;
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Cap on the DP's budget discretization (Options::dp_buckets scales up to it).
// The DP table is groups × buckets, so the cap bounds the per-window solve's
// memory and time, which §8.4 budgets at <0.3% of a CPU.
constexpr int kDpBucketsMax = 16384;
// kAuto switches to greedy once (group-choice pairs) × (DP buckets) exceeds
// 8× this, keeping the DP to instances it solves within the §8.4 window
// budget. The decision uses the *unpruned* pair count so pruning never flips
// the chosen strategy (the two strategies return different costs).
constexpr std::size_t kAutoGreedyThreshold = 4'000'000;

Status CheckProblem(const MckpProblem& problem) {
  if (problem.groups.empty()) {
    return InvalidArgument("mckp: no groups");
  }
  if (!(problem.capacity >= 0.0)) {
    return InvalidArgument("mckp: negative capacity");
  }
  double min_weight_total = 0.0;
  for (const auto& group : problem.groups) {
    if (group.empty()) {
      return InvalidArgument("mckp: empty group");
    }
    double min_weight = kInf;
    for (const auto& choice : group) {
      if (choice.weight < 0.0 || !std::isfinite(choice.cost)) {
        return InvalidArgument("mckp: bad choice");
      }
      min_weight = std::min(min_weight, choice.weight);
    }
    min_weight_total += min_weight;
  }
  if (min_weight_total > problem.capacity * (1.0 + 1e-9) + 1e-12) {
    return ResourceExhausted("mckp: minimum-weight assignment exceeds capacity");
  }
  return OkStatus();
}

// Reusable PruneGroup workspace: BuildPruning allocates one and the per-call
// vectors keep their capacity instead of round-tripping the allocator — at
// 10⁶ groups the mallocs, not the sorts, dominate the build.
struct PrunePoint {
  double weight;
  double cost;
};
struct PruneScratch {
  std::vector<int> order;
  std::vector<PrunePoint> chain;
};

// O(m log m). With `enabled` false both lists are the identity, so the solve
// paths stay branch-free over a single representation.
void PruneGroup(const std::vector<MckpChoice>& group, bool enabled, std::vector<int>& dominant,
                std::vector<int>& hull, MckpSolver::SolveStats& stats, PruneScratch& scratch) {
  stats.choices_total += group.size();
  dominant.clear();
  hull.clear();
  if (!enabled || group.size() <= 2) {
    dominant.resize(group.size());
    std::iota(dominant.begin(), dominant.end(), 0);
    hull = dominant;
    return;
  }
  std::vector<int>& order = scratch.order;
  order.resize(group.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (group[a].weight != group[b].weight) {
      return group[a].weight < group[b].weight;
    }
    if (group[a].cost != group[b].cost) {
      return group[a].cost < group[b].cost;
    }
    return a < b;
  });

  // Dominance sweep in ascending weight: everything already seen is
  // lighter-or-equal, so k survives iff nothing seen is strictly cheaper or
  // equally cheap with a smaller index.
  double best_cost = kInf;
  int best_index = -1;
  for (const int k : order) {
    const double cost = group[k].cost;
    if (cost < best_cost || (cost == best_cost && k < best_index)) {
      best_cost = cost;
      best_index = k;
    }
    // After the update best_cost <= cost; k survives iff it is itself the
    // (cost, index)-lexicographic minimum of everything seen so far.
    if (cost == best_cost && best_index >= k) {
      dominant.push_back(k);
    }
  }
  std::sort(dominant.begin(), dominant.end());

  // Lower convex hull over the distinct-weight minima (the first entry of
  // each weight run in `order` is that weight's cheapest choice). Pops use
  // a strict test so colinear points stay on the hull — they tie the
  // adjacent vertex's efficiency and the unpruned walk may pick them.
  std::vector<PrunePoint>& chain = scratch.chain;
  chain.clear();
  for (const int k : order) {
    const PrunePoint p{group[k].weight, group[k].cost};
    if (!chain.empty() && chain.back().weight == p.weight) {
      continue;  // heavier-cost duplicate weight: strictly above the hull
    }
    while (chain.size() >= 2) {
      const PrunePoint& a = chain[chain.size() - 2];
      const PrunePoint& b = chain.back();
      // b is strictly above segment a->p iff slope(a,b) > slope(b,p).
      if ((b.cost - a.cost) * (p.weight - b.weight) > (p.cost - b.cost) * (b.weight - a.weight)) {
        chain.pop_back();
      } else {
        break;
      }
    }
    chain.push_back(p);
  }
  std::size_t at = 0;
  for (const int k : order) {
    while (at < chain.size() && chain[at].weight < group[k].weight) {
      ++at;
    }
    if (at < chain.size() && chain[at].weight == group[k].weight &&
        chain[at].cost == group[k].cost) {
      hull.push_back(k);
    }
  }
  std::sort(hull.begin(), hull.end());

  stats.pruned_dominated += group.size() - dominant.size();
  stats.pruned_off_hull += group.size() - hull.size();
}

MckpPruning BuildPruning(const MckpProblem& problem, bool enabled,
                         MckpSolver::SolveStats& stats) {
  MckpPruning pruning;
  pruning.dominant.resize(problem.groups.size());
  pruning.hull.resize(problem.groups.size());
  PruneScratch scratch;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    PruneGroup(problem.groups[g], enabled, pruning.dominant[g], pruning.hull[g], stats, scratch);
  }
  return pruning;
}

// Starts every group at its minimum-cost choice (never dominance-pruned: a
// dominator would have to be at least as cheap with a smaller index) and
// accumulates the totals.
void SeedMinCost(const MckpProblem& problem, const MckpPruning& pruning, std::vector<int>& choice,
                 double& total_weight, double& total_cost) {
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const auto& group = problem.groups[g];
    const std::vector<int>& keep = pruning.dominant[g];
    int best = keep.front();
    for (const int k : keep) {
      if (group[k].cost < group[best].cost) {
        best = k;
      }
    }
    choice[g] = best;
    total_weight += group[best].weight;
    total_cost += group[best].cost;
  }
}

// A weight-reduction move down the group's hull.
struct Move {
  double efficiency;  // delta cost / delta weight
  std::size_t group;
  int to;
  bool operator>(const Move& other) const { return efficiency > other.efficiency; }
};

// Weight-reduction walk, cheapest marginal cost per unit of weight first
// (the convex-hull walk of the LP relaxation). Stops once total_weight fits
// `capacity` or no move remains; `choice` and the running totals are updated
// in place and `moves` counts committed moves.
void WalkDown(const MckpProblem& problem, const MckpPruning& pruning, double capacity,
              std::vector<int>& choice, double& total_weight, double& total_cost,
              std::size_t& moves) {
  auto next_move = [&](std::size_t g) -> Move {
    const auto& group = problem.groups[g];
    const auto& cur = group[choice[g]];
    Move best{kInf, g, -1};
    // The walk starts on the hull (min-cost choices are hull points) and
    // stays there, so off-hull choices can never be the efficiency minimum —
    // skipping them reproduces the full scan.
    for (const int k : pruning.hull[g]) {
      const double dw = cur.weight - group[k].weight;
      if (dw <= 1e-12) {
        continue;
      }
      const double dc = group[k].cost - cur.cost;
      const double eff = dc / dw;
      if (eff < best.efficiency) {
        best = Move{eff, g, k};
      }
    }
    return best;
  };

  std::priority_queue<Move, std::vector<Move>, std::greater<Move>> heap;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const Move m = next_move(g);
    if (m.to >= 0) {
      heap.push(m);
    }
  }
  while (total_weight > capacity && !heap.empty()) {
    const Move m = heap.top();
    heap.pop();
    // The stored move may be stale if the group has moved since; recompute.
    const Move fresh = next_move(m.group);
    if (fresh.to < 0) {
      continue;
    }
    if (fresh.to != m.to || std::abs(fresh.efficiency - m.efficiency) > 1e-12) {
      heap.push(fresh);
      continue;
    }
    const auto& group = problem.groups[m.group];
    total_weight -= group[choice[m.group]].weight - group[m.to].weight;
    total_cost += group[m.to].cost - group[choice[m.group]].cost;
    choice[m.group] = m.to;
    ++moves;
    const Move again = next_move(m.group);
    if (again.to >= 0) {
      heap.push(again);
    }
  }
}

// Local improvement: spend leftover budget on cost reductions, best gain
// first per group, until a pass makes no change or eight passes ran.
void ImprovementPass(const MckpProblem& problem, const MckpPruning& pruning,
                     std::vector<int>& choice, double& total_weight, double& total_cost,
                     double capacity) {
  constexpr int kMaxRounds = 8;
  // Rounds after the first revisit only the groups that moved last round (a
  // dirty worklist). This is exactly the full re-scan: every committed move
  // strictly *consumes* budget slack (a cheaper no-heavier sibling would
  // dominate the current choice, so any gain candidate is strictly heavier),
  // so a group left untouched at some visit — no feasible gain under the
  // then-larger slack — can never acquire one until its own choice changes.
  std::vector<std::size_t> dirty;
  std::vector<std::size_t> next_dirty;
  for (int round = 0; round < kMaxRounds; ++round) {
    next_dirty.clear();
    auto visit = [&](std::size_t g) {
      const auto& group = problem.groups[g];
      const auto& cur = group[choice[g]];
      int best = -1;
      double best_gain = 0.0;
      // Dominated candidates are safe to skip: the dominator fits whenever
      // they do and gains at least as much (hull restriction would NOT be —
      // a budget cutting mid-segment can make an interior point the best
      // feasible gain).
      for (const int k : pruning.dominant[g]) {
        const double dc = cur.cost - group[k].cost;
        const double dw = group[k].weight - cur.weight;
        if (dc > best_gain && total_weight + dw <= capacity * (1.0 + 1e-12)) {
          best = k;
          best_gain = dc;
        }
      }
      if (best >= 0) {
        total_weight += group[best].weight - cur.weight;
        total_cost -= best_gain;
        choice[g] = best;
        next_dirty.push_back(g);  // ascending: g visits are in ascending order
      }
    };
    if (round == 0) {
      for (std::size_t g = 0; g < problem.groups.size(); ++g) {
        visit(g);
      }
    } else {
      for (const std::size_t g : dirty) {
        visit(g);
      }
    }
    if (next_dirty.empty()) {
      break;
    }
    dirty.swap(next_dirty);
  }
}

// Recomputes the solution's totals as fresh group-order sums, which makes
// ValidateSolution's reported-cost check exact.
void FreshTotals(const MckpProblem& problem, MckpSolution& solution) {
  solution.total_cost = 0.0;
  solution.total_weight = 0.0;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const auto& choice = problem.groups[g][solution.choice[g]];
    solution.total_cost += choice.cost;
    solution.total_weight += choice.weight;
  }
}

}  // namespace

Status ValidateSolution(const MckpProblem& problem, const MckpSolution& solution) {
  if (solution.choice.size() != problem.groups.size()) {
    return InvalidArgument("mckp: solution size mismatch");
  }
  double weight = 0.0;
  double cost = 0.0;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const int k = solution.choice[g];
    if (k < 0 || k >= static_cast<int>(problem.groups[g].size())) {
      return InvalidArgument("mckp: bad choice index");
    }
    weight += problem.groups[g][k].weight;
    cost += problem.groups[g][k].cost;
  }
  if (weight > problem.capacity * (1.0 + 1e-9) + 1e-9) {
    return FailedPrecondition("mckp: solution exceeds capacity");
  }
  if (std::abs(cost - solution.total_cost) > 1e-6 * (1.0 + std::abs(cost))) {
    return FailedPrecondition("mckp: reported cost mismatch");
  }
  return OkStatus();
}

StatusOr<MckpSolution> MckpSolver::Solve(const MckpProblem& problem) {
  // Per-solve stats: reset before anything can fail, so back-to-back windows
  // — including ones whose solve is rejected or times out — never report the
  // previous solve's dp_cells/greedy_moves (MckpSolverTest.StatsResetPerSolve).
  stats_ = SolveStats{};
  // Injected faults fire before any solving work, modeling the solve being
  // abandoned at the window boundary (§8.4) rather than mid-DP.
  if (ShouldInjectFault(fault_, FaultSite::kSolverTimeout)) {
    return DeadlineExceeded("mckp: solve exceeded its window budget (injected)");
  }
  if (ShouldInjectFault(fault_, FaultSite::kSolverInfeasible)) {
    return ResourceExhausted("mckp: no feasible placement (injected)");
  }
  TS_RETURN_IF_ERROR(CheckProblem(problem));
  std::size_t pairs = 0;
  for (const auto& group : problem.groups) {
    pairs += group.size();
  }
  Strategy strategy = options_.strategy;
  if (strategy == Strategy::kAuto) {
    // Beyond kDpBucketsMax the DP's rounding loss grows with group count
    // while its cost grows with buckets; the greedy is both faster and (with
    // its local-improvement pass) more accurate there.
    strategy = pairs * static_cast<std::size_t>(EffectiveBuckets(problem.groups.size())) <=
                       kAutoGreedyThreshold * 8
                   ? Strategy::kDp
                   : Strategy::kGreedy;
  }
  stats_.used = strategy;
  const MckpPruning pruning = BuildPruning(problem, options_.prune, stats_);
  if (strategy == Strategy::kDp) {
    auto solution = SolveDp(problem, pruning);
    if (solution.ok() || solution.status().code() != StatusCode::kResourceExhausted) {
      return solution;
    }
    // The DP rounds weights up; an exact-fit budget can become infeasible
    // at the chosen resolution. The greedy path uses exact arithmetic.
    stats_.used = Strategy::kGreedy;
  }
  return SolveGreedy(problem, pruning);
}

int MckpSolver::EffectiveBuckets(std::size_t n_groups) const {
  const std::size_t scaled = 16 * n_groups;
  const auto wanted = std::max<std::size_t>(scaled, options_.dp_buckets);
  return static_cast<int>(std::min<std::size_t>(wanted, kDpBucketsMax));
}

StatusOr<MckpSolution> MckpSolver::SolveDp(const MckpProblem& problem,
                                           const MckpPruning& pruning) {
  const std::size_t n_groups = problem.groups.size();
  const int buckets = EffectiveBuckets(n_groups);
  // Bucket width; capacity 0 degenerates to "all weights must be 0".
  const double width =
      problem.capacity > 0.0 ? problem.capacity / static_cast<double>(buckets) : 1.0;
  auto quantize = [&](double weight) -> int {
    if (weight <= 0.0) {
      return 0;
    }
    if (problem.capacity <= 0.0) {
      return buckets + 1;  // any positive weight is over a zero budget
    }
    const double q = std::ceil(weight / width - 1e-12);
    return q > static_cast<double>(buckets) ? buckets + 1 : static_cast<int>(q);
  };

  // dp[b]: min cost over processed groups with quantized weight <= b.
  std::vector<double> dp(buckets + 1, kInf);
  std::vector<double> next(buckets + 1, kInf);
  // pick[g * (buckets+1) + b]: chosen index for group g at budget b.
  std::vector<std::uint8_t> pick(n_groups * (buckets + 1), 0xff);
  dp.assign(buckets + 1, 0.0);

  for (std::size_t g = 0; g < n_groups; ++g) {
    const auto& group = problem.groups[g];
    const std::vector<int>& keep = pruning.dominant[g];
    TS_CHECK_LE(group.size(), std::size_t{0xff});
    std::fill(next.begin(), next.end(), kInf);
    for (int b = 0; b <= buckets; ++b) {
      double best = kInf;
      int best_k = -1;
      // Dominated choices are cost-neutral to skip: dp[] is non-increasing in
      // b and quantize() is monotone in weight, so a dominator's candidate is
      // always <= the dominated choice's, and keep-first preserves the
      // first-index tie-break below.
      for (const int k : keep) {
        const int wq = quantize(group[k].weight);
        if (wq > b) {
          continue;
        }
        const double cand = dp[b - wq] + group[k].cost;
        if (cand < best) {
          best = cand;
          best_k = k;
        }
      }
      next[b] = best;
      pick[g * (buckets + 1) + b] = best_k < 0 ? 0xff : static_cast<std::uint8_t>(best_k);
    }
    dp.swap(next);
    stats_.dp_cells += static_cast<std::size_t>(buckets + 1) * keep.size();
  }
  if (!std::isfinite(dp[buckets])) {
    return ResourceExhausted("mckp: no feasible assignment at this resolution");
  }

  // Reconstruct choices walking budgets backwards.
  MckpSolution solution;
  solution.choice.assign(n_groups, 0);
  int b = buckets;
  for (std::size_t g = n_groups; g-- > 0;) {
    const std::uint8_t k = pick[g * (buckets + 1) + b];
    TS_CHECK(k != 0xff);
    solution.choice[g] = k;
    b -= quantize(problem.groups[g][k].weight);
  }
  FreshTotals(problem, solution);
  solution.optimal = true;
  return solution;
}

StatusOr<MckpSolution> MckpSolver::SolveGreedy(const MckpProblem& problem,
                                               const MckpPruning& pruning) {
  const std::size_t n_groups = problem.groups.size();
  MckpSolution solution;
  solution.choice.assign(n_groups, 0);
  double total_weight = 0.0;
  double total_cost = 0.0;
  SeedMinCost(problem, pruning, solution.choice, total_weight, total_cost);
  WalkDown(problem, pruning, problem.capacity, solution.choice, total_weight, total_cost,
           stats_.greedy_moves);
  if (total_weight > problem.capacity * (1.0 + 1e-9)) {
    return ResourceExhausted("mckp: greedy could not meet capacity");
  }
  ImprovementPass(problem, pruning, solution.choice, total_weight, total_cost, problem.capacity);
  solution.total_cost = total_cost;
  solution.total_weight = total_weight;
  solution.optimal = false;
  return solution;
}

}  // namespace tierscape
