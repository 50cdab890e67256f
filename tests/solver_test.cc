// Tests for the MCKP solver: correctness against brute force on randomized
// small instances (both strategies), budget handling, and edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/solver/mckp.h"

namespace tierscape {
namespace {

// Exhaustive optimum for small instances.
double BruteForce(const MckpProblem& problem) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> choice(problem.groups.size(), 0);
  for (;;) {
    double cost = 0.0;
    double weight = 0.0;
    for (std::size_t g = 0; g < problem.groups.size(); ++g) {
      cost += problem.groups[g][choice[g]].cost;
      weight += problem.groups[g][choice[g]].weight;
    }
    if (weight <= problem.capacity && cost < best) {
      best = cost;
    }
    // Odometer increment.
    std::size_t g = 0;
    while (g < choice.size()) {
      if (++choice[g] < static_cast<int>(problem.groups[g].size())) {
        break;
      }
      choice[g] = 0;
      ++g;
    }
    if (g == choice.size()) {
      break;
    }
  }
  return best;
}

MckpProblem RandomProblem(Rng& rng, int groups, int choices) {
  MckpProblem problem;
  double min_weight_total = 0.0;
  double max_weight_total = 0.0;
  for (int g = 0; g < groups; ++g) {
    std::vector<MckpChoice> group;
    double group_min = 1e18;
    double group_max = 0.0;
    for (int k = 0; k < choices; ++k) {
      MckpChoice choice;
      choice.cost = static_cast<double>(rng.NextBelow(1000));
      choice.weight = static_cast<double>(rng.NextBelow(1000));
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
      group.push_back(choice);
    }
    min_weight_total += group_min;
    max_weight_total += group_max;
    problem.groups.push_back(std::move(group));
  }
  problem.capacity =
      min_weight_total + rng.NextDouble() * (max_weight_total - min_weight_total);
  return problem;
}

TEST(MckpSolverTest, TrivialSingleGroup) {
  MckpProblem problem;
  problem.groups = {{{.cost = 10.0, .weight = 5.0}, {.cost = 1.0, .weight = 20.0}}};
  problem.capacity = 25.0;
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->choice[0], 1);  // cheap choice fits
  EXPECT_DOUBLE_EQ(solution->total_cost, 1.0);
}

TEST(MckpSolverTest, BudgetForcesExpensiveChoice) {
  MckpProblem problem;
  problem.groups = {{{.cost = 10.0, .weight = 5.0}, {.cost = 1.0, .weight = 20.0}}};
  problem.capacity = 10.0;
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->choice[0], 0);
  EXPECT_LE(solution->total_weight, 10.0);
}

TEST(MckpSolverTest, InfeasibleReported) {
  MckpProblem problem;
  problem.groups = {{{.cost = 1.0, .weight = 50.0}, {.cost = 2.0, .weight = 60.0}}};
  problem.capacity = 10.0;
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kResourceExhausted);
}

TEST(MckpSolverTest, RejectsMalformedProblems) {
  MckpSolver solver;
  EXPECT_FALSE(solver.Solve(MckpProblem{}).ok());
  MckpProblem empty_group;
  empty_group.groups = {{}};
  empty_group.capacity = 1.0;
  EXPECT_FALSE(solver.Solve(empty_group).ok());
}

TEST(MckpSolverTest, ZeroCapacityWithZeroWeights) {
  MckpProblem problem;
  problem.groups = {{{.cost = 3.0, .weight = 0.0}, {.cost = 1.0, .weight = 1.0}}};
  problem.capacity = 0.0;
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->choice[0], 0);
}

// Parameterized: DP matches brute force on random instances. The DP rounds
// weights up to capacity/8192 buckets; with weights up to 1000 and ~6 groups
// the discretization error is far below one unit of cost here, so we allow
// a tiny slack only.
class DpExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(DpExactnessTest, MatchesBruteForce) {
  Rng rng(1000 + GetParam());
  for (int round = 0; round < 20; ++round) {
    const MckpProblem problem = RandomProblem(rng, 5, 4);
    MckpSolver::Options options;
    options.strategy = MckpSolver::Strategy::kDp;
    options.dp_buckets = 16384;
    MckpSolver solver(options);
    auto solution = solver.Solve(problem);
    const double brute = BruteForce(problem);
    if (!solution.ok()) {
      // The DP may only fail when even the min assignment barely fits; the
      // brute-force must then also be infeasible or borderline.
      EXPECT_TRUE(std::isinf(brute));
      continue;
    }
    EXPECT_TRUE(ValidateSolution(problem, *solution).ok());
    // Rounding up weights can exclude solutions that fit exactly; allow the
    // DP to be no better than brute force and within a small factor above.
    EXPECT_GE(solution->total_cost, brute - 1e-9);
    EXPECT_LE(solution->total_cost, brute + 200.0)
        << "DP too far from optimum in round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpExactnessTest, ::testing::Range(0, 5));

// Greedy must be feasible and close to optimal on random instances.
class GreedyQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyQualityTest, FeasibleAndNearOptimal) {
  Rng rng(2000 + GetParam());
  double total_gap = 0.0;
  int measured = 0;
  for (int round = 0; round < 20; ++round) {
    const MckpProblem problem = RandomProblem(rng, 6, 4);
    MckpSolver::Options options;
    options.strategy = MckpSolver::Strategy::kGreedy;
    MckpSolver solver(options);
    auto solution = solver.Solve(problem);
    const double brute = BruteForce(problem);
    if (!solution.ok()) {
      continue;
    }
    EXPECT_TRUE(ValidateSolution(problem, *solution).ok());
    EXPECT_GE(solution->total_cost, brute - 1e-9);
    total_gap += (solution->total_cost - brute) / (brute + 1.0);
    ++measured;
  }
  ASSERT_GT(measured, 10);
  EXPECT_LT(total_gap / measured, 0.25) << "greedy average gap too large";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyQualityTest, ::testing::Range(0, 5));

TEST(MckpSolverTest, LargeInstanceSolvesQuickly) {
  // Paper-scale: thousands of regions x 6 tiers (§8.4 reports <0.3% CPU).
  Rng rng(3);
  MckpProblem problem;
  double min_total = 0.0;
  double max_total = 0.0;
  for (int g = 0; g < 4000; ++g) {
    std::vector<MckpChoice> group;
    double group_min = 1e18;
    double group_max = 0.0;
    for (int k = 0; k < 6; ++k) {
      MckpChoice choice{.cost = rng.NextDouble() * 1e6, .weight = rng.NextDouble()};
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
      group.push_back(choice);
    }
    min_total += group_min;
    max_total += group_max;
    problem.groups.push_back(std::move(group));
  }
  problem.capacity = min_total + 0.3 * (max_total - min_total);
  MckpSolver solver;
  auto solution = solver.Solve(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(ValidateSolution(problem, *solution).ok());
  EXPECT_LE(solution->total_weight, problem.capacity * (1.0 + 1e-9));
}

TEST(MckpSolverTest, AlphaSweepMonotonicity) {
  // As the budget loosens, optimal cost must not increase — the knob's
  // monotone TCO/perf trade-off (Fig. 5/10) rests on this.
  Rng rng(17);
  const MckpProblem base = RandomProblem(rng, 8, 5);
  double min_total = 0.0;
  double max_total = 0.0;
  for (const auto& group : base.groups) {
    double group_min = 1e18;
    double group_max = 0.0;
    for (const auto& choice : group) {
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
    }
    min_total += group_min;
    max_total += group_max;
  }
  double previous_cost = std::numeric_limits<double>::infinity();
  for (double alpha = 0.0; alpha <= 1.0001; alpha += 0.1) {
    MckpProblem problem = base;
    problem.capacity = min_total + alpha * (max_total - min_total);
    MckpSolver solver;
    auto solution = solver.Solve(problem);
    ASSERT_TRUE(solution.ok()) << "alpha " << alpha;
    EXPECT_LE(solution->total_cost, previous_cost + 1e-6) << "alpha " << alpha;
    previous_cost = solution->total_cost;
  }
}

TEST(MckpSolverTest, DpRoundingLossBoundedAtScale) {
  // At 1024 groups the DP's cumulative weight round-up must stay small
  // enough that greedy cannot beat it by more than a few percent.
  Rng rng(55);
  MckpProblem problem;
  double min_total = 0.0;
  double max_total = 0.0;
  for (int g = 0; g < 1024; ++g) {
    std::vector<MckpChoice> group;
    double group_min = 1e18;
    double group_max = 0.0;
    for (int k = 0; k < 6; ++k) {
      MckpChoice choice{.cost = rng.NextDouble() * 1e6, .weight = rng.NextDouble()};
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
      group.push_back(choice);
    }
    min_total += group_min;
    max_total += group_max;
    problem.groups.push_back(std::move(group));
  }
  problem.capacity = min_total + 0.3 * (max_total - min_total);
  MckpSolver::Options dp_options;
  dp_options.strategy = MckpSolver::Strategy::kDp;
  MckpSolver dp(dp_options);
  MckpSolver::Options greedy_options;
  greedy_options.strategy = MckpSolver::Strategy::kGreedy;
  MckpSolver greedy(greedy_options);
  auto dp_solution = dp.Solve(problem);
  auto greedy_solution = greedy.Solve(problem);
  ASSERT_TRUE(dp_solution.ok());
  ASSERT_TRUE(greedy_solution.ok());
  EXPECT_LT(dp_solution->total_cost, greedy_solution->total_cost * 1.05)
      << "DP rounding loss too large at scale";
}

// Pruning (Options::prune) must be invisible in the solved cost: dominance
// pruning is exact for the DP and the greedy seed/improvement scans, and the
// hull restriction is exact for the greedy efficiency walk. The integer-valued
// RandomProblem generator makes exact cost/weight ties and colinear triples
// common, so this also exercises the keep-first tie-break paths.
class PruningEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PruningEquivalenceTest, PruningPreservesTotalCost) {
  Rng rng(4000 + GetParam());
  std::size_t total_dominated = 0;
  for (int round = 0; round < 15; ++round) {
    const MckpProblem problem = RandomProblem(rng, 8, 6);
    for (const MckpSolver::Strategy strategy :
         {MckpSolver::Strategy::kDp, MckpSolver::Strategy::kGreedy}) {
      MckpSolver::Options pruned_options;
      pruned_options.strategy = strategy;
      pruned_options.prune = true;
      MckpSolver::Options full_options = pruned_options;
      full_options.prune = false;
      MckpSolver pruned(pruned_options);
      MckpSolver full(full_options);
      auto pruned_solution = pruned.Solve(problem);
      auto full_solution = full.Solve(problem);
      ASSERT_EQ(pruned_solution.ok(), full_solution.ok())
          << "round " << round << " strategy " << static_cast<int>(strategy);
      if (!pruned_solution.ok()) {
        continue;
      }
      // Bit-exact, not approximate: pruning may only skip choices the full
      // scan provably never picks, so the solve path is move-for-move equal.
      EXPECT_EQ(pruned_solution->total_cost, full_solution->total_cost)
          << "round " << round << " strategy " << static_cast<int>(strategy);
      EXPECT_EQ(pruned_solution->total_weight, full_solution->total_weight)
          << "round " << round << " strategy " << static_cast<int>(strategy);
      EXPECT_EQ(pruned_solution->choice, full_solution->choice)
          << "round " << round << " strategy " << static_cast<int>(strategy);
      EXPECT_TRUE(ValidateSolution(problem, *pruned_solution).ok());
      total_dominated += pruned.stats().pruned_dominated;
      EXPECT_EQ(full.stats().pruned_dominated, 0u);
    }
  }
  // The integer generator produces dominated choices in nearly every group;
  // a zero count would mean the pruner never engaged.
  EXPECT_GT(total_dominated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningEquivalenceTest, ::testing::Range(0, 5));

TEST(MckpSolverTest, PruningHandlesDegenerateTies) {
  // Duplicates, a horizontal (equal-cost) hull segment, and a colinear
  // interior point — the cases where keep-first and colinear-keeping rules
  // carry the exactness proof.
  MckpProblem problem;
  problem.groups = {
      // Exact duplicates plus a dominated straggler.
      {{.cost = 5.0, .weight = 4.0}, {.cost = 5.0, .weight = 4.0}, {.cost = 6.0, .weight = 4.0}},
      // Horizontal segment: equal cost at weights 2/4/6 — heavier ones are
      // dominated yet remain legal efficiency-walk targets (on the hull).
      {{.cost = 3.0, .weight = 6.0}, {.cost = 3.0, .weight = 4.0}, {.cost = 3.0, .weight = 2.0}},
      // Colinear: (2,8) lies exactly on the segment (1,10)-(3,6).
      {{.cost = 10.0, .weight = 1.0}, {.cost = 8.0, .weight = 2.0}, {.cost = 6.0, .weight = 3.0}},
  };
  for (double capacity : {3.0, 5.0, 7.0, 9.0, 11.0, 13.0}) {
    problem.capacity = capacity;
    for (const MckpSolver::Strategy strategy :
         {MckpSolver::Strategy::kDp, MckpSolver::Strategy::kGreedy}) {
      MckpSolver::Options options;
      options.strategy = strategy;
      options.prune = true;
      MckpSolver pruned(options);
      options.prune = false;
      MckpSolver full(options);
      auto pruned_solution = pruned.Solve(problem);
      auto full_solution = full.Solve(problem);
      ASSERT_EQ(pruned_solution.ok(), full_solution.ok()) << "capacity " << capacity;
      if (!pruned_solution.ok()) {
        continue;
      }
      EXPECT_EQ(pruned_solution->total_cost, full_solution->total_cost)
          << "capacity " << capacity << " strategy " << static_cast<int>(strategy);
      EXPECT_EQ(pruned_solution->choice, full_solution->choice)
          << "capacity " << capacity << " strategy " << static_cast<int>(strategy);
    }
  }
}

TEST(MckpSolverTest, PruningShrinksDpWork) {
  // 6-choice groups with integer weights have dominated choices almost
  // always; the DP must visit measurably fewer cells with pruning on and
  // report what it dropped.
  Rng rng(91);
  const MckpProblem problem = RandomProblem(rng, 64, 6);
  MckpSolver::Options options;
  options.strategy = MckpSolver::Strategy::kDp;
  options.prune = true;
  MckpSolver pruned(options);
  options.prune = false;
  MckpSolver full(options);
  ASSERT_TRUE(pruned.Solve(problem).ok());
  ASSERT_TRUE(full.Solve(problem).ok());
  EXPECT_EQ(pruned.stats().choices_total, std::size_t{64 * 6});
  EXPECT_GT(pruned.stats().pruned_dominated, 0u);
  EXPECT_GT(pruned.stats().pruned_off_hull, 0u);
  EXPECT_LT(pruned.stats().dp_cells, full.stats().dp_cells);
  EXPECT_EQ(full.stats().dp_cells - pruned.stats().dp_cells,
            pruned.stats().pruned_dominated * (full.stats().dp_cells / (64 * 6)));
}

TEST(MckpSolverTest, StatsResetPerSolve) {
  // stats() must describe exactly the last Solve call: back-to-back windows
  // reuse one solver, and a cumulative dp_cells/greedy_moves would corrupt
  // the per-window §8.4 accounting.
  Rng rng(7);
  const MckpProblem big = RandomProblem(rng, 64, 6);
  MckpSolver solver;
  ASSERT_TRUE(solver.Solve(big).ok());
  const std::size_t big_cells = solver.stats().dp_cells;
  ASSERT_GT(big_cells, 0u);

  MckpProblem tiny;
  tiny.groups = {{{.cost = 1.0, .weight = 0.0}, {.cost = 2.0, .weight = 0.0}}};
  tiny.capacity = 0.0;
  ASSERT_TRUE(solver.Solve(tiny).ok());
  EXPECT_LT(solver.stats().dp_cells, big_cells);
  EXPECT_EQ(solver.stats().choices_total, 2u);

  // A failed solve reports zero work — not the previous solve's counters.
  MckpProblem infeasible;
  infeasible.groups = {{{.cost = 1.0, .weight = 10.0}}};
  infeasible.capacity = 5.0;
  EXPECT_FALSE(solver.Solve(infeasible).ok());
  EXPECT_EQ(solver.stats().dp_cells, 0u);
  EXPECT_EQ(solver.stats().choices_total, 0u);
  EXPECT_EQ(solver.stats().greedy_moves, 0u);
}

TEST(ValidateSolutionTest, CatchesViolations) {
  MckpProblem problem;
  problem.groups = {{{.cost = 1.0, .weight = 10.0}}};
  problem.capacity = 5.0;
  MckpSolution solution;
  solution.choice = {0};
  solution.total_cost = 1.0;
  solution.total_weight = 10.0;
  EXPECT_FALSE(ValidateSolution(problem, solution).ok());
  solution.choice = {3};
  EXPECT_FALSE(ValidateSolution(problem, solution).ok());
}

}  // namespace
}  // namespace tierscape
