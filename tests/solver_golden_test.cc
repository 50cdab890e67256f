// Golden digests of what the cold MCKP solve returns: the chosen tier per
// group, the totals' bit patterns, the optimality flag and the per-solve
// work counters, over seeded problems of 1 to 2000 groups and 2 to 12
// choices. Every boundary placement of the analytical model (§6.4) comes out
// of this solve, so a solver change that moves one choice, one rounding bit
// or the DP/greedy pick must fail here; this is the oracle for cleanup and
// performance work on src/solver.
//
// Each digest is FNV-1a. On a mismatch the test prints the actual value.
// Change a constant only for an intended change of solver output, and record
// why in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/solver/mckp.h"

namespace tierscape {
namespace {

class Digest {
 public:
  void Add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

using Strategy = MckpSolver::Strategy;

// Choice-list shapes:
//  kInteger    — integer costs and weights below 1000: exact ties, dominated
//                choices and colinear hull points are common.
//  kContinuous — uniform doubles, no ties.
//  kTierLike   — the analytical model's shape: choice 0 is the heaviest and
//                cheapest (DRAM), every later choice lighter and dearer.
enum class Shape { kInteger, kContinuous, kTierLike };
constexpr Shape kShapes[] = {Shape::kInteger, Shape::kContinuous, Shape::kTierLike};

// Capacity as a fraction of the span between the minimum- and maximum-weight
// assignments. 0 is the exact fit, which the DP's round-up can make
// infeasible (the greedy then solves it); 1 makes the budget slack.
constexpr double kFractions[] = {0.0, 0.02, 0.25, 0.5, 0.8, 1.0, 1.3};

MckpProblem MakeProblem(Rng& rng, int groups, int choices, Shape shape, double fraction) {
  MckpProblem problem;
  double min_total = 0.0;
  double max_total = 0.0;
  for (int g = 0; g < groups; ++g) {
    std::vector<MckpChoice> group(choices);
    const double scale = 0.5 + rng.NextDouble();
    const double heat = rng.NextDouble() * 100.0;
    for (int k = 0; k < choices; ++k) {
      MckpChoice& choice = group[k];
      switch (shape) {
        case Shape::kInteger:
          choice.cost = static_cast<double>(rng.NextBelow(1000));
          choice.weight = static_cast<double>(rng.NextBelow(1000));
          break;
        case Shape::kContinuous:
          choice.cost = rng.NextDouble() * 1e6;
          choice.weight = rng.NextDouble();
          break;
        case Shape::kTierLike:
          choice.weight = k == 0 ? scale : group[k - 1].weight * (0.3 + 0.6 * rng.NextDouble());
          choice.cost = k == 0 ? 0.0 : group[k - 1].cost + heat * rng.NextDouble();
          break;
      }
    }
    double group_min = group[0].weight;
    double group_max = group[0].weight;
    for (const MckpChoice& choice : group) {
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
    }
    min_total += group_min;
    max_total += group_max;
    problem.groups.push_back(std::move(group));
  }
  problem.capacity = min_total + fraction * (max_total - min_total);
  return problem;
}

// Same bucket rule as MckpSolver: 16 per group, at least 2048, at most 16384.
std::size_t DpCells(const MckpProblem& problem) {
  const std::size_t n = problem.groups.size();
  const std::size_t buckets = std::min<std::size_t>(std::max<std::size_t>(16 * n, 2048), 16384);
  return n * problem.groups[0].size() * (buckets + 1);
}

struct Tally {
  std::size_t solves = 0;
  std::size_t dp = 0;
  std::size_t greedy = 0;
  std::size_t dp_fell_back = 0;  // kDp asked, greedy answered
  std::size_t failed = 0;
};

// Cold-solves `problem` with one strategy and pruning setting, and adds the
// status code, the solution and the work counters to `digest`. Returns the
// strategy the solver used.
Strategy AddSolve(Digest& digest, Tally& tally, const MckpProblem& problem, Strategy strategy,
                  bool prune) {
  MckpSolver::Options options;
  options.strategy = strategy;
  options.prune = prune;
  MckpSolver solver(options);
  const StatusOr<MckpSolution> solution = solver.Solve(problem);
  digest.Add(static_cast<std::uint64_t>(solution.status().code()));
  ++tally.solves;
  if (solution.ok()) {
    digest.Add(static_cast<std::uint64_t>(solution->choice.size()));
    for (const int k : solution->choice) {
      digest.Add(static_cast<std::uint64_t>(k));
    }
    digest.Add(solution->total_cost);
    digest.Add(solution->total_weight);
    digest.Add(static_cast<std::uint64_t>(solution->optimal));
  } else {
    ++tally.failed;
  }
  const MckpSolver::SolveStats& stats = solver.stats();
  digest.Add(static_cast<std::uint64_t>(stats.used));
  digest.Add(static_cast<std::uint64_t>(stats.dp_cells));
  digest.Add(static_cast<std::uint64_t>(stats.greedy_moves));
  digest.Add(static_cast<std::uint64_t>(stats.choices_total));
  digest.Add(static_cast<std::uint64_t>(stats.pruned_dominated));
  digest.Add(static_cast<std::uint64_t>(stats.pruned_off_hull));
  if (solution.ok()) {
    ++(stats.used == Strategy::kDp ? tally.dp : tally.greedy);
    if (strategy == Strategy::kDp && stats.used == Strategy::kGreedy) {
      ++tally.dp_fell_back;
    }
  }
  return stats.used;
}

// Every strategy × prune combination; forced kDp only up to `max_dp_cells`.
void AddAllConfigs(Digest& digest, Tally& tally, const MckpProblem& problem,
                   std::size_t max_dp_cells) {
  for (const bool prune : {true, false}) {
    AddSolve(digest, tally, problem, Strategy::kAuto, prune);
    AddSolve(digest, tally, problem, Strategy::kGreedy, prune);
    if (DpCells(problem) <= max_dp_cells) {
      AddSolve(digest, tally, problem, Strategy::kDp, prune);
    }
  }
}

// Digests of the four case sets below, computed on the tree this test was
// added to.
constexpr std::uint64_t kSmallDigest = 0x9134bdbff6d84f3eULL;
constexpr std::uint64_t kLargeDigest = 0xb3548fb43942a0f6ULL;
constexpr std::uint64_t kCrossoverDigest = 0xa63ee8f774474eb9ULL;
constexpr std::uint64_t kExactFitDigest = 0x82485dbf5bca02c1ULL;

TEST(SolverGoldenTest, SmallInstances) {
  // 1 to 16 groups, every choice count from 2 to 12, every shape and every
  // capacity fraction, under all six strategy × prune combinations.
  Rng rng(8101);
  Digest digest;
  Tally tally;
  for (const int groups : {1, 2, 3, 5, 8, 16}) {
    for (int choices = 2; choices <= 12; ++choices) {
      for (const Shape shape : kShapes) {
        for (const double fraction : kFractions) {
          AddAllConfigs(digest, tally, MakeProblem(rng, groups, choices, shape, fraction),
                        std::size_t{1} << 40);
        }
      }
    }
  }
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_GT(tally.dp_fell_back, 0u);
  EXPECT_EQ(digest.value(), kSmallDigest) << "actual 0x" << std::hex << digest.value();
}

TEST(SolverGoldenTest, LargeInstances) {
  // 40 to 2000 groups: kAuto picks the DP on the smaller ones and greedy on
  // the larger; forced kDp runs where its table stays under 8M cells. The
  // shape rotates through the sizes and capacity fractions.
  Rng rng(8102);
  Digest digest;
  Tally tally;
  int turn = 0;
  for (const int groups : {40, 200, 500, 1000, 2000}) {
    for (const int choices : {2, 5, 12}) {
      for (const double fraction : {0.0, 0.25, 0.8, 1.3}) {
        const Shape shape = kShapes[turn++ % 3];
        AddAllConfigs(digest, tally, MakeProblem(rng, groups, choices, shape, fraction),
                      8'000'000);
      }
    }
  }
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_GT(tally.dp, 0u);
  EXPECT_GT(tally.greedy, 0u);
  EXPECT_EQ(digest.value(), kLargeDigest) << "actual 0x" << std::hex << digest.value();
}

TEST(SolverGoldenTest, AutoCrossover) {
  // kAuto picks the DP while (group-choice pairs) × (DP buckets) is at most
  // 32M. Each pair below sits on either side of that line.
  struct Case {
    int groups;
    int choices;
    Strategy expected;
  };
  const Case cases[] = {
      {500, 8, Strategy::kDp},   {500, 9, Strategy::kGreedy},
      {707, 4, Strategy::kDp},   {708, 4, Strategy::kGreedy},
      {1000, 2, Strategy::kDp},  {1001, 2, Strategy::kGreedy},
      {125, 12, Strategy::kDp},  {1500, 3, Strategy::kGreedy},
  };
  Rng rng(8103);
  Digest digest;
  Tally tally;
  int turn = 0;
  for (const Case& c : cases) {
    const MckpProblem problem = MakeProblem(rng, c.groups, c.choices, kShapes[turn++ % 3], 0.4);
    for (const bool prune : {true, false}) {
      EXPECT_EQ(AddSolve(digest, tally, problem, Strategy::kAuto, prune), c.expected)
          << c.groups << "x" << c.choices;
    }
  }
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(digest.value(), kCrossoverDigest) << "actual 0x" << std::hex << digest.value();
}

TEST(SolverGoldenTest, ExactFitAndInfeasible) {
  // Exact-fit budgets, where the DP's rounded weights overflow and the
  // greedy answers, and budgets below the minimum-weight assignment, which
  // every strategy must reject the same way.
  Rng rng(8104);
  Digest digest;
  Tally tally;
  for (const int groups : {1, 4, 16, 100, 300}) {
    for (const int choices : {2, 3, 7, 12}) {
      for (const Shape shape : kShapes) {
        MckpProblem problem = MakeProblem(rng, groups, choices, shape, 0.0);
        AddAllConfigs(digest, tally, problem, 8'000'000);
        problem.capacity = problem.capacity * 0.5 - 1.0;
        AddAllConfigs(digest, tally, problem, 8'000'000);
      }
    }
  }
  EXPECT_GT(tally.dp_fell_back, 0u);
  EXPECT_GT(tally.failed, 0u);
  EXPECT_EQ(digest.value(), kExactFitDigest) << "actual 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace tierscape
