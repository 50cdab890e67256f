// §8.4 solver cost at scale: the MCKP ("ILP") solver's 10³ -> 10⁶-region cold
// scaling curve. Every profile window runs one cold solve (DESIGN.md §4e), so
// this curve is the per-window solve cost; the paper reports OR-Tools
// consuming <0.3% of a CPU and ~480 MB at paper scale. Greedy cells cover
// every size; DP cells cover the sizes whose DP table fits in memory
// (groups × 16384 buckets), including paper scale (4096 regions × 6 tiers).
//
// Cells run through the experiment grid, so per-cell wall/solver/* metrics
// land in $TIERSCAPE_BENCH_JSON (the perf trajectory across PRs) while
// stdout carries only deterministic solver outputs — total cost, move and
// cell counts — byte-identical across grid thread counts
// (tools/bench_smoke.sh diffs them). Wall-clock times go to stderr.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment_grid.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/solver/mckp.h"

using namespace tierscape;
using namespace tierscape::bench;

namespace {

constexpr int kTiers = 6;  // the standard mix's tier count (§8.1)

MckpProblem MakeProblem(std::size_t groups, double tightness, std::uint64_t seed) {
  Rng rng(seed);
  MckpProblem problem;
  problem.groups.reserve(groups);
  double min_total = 0.0;
  double max_total = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<MckpChoice> group;
    group.reserve(kTiers);
    double group_min = 1e18;
    double group_max = 0.0;
    for (int k = 0; k < kTiers; ++k) {
      MckpChoice choice{.cost = rng.NextDouble() * 1e6, .weight = rng.NextDouble()};
      group_min = std::min(group_min, choice.weight);
      group_max = std::max(group_max, choice.weight);
      group.push_back(choice);
    }
    min_total += group_min;
    max_total += group_max;
    problem.groups.push_back(std::move(group));
  }
  problem.capacity = min_total + tightness * (max_total - min_total);
  return problem;
}

struct CurveCell {
  std::string label;
  std::size_t groups = 0;
  MckpSolver::Strategy strategy = MckpSolver::Strategy::kGreedy;
};

// Runs one scaling-curve cell: one cold solve. Deterministic solver outputs
// go into `extras` for the stdout table; the measured time goes to the cell's
// wall/ gauges only (this TU is determinism-quarantine allowlisted, so every
// metric it registers must be wall/-prefixed).
ExperimentResult RunCurveCell(const CurveCell& cell, Observability& obs) {
  ExperimentResult result;
  result.workload = "mckp";
  result.policy = cell.label;
  Gauge& wall_solve_ms = obs.metrics.GetGauge("wall/solver/solve_ms");
  Gauge& wall_cold_ms = obs.metrics.GetGauge("wall/solver/cold_ms");

  const MckpProblem problem = MakeProblem(cell.groups, 0.3, 42);
  MckpSolver::Options options;
  options.strategy = cell.strategy;
  MckpSolver solver(options);

  const auto start = std::chrono::steady_clock::now();
  auto solution = solver.Solve(problem);
  const double solve_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  TS_CHECK(solution.ok()) << cell.label << ": " << solution.status().ToString();
  TS_CHECK(ValidateSolution(problem, *solution).ok()) << cell.label;
  const MckpSolver::SolveStats& stats = solver.stats();
  TS_CHECK(stats.used == cell.strategy) << cell.label << ": solved by the other strategy";
  result.extras.emplace_back("groups", static_cast<double>(cell.groups));
  result.extras.emplace_back("cost", solution->total_cost);
  result.extras.emplace_back("greedy_moves", static_cast<double>(stats.greedy_moves));
  result.extras.emplace_back("dp_cells", static_cast<double>(stats.dp_cells));
  result.extras.emplace_back("pruned", static_cast<double>(stats.pruned_dominated));
  // Wall-side records (BENCH_grid.json + stderr; never stdout).
  result.extras.emplace_back("wall_solve_ms", solve_ms);
  wall_solve_ms.Set(solve_ms);
  wall_cold_ms.Set(solve_ms);
  return result;
}

std::string ResultsTable(const std::vector<ExperimentResult>& results) {
  TablePrinter table({"cell", "groups", "cost", "greedy moves", "dp cells", "pruned"});
  for (const ExperimentResult& r : results) {
    table.AddRow({r.policy, TablePrinter::Fmt(r.Extra("groups"), 0),
                  TablePrinter::Fmt(r.Extra("cost"), 0),
                  TablePrinter::Fmt(r.Extra("greedy_moves"), 0),
                  TablePrinter::Fmt(r.Extra("dp_cells"), 0),
                  TablePrinter::Fmt(r.Extra("pruned"), 0)});
  }
  return table.ToString();
}

}  // namespace

int main() {
  const bool smoke = BenchSmoke();
  // Smoke keeps the curve tiny so every CI leg still exercises both
  // strategies (EXPERIMENTS.md "CI smoke").
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1'000, 10'000}
            : std::vector<std::size_t>{1'000, 4'096, 10'000, 100'000, 1'000'000};
  const std::vector<std::size_t> dp_sizes =
      smoke ? std::vector<std::size_t>{1'000} : std::vector<std::size_t>{1'000, 4'096};

  ExperimentGrid grid("micro_solver");
  std::vector<CurveCell> cells;
  for (const std::size_t n : sizes) {
    cells.push_back({"cold/n" + std::to_string(n), n, MckpSolver::Strategy::kGreedy});
  }
  for (const std::size_t n : dp_sizes) {
    cells.push_back({"dp/n" + std::to_string(n), n, MckpSolver::Strategy::kDp});
  }
  for (const CurveCell& cell : cells) {
    CellSpec spec;
    spec.label = cell.label;
    spec.run = [cell](Observability& obs, const CellContext&) { return RunCurveCell(cell, obs); };
    grid.Add(std::move(spec));
  }
  const std::vector<ExperimentResult> results = grid.Run();

  std::printf("Micro: MCKP cold-solve scaling curve, greedy and DP (%s)\n\n",
              smoke ? "smoke" : "full");
  std::printf("%s\n", ResultsTable(results).c_str());

  // Wall-clock reporting (stderr: host-dependent, excluded from the smoke
  // byte-diff).
  for (const ExperimentResult& r : results) {
    std::fprintf(stderr, "%s: %.2f ms\n", r.policy.c_str(), r.Extra("wall_solve_ms"));
  }
  return 0;
}
