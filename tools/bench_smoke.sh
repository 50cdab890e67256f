#!/usr/bin/env sh
# CI bench smoke (EXPERIMENTS.md "CI smoke"): run every grid-runner bench at
# tiny scale (TIERSCAPE_BENCH_SMOKE=1), once as a fully serial process
# (TIERSCAPE_BENCH_THREADS=1) and once with the shared thread pool at 4, and
# diff everything deterministic between the two runs — stdout tables, merged
# metrics artifacts, merged traces. The pool size is a wall-clock-only knob
# (src/common/thread_pool.h), so any divergence is a determinism regression.
#
# Excluded from the diff by construction:
#   - BENCH_grid.json            per-cell wall-time records
#   - micro_migration.stdout     prints wall-clock speedups by design
#   - micro_grid.stdout          prints wall-clock speedups by design
# (their artifacts ARE still compared). micro_solver keeps its wall-clock
# speedups on stderr, so its stdout table IS part of the diff. The gbench
# pair (micro_compress/micro_zpool) reports wall time only and is not a grid
# bench, so it is out of scope here.
#
# Usage: tools/bench_smoke.sh [BUILD_DIR] [OUT_DIR]
set -eu

BUILD_DIR=${1:-build}
OUT=${2:-bench_smoke}

GRID_BENCHES="fig01_motivation fig02_characterization tab01_tier_space \
fig07_standard_mix fig08_waterfall_trace fig09_am_tco_trace fig10_knob_sweep \
fig11_tail_latency fig12_spectrum_placement fig13_spectrum fig14_daemon_tax \
fig15_resilience fig16_colocation \
ablation_cxl_backing ablation_filter ablation_tier_sets micro_access \
micro_migration micro_grid micro_solver"

rm -rf "$OUT"
for threads in 1 4; do
  dir="$OUT/t$threads"
  mkdir -p "$dir"
  for b in $GRID_BENCHES; do
    echo "[bench_smoke] $b (threads=$threads)"
    TIERSCAPE_BENCH_SMOKE=1 TIERSCAPE_BENCH_THREADS=$threads TIERSCAPE_TRACE=1 \
      TIERSCAPE_OBS_DIR="$dir" TIERSCAPE_BENCH_JSON="$dir/BENCH_grid.json" \
      "$BUILD_DIR/bench/$b" >"$dir/$b.stdout"
    test -s "$dir/$b.stdout"
  done
done

echo "[bench_smoke] diffing deterministic outputs (serial vs 4 pool threads)"
diff -r \
  -x BENCH_grid.json \
  -x micro_migration.stdout \
  -x micro_grid.stdout \
  "$OUT/t1" "$OUT/t4"

# Wall-time records must exist and carry one entry per run (content differs).
test -s "$OUT/t1/BENCH_grid.json"
test -s "$OUT/t4/BENCH_grid.json"

# The colocation sweep must emit a wall record for every (policy, tenants)
# cell — a missing record means a cell silently died (DESIGN.md §4f).
for threads in 1 4; do
  grep -q '"bench":"fig16_colocation","cell":"utility@16","wall_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
  grep -q '"bench":"fig16_colocation","cell":"static@2","wall_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
done

# The sub-window fast-path cells (fig11b, DESIGN.md §4h) must emit wall
# records for the flash-crowd pair and at least one policy pair — a missing
# record means the fast-path daemon config silently failed to run.
for threads in 1 4; do
  grep -q '"bench":"fig11_tail_latency","cell":"fastpath/flash-crowd","wall_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
  grep -q '"bench":"fig11_tail_latency","cell":"fastpath/GSwap\*","wall_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
done

# The solver scaling curve must emit a per-cell wall/solver/solve_ms record
# (the across-PR perf trajectory, EXPERIMENTS.md "Solver scaling curve").
for threads in 1 4; do
  grep -q '"bench":"micro_solver","cell":"cold/n1000","metric":"wall/solver/solve_ms"' \
    "$OUT/t$threads/BENCH_grid.json"
done

# The MPMC access-path bench must emit a per-cell wall/access/churn_ms record
# for every caller count (EXPERIMENTS.md "MPMC access path"); its stdout and
# artifacts are part of the byte-diff above, so caller-count divergence fails
# the smoke run twice over.
for threads in 1 4; do
  for cell in c1 c2 c4 c8; do
    grep -q '"bench":"micro_access","cell":"'$cell'","metric":"wall/access/churn_ms"' \
      "$OUT/t$threads/BENCH_grid.json"
  done
done

echo "[bench_smoke] OK: all grid benches byte-identical across thread counts"
