#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-compressed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own checks

The build goes to .bench_build/perfbench (Release). Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. A run
checks every cell against the digests committed in perfbench/digests.txt
for its seed, if any. With --trace 1 the span records are written to
.bench_build/perfbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def build(target):
    if not (ROOT / "src" / "workloads" / "driver.cc").is_file():
        print("perfbench: simulator sources (src/) not found", file=sys.stderr)
        return False
    # Keep the compiler's temporary files inside the build tree too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", target]
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode == 0


def source_id():
    """Short hash of the simulator and benchmark sources: the code measured."""
    digest = hashlib.sha256()
    for directory in (ROOT / "src", BENCH_DIR):
        for path in sorted(directory.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="build and run the self-checks")
    args = parser.parse_args()

    if args.test:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([str(BUILD_DIR / "perfbench_test")]).returncode
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not build("perfbench"):
        return 1
    command = [str(BUILD_DIR / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--digests", str(BENCH_DIR / "digests.txt"),
               "--source-id", source_id()]
    if args.trace == 1:
        spans = BUILD_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        command += ["--spans-out", str(spans)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
