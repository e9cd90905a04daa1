#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload join_large|service_hot|service_cold \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The first run configures and
builds the library and the benchmark binary under .bench_build/perfbench
(Release, the repository's own flags); later runs only re-check the build.

With --trace 0 the last line of standard output is the end-to-end result,
with --trace 1 the per-layer one (see BENCHMARK.json for both lists):

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

The line before it records what ran: core counts, pool and session sizes,
resolved sort policy and shard count, build type and flags, commit (when
the checkout is a git repository), a digest of the sources, and the seed.

Exit status: 0 when every output check and the obliviousness gate passed;
1 on a wrong output, a trace-digest mismatch, too few samples, or a build
failure; 2 on a usage error or when any OBLIVDB_* variable is set (each
one changes the program being measured, so the benchmark refuses to run).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "oblivdb_perfbench"
WORKLOADS = ("join_large", "service_hot", "service_cold")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_digest():
    """SHA-256 over the library sources, the build files and the benchmark."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        paths += sorted(p for p in top.rglob("*") if p.is_file())
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Configures once, then brings the binary up to date.  Build output
    goes to stderr so the result stays the last line of stdout."""
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "oblivdb_perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    overrides = sorted(k for k in os.environ if k.startswith("OBLIVDB_"))
    if overrides:
        print("refusing to run: OBLIVDB_* overrides change the program "
              "being measured: " + ", ".join(overrides), file=sys.stderr)
        return 2

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        sys.stderr.write(run.stdout)
        print(f"benchmark failed (exit {run.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0 if run.returncode == 0 and result["correct"] is True else 1


if __name__ == "__main__":
    sys.exit(main())
