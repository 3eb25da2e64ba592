#!/usr/bin/env python3
"""Run one measurement of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (a cargo package of its
own in perfbench/, against the repository's crates) into $CARGO_TARGET_DIR
(default .bench_build), writes the seeded inputs into a scratch directory
under .perfbench_work/, measures, and prints the result as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics; a traced run also writes its spans to
.perfbench_out/spans-NAME-sN.jsonl. The exit code is non-zero when the
build, the inputs or the measurement fail, or when any output was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET_S = 170.0
BUILD_BUDGET_S = 880.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_BUDGET_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    started = time.monotonic()
    tag = f"{args.workload}-s{args.seed}"
    work = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--dir", work]
    try:
        gen = subprocess.run([binary, "gen"] + common, cwd=ROOT, env=env,
                             stdout=sys.stderr, timeout=BUDGET_S)
        if gen.returncode != 0:
            sys.exit("perfbench: input generation failed")
        cmd = [binary, "run"] + common + ["--trace", str(args.trace)]
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(out_dir, f"spans-{tag}.jsonl")]
        left = BUDGET_S - (time.monotonic() - started)
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=max(left, 1.0))
        lines = run.stdout.strip().splitlines()
        if lines:
            result = json.loads(lines[-1])
            print(json.dumps(result))
        if run.returncode != 0 or not lines:
            sys.exit(f"perfbench: measurement failed (exit {run.returncode})")
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: time budget exceeded")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
