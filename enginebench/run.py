#!/usr/bin/env python3
"""Build and run the engine benchmark.

    python3 enginebench/run.py --workload spot --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the `enginebench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs one
workload and prints the benchmark's JSON result as the last stdout line.
`--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer ones.
Exits non-zero, printing no result, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spot", "packed", "fork", "observed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(cmd, env=env, check=True, timeout=BUILD_TIMEOUT_S,
                   stdout=sys.stderr)
    return os.path.join(target_dir, "release", "enginebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(target_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, OSError) as err:
        print(f"run.py: run failed: {err}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"run.py: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print(f"run.py: malformed result {lines[-1]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
