#!/usr/bin/env python3
"""Build nanobound from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_vn --seed 1 --seconds 15 --trace 0

Builds the release `nanobound` binary and the benchmark harness
(perfbench/harness) into $CARGO_TARGET_DIR (default `.bench_build`),
then hands the run to the harness, whose last stdout line is the JSON
result. `--trace 0` drives the binary end to end with no tracing;
`--trace 1` replays the same inputs in-process under the span recorder
and reports the per-layer metrics. Scratch files live under
`.perfbench_work/` and are removed when the run ends. Exits non-zero,
without a result line, when the checkout cannot be built.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["mc_vn", "serve_mix"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target):
    """Builds both binaries; returns the harness path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "nanobound"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(target, "release", "perfbench-harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("run.py: no nanobound sources next to perfbench/", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    harness = build(target)
    if harness is None:
        return 1
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    try:
        return subprocess.run(
            [harness, "run",
             "--workload", args.workload,
             "--seed", str(args.seed),
             "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--nanobound", os.path.join(target, "release", "nanobound"),
             "--work", work],
            cwd=ROOT,
        ).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
