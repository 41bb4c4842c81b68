#!/usr/bin/env python3
"""Steadiness check: run each workload several times and summarise.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1]

Runs `perfbench/run.py --trace 0` `--runs` (at least 10) times on every
workload of BENCHMARK.json, each run with another seed, and prints, per
end-to-end metric, the median, quartiles (statistics.quantiles, n=4),
min, max and the quartile spread as a share of the median, next to the
metric's bound: `ok` below a third of the bound, `WIDE` otherwise.
After each workload it runs the host noise-floor probe (a scalar,
latency-bound loop and a vectorised, throughput-bound loop; see
harness/src/noise.rs) and prints its spread beside the workload's, so a
wide spread can be told apart from a regression of the program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"steady.py: {workload} seed {seed} failed")
    return json.loads(lines[-1])


def noise_probe(seconds):
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    harness = os.path.join(target, "release", "perfbench-harness")
    done = subprocess.run([harness, "noise", "--seconds", str(seconds)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 10:
        parser.error("--runs must be at least 10")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        noise = noise_probe(2)
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"== {workload}: {len(results)} runs, {len(bad)} incorrect")
        for kind, probe in noise.items():
            spread = (probe["q3"] - probe["q1"]) / probe["median"]
            print(f"   noise floor {kind:<20} median {probe['median']:.4g}"
                  f"  spread {spread:.3f}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"   {name:<18} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" min {min(values):<12.6g} max {max(values):<12.6g}"
                  f" spread {spread:.3f} (bound {bound}) {verdict}")


if __name__ == "__main__":
    main()
