#!/usr/bin/env python3
"""Runs the end-to-end benchmark ten times per workload and prints, per
workload and metric, the median, the quartile spread (Q3 - Q1 over the median,
by `statistics.quantiles(n=4)`) and the largest relative difference from the
median, next to the metric's bound in BENCHMARK.json.

    python3 mintbench/spread.py [--runs 10] [--first-seed 1] [--same-seed]
                                [--workload NAME]

By default every run has another seed, which is the sweep the benchmark driver
makes: its spread is seed-to-seed difference and run-to-run noise together.
`--same-seed` runs `--first-seed` every time, which leaves the noise alone.
Run it from anywhere; it builds with cargo in the repository root.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for run in range(args.runs):
            seed = args.first_seed if args.same_seed else args.first_seed + run
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} run {run + 1} (seed {seed}) done", file=sys.stderr)
        for name, samples in values.items():
            middle = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / middle
            largest = max(abs(v - middle) for v in samples) / middle
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(
                f"{workload:<16} {name:<24} median {middle:>14.4f}  spread {spread:7.4f}"
                f"  largest {largest:7.4f}  bound {bounds[name]:.2f}"
                f"  spread/bound {spread / bounds[name]:5.2f}"
            )
    print(f"largest spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
