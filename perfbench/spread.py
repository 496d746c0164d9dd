#!/usr/bin/env python3
"""Runs one workload under several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload attest-cold --runs 10 [--trace 0]

The spread of a metric is the distance between the first and third
quartile of its per-run values, as a share of their median
(`statistics.quantiles(values, n=4)`). A steady benchmark keeps each
end-to-end spread below a third of the metric's bound in BENCHMARK.json.
Runs use seeds first-seed, first-seed+1, ...; results are appended as
JSON lines to --log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--log", default=None)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: NOT correct ({result['failed']} of "
                  f"{result['attempted']} failed)")
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "trace": args.trace, **result}) + "\n")
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    print(f"{'metric':<36} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:<36} {med:>12.4f} {spread:>8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
