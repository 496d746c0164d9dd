#!/usr/bin/env python3
"""Checks that the deterministic metrics repeat exactly.

Usage (from the repository root):

    python3 perfbench/repeat_check.py [--seconds 6] [--seed 1] [--other-seed 2]

For every workload it runs the benchmark twice with one seed and once
with another, traced and untraced. Every `*_per_op` count,
`tls.resumption_ratio` and `sim_ms_per_op` must be identical across the
two runs of one seed; the values under the second seed are printed beside
them. Exits non-zero on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["attest-cold", "revisit", "transfer", "provision"]


def exact(name):
    return name.endswith("_per_op") and not name.startswith("mem.") or name in (
        "tls.resumption_ratio", "sim_ms_per_op")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if exact(k)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    args = parser.parse_args()
    mismatches = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            first = run(workload, args.seed, args.seconds, trace)
            again = run(workload, args.seed, args.seconds, trace)
            other = run(workload, args.other_seed, args.seconds, trace)
            for name, value in first.items():
                same = again.get(name) == value
                mismatches += not same
                print(f"{workload:<12} {name:<36} seed {args.seed}: {value:<10g} "
                      f"repeat: {'same' if same else again.get(name)}  "
                      f"seed {args.other_seed}: {other.get(name):g}")
    print("exact repeat:", "ok" if mismatches == 0 else f"{mismatches} mismatches")
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
