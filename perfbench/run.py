#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the
current directory); spans of a traced run are written beside it under
perfbench-traces/. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Exits non-zero,
printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(target, "release", "revelio-perfbench")
    args = sys.argv[1:] + ["--trace-out", os.path.join(target, "perfbench-traces")]
    bench = subprocess.run([exe] + args)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
