#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (shared dune cache disabled, so
everything stays inside the checkout's _build/), runs it and relays its
output; the last stdout line is the JSON result. Exits non-zero, without
a result, when the sources are missing or the build fails, and with the
benchmark's own code when an output check fails. See README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("hit-replay", "cold-solve", "burst-mix", "lp-relax")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: build failed: {exc}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
