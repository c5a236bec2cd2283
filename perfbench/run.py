#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe with dune
(shared dune cache off, so nothing is written outside the checkout), runs
one workload, checks that the result names exactly the metrics BENCHMARK.json
lists for the mode (end_to_end with --trace 0, per_layer with --trace 1),
with their units, and prints the result as the last line of stdout.
Exact-repeat records are kept in perfbench/_state. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 880
RUN_TIMEOUT = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)
    expected = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        die("build failed with code %d" % build.returncode)

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", os.path.join(HERE, "_state")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("benchmark did not finish: %s" % e)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        die("benchmark exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last line is not JSON: " + lines[-1])

    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result keys are %s" % sorted(result))
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        die("metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "wrong unit %s" % (missing, extra, wrong))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
