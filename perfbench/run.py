#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program (bench.ml) is built with dune
into the checkout's _build directory, then run with the same arguments;
its last stdout line, the result object, is checked against the metric
lists in BENCHMARK.json before it is passed on. Any build failure, failed
correctness check or metric mismatch exits nonzero. NOTES.md describes
the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REL = os.path.relpath(HERE, ROOT)
WORKLOADS = ["load-contended", "load-monitored", "explore-dpor"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: " + msg + "\n")
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./%s/bench.exe" % REL],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build did not finish: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        return fail("build failed")

    exe = os.path.join(ROOT, "_build", "default", REL, "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        return fail("benchmark exited with code %d" % run.returncode)

    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        return fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
                    % (sorted(set(wanted) - set(got)),
                       sorted(set(got) - set(wanted))))
    if not result["correct"] or result["failed"] != 0:
        return fail("correctness check failed")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
