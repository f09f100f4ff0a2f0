#!/usr/bin/env python3
"""Build the simulator's benchmark from source, run it, check its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Workloads: pst-scoped, spin-barrier, barnes-sampled.  The last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}.  A traced run also writes its spans (Chrome trace-event
JSON) under perfbench/out/.  Exits non-zero, printing no result, when
the build or the benchmark fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def arg(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def main(argv):
    # Build output goes to stderr: stdout carries only the benchmark's.
    # The shared dune cache is off so nothing is written outside ROOT.
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled",
             "--display=quiet", TARGET],
            cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if build.returncode != 0:
        return fail("build failed")

    args = list(argv)
    if arg(args, "--trace") == "1" and "--spans" not in args:
        out = os.path.join("perfbench", "out")
        os.makedirs(os.path.join(ROOT, out), exist_ok=True)
        name = "%s-seed%s.trace.json" % (arg(args, "--workload"), arg(args, "--seed"))
        args += ["--spans", os.path.join(out, name)]
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("benchmark failed: %s" % e)
    # The benchmark prints its result line last, after every check.
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return fail("benchmark exited with %d" % proc.returncode)
    if "--selftest" in args:
        return 0
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return fail("no result line")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        return fail("malformed result line")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
