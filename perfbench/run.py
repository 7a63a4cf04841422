#!/usr/bin/env python3
"""Build the Castor benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run it from the root of a Castor source tree. It builds
perfbench/perf.exe with dune into .bench_build/ (the dune cache is off,
so nothing is written outside the tree), runs the workload and relays
its output; the last line of stdout is the JSON result. A traced run
writes its spans to .bench_build/trace-NAME-SEED.json. With --record,
the stamp and the result are also appended to FILE as one JSON line,
the input of compare.py. The exit code is the workload's: nonzero when
the tree cannot be built or an output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perf.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def revision():
    if not os.path.isdir(".git"):
        return "unknown"
    p = subprocess.run(["git", "describe", "--always", "--dirty"],
                       capture_output=True, text=True)
    return p.stdout.strip() or "unknown"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                        "--display", "quiet", "./perfbench/perf.exe"],
                       env=env, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    return p.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append stamp and result to this JSONL file")
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: not the root of a Castor source tree", file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", revision()]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    lines = p.stdout.splitlines()
    if args.record and lines and lines[-1].startswith("{"):
        stamp = next((json.loads(l[len("stamp "):]) for l in lines
                      if l.startswith("stamp ")), {})
        with open(args.record, "a") as f:
            f.write(json.dumps({"stamp": stamp, "result": json.loads(lines[-1])}) + "\n")
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
