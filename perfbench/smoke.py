#!/usr/bin/env python3
"""Smoke test of the benchmark, run by `dune runtest`.

    python3 smoke.py PATH/TO/perf.exe PATH/TO/BENCHMARK.json

Runs every workload of BENCHMARK.json at toy size (perf.exe --smoke),
once untraced and once traced. Fails unless each run succeeds with no
failed operation, prints exactly the end-to-end (untraced) or per-layer
(traced) metrics of BENCHMARK.json with their units, reports positive
end-to-end values, and writes a trace whose every parent id resolves.
"""

import json
import math
import subprocess
import sys


def fail(msg):
    print("perfbench smoke: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    exe, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            trace_file = f"smoke-trace-{w}.json"
            p = subprocess.run([exe, "--smoke", "--workload", w, "--seed", "7",
                                "--seconds", "0", "--trace", str(trace),
                                "--trace-file", trace_file],
                               capture_output=True, text=True, timeout=120)
            where = f"{w} --trace {trace}"
            lines = p.stdout.splitlines()
            if p.returncode != 0 or not lines:
                fail(f"{where} exited {p.returncode}: {p.stderr.strip()}")
            r = json.loads(lines[-1])
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{where}: result keys {sorted(r)}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                fail(f"{where}: {r['failed']} of {r['attempted']} operations failed")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            if got != want:
                fail(f"{where}: metrics differ from BENCHMARK.json {kind}: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, "
                     f"units {[n for n in want if n in got and got[n] != want[n]]}")
            for n, m in r["metrics"].items():
                v = m["value"]
                if not (isinstance(v, (int, float)) and math.isfinite(v)):
                    fail(f"{where}: {n} = {v!r}")
                if trace == 0 and v <= 0:
                    fail(f"{where}: end-to-end metric {n} = {v}")
            if trace == 1:
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                ids = {e["args"]["id"] for e in events}
                dangling = [e for e in events
                            if e["args"]["parent"] is not None and e["args"]["parent"] not in ids]
                if not events or dangling:
                    fail(f"{where}: {len(events)} spans, {len(dangling)} with unknown parents")
    print("perfbench smoke: ok")


if __name__ == "__main__":
    main()
