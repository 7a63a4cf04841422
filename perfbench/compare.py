#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --run N --parent DIR --change DIR
                                 [--workloads A,B] [--seed S0]
    python3 perfbench/compare.py --summary RESULTS.jsonl...

A result file holds one JSON line per run, as written by
`run.py --record`. With --run, N pairs of runs are made first in the two
source trees for BENCHMARK.json's run_seconds, one pair per seed S0,
S0+1, ..., alternating which side runs first; the records are kept in
.bench_build/compare/. For every
workload and metric the table gives each side's median and quartiles,
the share of pairs the change won (pairs share a seed; ties count for
neither) and, for end-to-end metrics, a verdict against the metric's
bound in BENCHMARK.json:

  unresolved  the parent's own spread (quartile distance over median)
              exceeds the bound, and not every change run beats every
              parent run
  regressed   the change's median is worse by more than the bound
  improved    the change won at least 9 in 10 pairs and the medians
              differ by more than the parent's quartile distance
  unchanged   otherwise

The exit code is 1 when an end-to-end metric regressed or the share of
failed operations rose on any workload. --summary prints the medians of
one result set as a line for perfbench/history.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_records(paths):
    out = []
    for path in paths:
        with open(path) as f:
            out += [json.loads(line) for line in f if line.strip()]
    return out


def by_workload(records):
    groups = {}
    for r in records:
        groups.setdefault(r["stamp"]["workload"], []).append(r)
    return groups


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def better(a, b, lower):
    return a < b if lower else a > b


def verdict(p, c, won, bound, lower):
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    all_better = all(better(x, y, lower) for x in c for y in p)
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved"
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    if worse > bound:
        return "regressed"
    if won >= 0.9 and abs(cm - pm) > p3 - p1:
        return "improved"
    return "unchanged"


def compare(parent, change, spec):
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    bad = False
    pw, cw = by_workload(parent), by_workload(change)
    print(f"{'workload':<14} {'metric':<40} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    for w in sorted(set(pw) & set(cw)):
        cseeds = {r["stamp"]["seed"]: r for r in cw[w]}
        paired = [(r, cseeds[r["stamp"]["seed"]]) for r in pw[w]
                  if r["stamp"]["seed"] in cseeds]
        if not paired:
            paired = list(zip(pw[w], cw[w]))
        names = sorted(set(pw[w][0]["result"]["metrics"]) & set(cw[w][0]["result"]["metrics"]))
        for name in names:
            m = e2e.get(name) or layer.get(name)
            if m is None:
                continue
            lower = m["better"] == "lower"

            def vals(rs):
                return [r["result"]["metrics"][name]["value"] for r in rs]

            p, c = vals(pw[w]), vals(cw[w])
            pairs = [(a["result"]["metrics"][name]["value"], b["result"]["metrics"][name]["value"])
                     for a, b in paired]
            won = sum(better(y, x, lower) for x, y in pairs) / max(1, len(pairs))
            v = verdict(p, c, won, m["bound"], lower) if name in e2e else "-"
            bad |= v == "regressed"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w:<14} {name:<40} {fmt.format(*quartiles(p)):>32} "
                  f"{fmt.format(*quartiles(c)):>32} {won:>5.2f}  {v}")

        def failed_share(rs):
            return (sum(r["result"]["failed"] for r in rs)
                    / max(1, sum(r["result"]["attempted"] for r in rs)))

        fp, fc = failed_share(pw[w]), failed_share(cw[w])
        if fc > fp:
            bad = True
            print(f"{w:<14} {'failed operations':<40} {fp:>32.4g} {fc:>32.4g}        regressed")
    return bad


def run_pairs(args):
    out = os.path.abspath(os.path.join(".bench_build", "compare"))
    os.makedirs(out, exist_ok=True)
    files = {side: os.path.join(out, side + ".jsonl") for side in ("parent", "change")}
    for path in files.values():
        open(path, "w").close()
    dirs = {"parent": args.parent, "change": args.change}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in load_spec()["workloads"]])
    seconds = load_spec()["run_seconds"]
    for i in range(args.run):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                       "--seed", str(args.seed + i), "--seconds", str(seconds),
                       "--trace", "0", "--record", files[side]]
                subprocess.run(cmd, cwd=dirs[side], stdout=subprocess.DEVNULL, timeout=1000)
    return load_records([files["parent"]]), load_records([files["change"]])


def summary(records):
    first = records[0]["stamp"]
    line = {k: first.get(k) for k in ("rev", "utc", "nproc", "ocaml", "seconds")}
    line["workloads"] = {}
    for w, rs in sorted(by_workload(records).items()):
        names = rs[0]["result"]["metrics"]
        line["workloads"][w] = {
            "runs": len(rs),
            "medians": {n: statistics.median(r["result"]["metrics"][n]["value"] for r in rs)
                        for n in names},
        }
    print(json.dumps(line))


def main():
    ap = argparse.ArgumentParser(usage=__doc__)
    ap.add_argument("files", nargs="*")
    ap.add_argument("--run", type=int)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workloads")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--summary", action="store_true")
    args = ap.parse_args()
    if args.summary:
        summary(load_records(args.files))
        return 0
    if args.run:
        if not (args.parent and args.change):
            ap.error("--run needs --parent and --change")
        parent, change = run_pairs(args)
    elif len(args.files) == 2:
        parent, change = load_records([args.files[0]]), load_records([args.files[1]])
    else:
        ap.error("give PARENT.jsonl CHANGE.jsonl, --run N, or --summary FILES")
    return 1 if compare(parent, change, load_spec()) else 0


if __name__ == "__main__":
    sys.exit(main())
