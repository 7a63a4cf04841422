#!/usr/bin/env python3
"""Flag counter/latency regressions in a bench metrics dump.

The bench harness (bench/main.ml) ends every experiment by writing
BENCH_<id>.json with the Obs registry contents:

    {"experiment": "<id>", "metrics": {"counters": {...}, "spans": [...]}}

This script compares such a dump against the checked-in baseline
(BENCH_baseline.json by default) and exits nonzero when:

  - a counter that was nonzero in the baseline dropped to zero
    (instrumentation or a whole code path silently lost);
  - a work counter (search steps, subsumption calls, saturations, ...)
    grew beyond the tolerance — the learner is doing materially more
    work for the same seeded experiment;
  - a span's total time grew beyond the (deliberately generous)
    latency tolerance — absolute times vary across machines, so only
    large multiples are flagged.

Counters the experiment is expected to keep nonzero (e.g. the
analysis pruner's analysis.pruned_literals) can be asserted with
--require-nonzero; counters that must merely be recorded — e.g.
ilp.coverage.budget_fallbacks, legitimately zero when no coverage test
runs past its step budget — with --require-present; counters that must
stay at exactly zero — e.g. ilp.coverage.full_refreshes on the
incremental experiment's non-target tuple stream — with --require-zero.
Two orderings within the current dump are machine independent and can
be gated too: --require-less A:B on counters, --require-faster A:B on
span totals (e.g. the coverage_batch experiment's batched pass against
its subsumption pass).

When both dumps carry the coverage-cache counters (ilp.cache_hits and
ilp.coverage.cache_misses), the cache hit rate is also compared: a
drop of more than HIT_RATE_DROP percentage points against the baseline
fails, so a cache-key change that silently stops matching α-equivalent
clauses is caught even while the raw counters stay within tolerance.

The baseline is either a single-experiment dump (the historical
format) or a multi-experiment file

    {"experiments": {"<id>": {"counters": {...}, "spans": [...]}, ...}}

in which case the entry matching the current dump's experiment id is
used. Regenerate the multi-experiment baseline from fresh dumps with

    python3 scripts/check_bench.py --merge-into BENCH_baseline.json \
        BENCH_ablation.json BENCH_coverage_batch.json

Only the Python standard library is used.
"""

import argparse
import json
import sys

# Seeded experiments are deterministic, so counters only move when the
# code changes; the slack absorbs intentional small drifts without
# letting a blow-up through.
COUNTER_GROWTH = 0.15  # +15 %
COUNTER_SLACK = 16  # absolute wiggle for tiny counters
LATENCY_GROWTH = 2.0  # spans may take up to 3x the baseline total
LATENCY_SLACK_S = 0.5
HIT_RATE_DROP = 5.0  # cache hit rate may drop at most 5 percentage points

HITS = "ilp.cache_hits"
MISSES = "ilp.coverage.cache_misses"


def hit_rate(counters):
    """Cache hit rate in percent, or None when the dump predates the
    hit/miss counters or the cache saw no lookups."""
    if HITS not in counters or MISSES not in counters:
        return None
    lookups = counters[HITS] + counters[MISSES]
    if lookups <= 0:
        return None
    return 100.0 * counters[HITS] / lookups


def unpack(metrics):
    counters = metrics.get("counters", {})
    spans = {s["name"]: s for s in metrics.get("spans", [])}
    return counters, spans


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    counters, spans = unpack(doc.get("metrics", doc))
    return doc.get("experiment", "?"), counters, spans


def load_baseline(path, experiment):
    """Baseline metrics for `experiment`: a multi-experiment file keyed
    by id, or the historical single-experiment dump applied as-is."""
    with open(path) as fh:
        doc = json.load(fh)
    if "experiments" in doc:
        entry = doc["experiments"].get(experiment)
        if entry is None:
            sys.exit(
                f"check_bench: baseline {path} has no entry for "
                f"experiment {experiment!r} "
                f"(has: {', '.join(sorted(doc['experiments']))})"
            )
        return unpack(entry)
    return unpack(doc.get("metrics", doc))


def merge_into(out_path, dump_paths):
    """Rebuild the multi-experiment baseline from fresh dumps, keeping
    any existing entries the dumps do not replace."""
    experiments = {}
    try:
        with open(out_path) as fh:
            doc = json.load(fh)
        if "experiments" in doc:
            experiments = doc["experiments"]
    except (FileNotFoundError, json.JSONDecodeError):
        pass
    for path in dump_paths:
        exp, counters, spans = load(path)
        experiments[exp] = {
            "counters": counters,
            "spans": sorted(spans.values(), key=lambda s: s["name"]),
        }
    with open(out_path, "w") as fh:
        json.dump({"experiments": experiments}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"check_bench: wrote {out_path} "
        f"({len(experiments)} experiment(s): {', '.join(sorted(experiments))})"
    )
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "current", nargs="+", help="BENCH_<id>.json produced by this run"
    )
    ap.add_argument(
        "--baseline", default="BENCH_baseline.json", help="checked-in reference dump"
    )
    ap.add_argument(
        "--merge-into",
        metavar="BASELINE",
        help="instead of checking, merge the given dumps into BASELINE "
        "as a multi-experiment baseline",
    )
    ap.add_argument(
        "--require-nonzero",
        action="append",
        default=[],
        metavar="COUNTER",
        help="fail unless COUNTER is present and nonzero in the current run",
    )
    ap.add_argument(
        "--require-present",
        action="append",
        default=[],
        metavar="COUNTER",
        help="fail unless COUNTER is recorded in the current run (zero is fine)",
    )
    ap.add_argument(
        "--require-zero",
        action="append",
        default=[],
        metavar="COUNTER",
        help="fail unless COUNTER is recorded in the current run with value "
        "exactly zero — e.g. the incremental workload's promise that "
        "ilp.coverage.full_refreshes never fires",
    )
    ap.add_argument(
        "--require-less",
        action="append",
        default=[],
        metavar="A:B",
        help="fail unless counter A is strictly less than counter B in the "
        "current run (both must be recorded) — e.g. the cyclic kernel's "
        "rows and seeks must stay below subsumption's steps and scans",
    )
    ap.add_argument(
        "--require-faster",
        action="append",
        default=[],
        metavar="A:B",
        help="fail unless span A's total time is strictly below span B's in "
        "the current run (both must be recorded) — a time ratio, unlike the "
        "absolute latency tolerance, holds across machines",
    )
    args = ap.parse_args()

    if args.merge_into:
        return merge_into(args.merge_into, args.current)

    status = 0
    for path in args.current:
        status = max(status, check_one(path, args))
    return status


def check_one(path, args):
    exp, cur_counters, cur_spans = load(path)
    base_counters, base_spans = load_baseline(args.baseline, exp)

    problems = []

    for name in args.require_nonzero:
        if cur_counters.get(name, 0) <= 0:
            problems.append(f"required counter {name} is zero or missing")

    for name in args.require_present:
        if name not in cur_counters:
            problems.append(f"required counter {name} is not recorded")

    for name in args.require_zero:
        if name not in cur_counters:
            problems.append(f"required counter {name} is not recorded")
        elif cur_counters[name] != 0:
            problems.append(
                f"counter {name} must be zero but is {cur_counters[name]}"
            )

    span_totals = {n: s.get("total_s") or 0.0 for n, s in cur_spans.items()}
    for flag, pairs, values, kind in (
        ("--require-less", args.require_less, cur_counters, "counter"),
        ("--require-faster", args.require_faster, span_totals, "span"),
    ):
        for pair in pairs:
            a, sep, b = pair.rpartition(":")
            if not sep or not a:
                problems.append(f"{flag} {pair!r} is not of the form A:B")
                continue
            if a not in values or b not in values:
                missing = ", ".join(n for n in (a, b) if n not in values)
                problems.append(f"{flag} {pair}: {kind}(s) missing: {missing}")
                continue
            if not values[a] < values[b]:
                problems.append(
                    f"{kind} {a} ({values[a]}) is not strictly below "
                    f"{b} ({values[b]})"
                )

    base_rate, cur_rate = hit_rate(base_counters), hit_rate(cur_counters)
    if base_rate is not None and cur_rate is not None:
        if cur_rate < base_rate - HIT_RATE_DROP:
            problems.append(
                f"cache hit rate regressed: {base_rate:.1f}% -> {cur_rate:.1f}% "
                f"(allowed drop {HIT_RATE_DROP:.0f} points)"
            )

    for name, base in sorted(base_counters.items()):
        cur = cur_counters.get(name)
        if cur is None:
            problems.append(f"counter {name} disappeared (baseline {base})")
            continue
        if base > 0 and cur == 0:
            problems.append(f"counter {name} dropped to zero (baseline {base})")
        limit = base * (1 + COUNTER_GROWTH) + COUNTER_SLACK
        if cur > limit:
            problems.append(
                f"counter {name} regressed: {base} -> {cur} "
                f"(limit {limit:.0f}, +{COUNTER_GROWTH:.0%} + {COUNTER_SLACK})"
            )

    for name, base in sorted(base_spans.items()):
        cur = cur_spans.get(name)
        if cur is None:
            problems.append(f"span {name} disappeared")
            continue
        base_t, cur_t = base.get("total_s") or 0.0, cur.get("total_s") or 0.0
        limit = base_t * (1 + LATENCY_GROWTH) + LATENCY_SLACK_S
        if cur_t > limit:
            problems.append(
                f"span {name} latency regressed: {base_t:.3f}s -> {cur_t:.3f}s "
                f"(limit {limit:.3f}s)"
            )

    print(f"check_bench: experiment {exp}: ", end="")
    if problems:
        print(f"{len(problems)} problem(s)")
        for p in problems:
            print(f"  REGRESSION: {p}")
        return 1
    print(
        f"ok ({len(base_counters)} counters, {len(base_spans)} spans "
        "within tolerance)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
