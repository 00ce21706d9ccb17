#!/usr/bin/env python3
"""Compare two sets of perfbench runs (standard library only).

A run set is a directory holding one file per workload, <workload>.jsonl,
with one line per run: the JSON object perfbench prints last. Collect one
with, for example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload live-small --seed $s --seconds 10 --trace 0 \\
            | tail -n 1 >> runs/base/live-small.jsonl
    done

Then compare a base set with a candidate set:

    python3 perfbench/compare.py runs/base runs/candidate

For every (workload, metric) it prints each side's median and quartiles
(Python's statistics.quantiles, n=4) and a verdict against the bounds in
BENCHMARK.json:

    agree       the candidate's median is not worse than the base's by more
                than the bound, and both sides' spreads are within it
    better      the candidate wins at least 9 of 10 (base, candidate) run
                pairs and the medians differ by more than the base's spread
    worse       the candidate's median is worse by more than the bound
    unresolved  a side's spread (quartile distance over median) exceeds the
                bound, so the bound cannot be judged, unless every
                candidate run is better than every base run
    info        a per-layer metric, which has no bound

It exits 1 when any end-to-end metric is worse or unresolved, else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(path):
    """Return {workload: [result, ...]} for a run-set directory."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(path, name)) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        runs[name[: -len(".jsonl")]] = rows
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, cand, bound, better):
    """Judge a candidate sample set against a base set under a bound."""
    sign = 1 if better == "lower" else -1
    mb, mc = statistics.median(base), statistics.median(cand)
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    if all(sign * c < sign * b for c in cand for b in base):
        return "better", worse_by
    if max(spread(base), spread(cand)) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = [(b, c) for b in base for c in cand]
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    q1, _, q3 = quartiles(base)
    if wins >= 0.9 * len(pairs) and abs(mc - mb) > (q3 - q1):
        return "better", worse_by
    return "agree", worse_by


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("candidate")
    ap.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"),
                    help="BENCHMARK.json with the metrics and their bounds")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, cand = load_set(args.base), load_set(args.candidate)
    failed = False
    fmt = "{:<12} {:<34} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8} {}"
    print(fmt.format("workload", "metric", "base q1", "median", "q3",
                     "cand q1", "median", "q3", "worse by", "verdict"))
    for workload in sorted(set(base) & set(cand)):
        for name in sorted(defs):
            b = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in cand[workload] if name in r["metrics"]]
            if not b or not c:
                continue
            d = defs[name]
            if "bound" in d:
                v, worse_by = verdict(b, c, d["bound"], d["better"])
                failed |= v in ("worse", "unresolved")
            else:
                v, worse_by = "info", float("nan")
            qb, qc = quartiles(b), quartiles(c)
            print(fmt.format(workload, name, *("%.5g" % x for x in qb + qc),
                             "%+.3f" % worse_by, v))
        for label, rs in (("base", base[workload]), ("candidate", cand[workload])):
            bad = [r for r in rs if not r.get("correct")]
            if bad:
                failed = True
                print("{}: {} of {} {} runs failed their correctness checks".format(
                    workload, len(bad), len(rs), label))
    for workload in sorted(set(base) ^ set(cand)):
        print("{}: present in only one set, not compared".format(workload))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
