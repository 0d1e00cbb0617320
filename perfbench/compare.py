#!/usr/bin/env python3
"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py BASE.jsonl            # one side only

A result set is what perfbench/sweep.py writes: one JSON line per run.
For every workload x end-to-end metric it prints each side's median and
quartiles and labels the pair:

  unresolved  either side's spread (quartile distance over median) is
              wider than the metric's bound, and neither side wins every
              run against every run of the other;
  worse       the new median is worse than the base median by more than
              the bound (or every new run is worse than every base run);
  improved    the new side wins at least 9 in 10 same-seed pairs and its
              median is better by more than the base's own spread (or
              every new run is better than every base run);
  unchanged   otherwise.

With one set it prints the medians and quartiles only (--json writes
them too).  Bounds come from BENCHMARK.json.
"""

import argparse
import json
import statistics


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if r.get("trace", 0) == 0:
                    runs.setdefault(r["workload"], []).append(r)
    return runs


def values(runs, metric):
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs}


def quartiles(vs):
    vs = list(vs)
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return q1, statistics.median(vs), q3


def spread(vs):
    q1, med, q3 = quartiles(vs)
    return (q3 - q1) / med if med else float("inf")


def label(base, new, metric):
    """base/new: {seed: value}."""
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    bvals, nvals = list(base.values()), list(new.values())
    if all(better(n, b) for n in nvals for b in bvals):
        return "improved"
    if all(better(b, n) for n in nvals for b in bvals):
        return "worse"
    bound = metric["bound"]
    if max(spread(bvals), spread(nvals)) > bound:
        return "unresolved"
    mb, mn = statistics.median(bvals), statistics.median(nvals)
    change = (mn - mb) / mb * (1 if lower else -1)  # > 0 is worse
    if change > bound:
        return "worse"
    pairs = [s for s in base if s in new]
    wins = sum(1 for s in pairs if better(new[s], base[s]))
    if pairs and wins >= 0.9 * len(pairs) and -change > spread(bvals):
        return "improved"
    return "unchanged"


def fmt(vs):
    q1, med, q3 = quartiles(vs)
    return "%10.4f [%.4f, %.4f]" % (med, q1, q3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--json", help="write the per-metric medians and quartiles here")
    args = ap.parse_args()
    spec = json.load(open(args.benchmark))
    base = load(args.base)
    new = load(args.new) if args.new else None
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = values(base[workload], name)
            q1, med, q3 = quartiles(b.values())
            summary.setdefault(workload, {})[name] = {
                "unit": metric["unit"], "runs": len(b), "median": med, "q1": q1, "q3": q3,
                "spread": spread(b.values()), "bound": metric["bound"],
            }
            line = "%-12s %-17s %-5s base %s" % (workload, name, metric["unit"], fmt(b.values()))
            if new is not None and workload in new:
                n = values(new[workload], name)
                delta = (statistics.median(n.values()) - med) / med * 100
                line += "  new %s  %+6.1f%%  %s" % (fmt(n.values()), delta, label(b, n, metric))
            print(line)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
