#!/usr/bin/env python3
"""Run the benchmark over several seeds and record every result.

    python3 perfbench/sweep.py --seeds 1-10 --out results.jsonl [--workloads study-llm,serve-mixed]

Each run goes through perfbench/run.py with BENCHMARK.json's run_seconds;
every result line is appended to --out as
{"workload": ..., "seed": ..., "trace": 0, "result": {...}}.  At the end
it prints, per workload and end-to-end metric, the median and the spread
(inter-quartile distance over the median) the acceptance check uses.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    values = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit("sweep: %s seed %d exited %d" % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                    "result": result}) + "\n")
            print(workload, seed, "correct" if result["correct"] else "INCORRECT",
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
            for k, v in result["metrics"].items():
                values.setdefault((workload, k), []).append(v["value"])
    if args.trace:
        return
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for (workload, metric), vs in values.items():
        if len(vs) >= 2:
            s = spread(vs)
            print("%-12s %-18s median %10.4f  spread %.3f  (bound %.2f%s)" % (
                workload, metric, statistics.median(vs), s, bounds[metric],
                "" if s <= bounds[metric] / 3 else ", above a third of it"))


if __name__ == "__main__":
    main()
