#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, proof that
every correctness gate and trace check rejects a corrupted output, and
proof that a known injected regression reaches the normalised metrics.

    python3 perfbench/selftest.py

Run it from the root of a source checkout.  Exits 1 if a tiny run is not
correct or a gate lets a corruption through.
"""

import argparse
import copy
import importlib.util
import json
import os
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

failures = []


def check(name, ok):
    print("%-64s %s" % (name, "ok" if ok else "FAILED"), flush=True)
    if not ok:
        failures.append(name)


def tiny(workload, trace, env):
    # a traced study run times its tracing overhead on a quarter of the
    # sample: at --seconds 1 those passes last ~0.1 s, too short for the
    # overhead to clear machine noise
    seconds = 4 if trace and workload in run.STUDIES else 1
    args = argparse.Namespace(workload=workload, seed=7, seconds=seconds, trace=trace, inject=0.0)
    out = run.run_once(args, env)
    result = run.judge(args, out, {}, {})[0]
    return args, out, result


def study_corruptions(out, report):
    with open(os.path.join(out, "rows.csv")) as f:
        csv_text = f.read()
    key = "selftest"
    good = {key: run.md5(csv_text)}
    check("study gate accepts the run's own rows", run.study_gates(report, csv_text, key, good, {}))
    lines = csv_text.splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[4] = "0" if fields[4] == "1" else "1"  # flip the row's REP
    corrupted = "".join([lines[0], ",".join(fields)] + lines[2:])
    check("study gate rejects a corrupted row (pinned digest)", not run.study_gates(report, corrupted, key, good, {}))
    check("study gate rejects a corrupted row (recorded digest)", not run.study_gates(report, corrupted, key, {}, dict(good)))
    dropped = "".join(lines[:-1])
    check("study gate rejects a missing row", not run.study_gates(report, dropped, "fresh", {}, {}))
    traced = dict(report, traced_csv_digest=run.md5(corrupted))
    check("study gate rejects traced rows that differ from the timed ones",
          not run.study_gates(traced, csv_text, key, good, {}))
    sched = dict(report, scheduler={"csv_digest": run.md5(corrupted)})
    check("study gate rejects scheduler rows that differ from the timed ones",
          not run.study_gates(sched, csv_text, key, good, {}))


def study_trace_corruptions(out, report):
    spans = run.read_spans(out)
    samples = run.speed_samples(out)
    check("study trace check accepts the run's own spans", run.study_layers(report, spans, samples)[1])
    bad = copy.deepcopy(spans)
    row = next(s for s in bad if s["name"] == "eval.row")
    row["time_ms"] = row["dur_ms"] + 1.0
    check("study trace check rejects a session time beyond its row's wall",
          not run.study_layers(report, bad, samples)[1])
    first = next(s["id"] for s in spans if s["name"] == "eval.row")
    check("study trace check rejects a missing row span",
          not run.study_layers(report, [s for s in spans if s["id"] != first], samples)[1])
    faster = copy.deepcopy(report)
    for p in faster["overhead_passes"]:
        if p["traced"]:
            p["window"][1] = p["window"][0] + (p["window"][1] - p["window"][0]) / 2
    check("study trace check rejects a negative tracing overhead",
          not run.study_layers(faster, spans, samples)[1])
    if report["workload"] == "study-tools":
        unscheduled = {k: v for k, v in report.items() if k != "scheduler"}
        check("study trace check rejects study-tools without its scheduler pass",
              not run.study_layers(unscheduled, spans, samples)[1])


def serve_trace_corruptions(out, report, replies):
    spans = run.read_spans(out)
    samples = run.speed_samples(out)
    check("serve trace check accepts the run's own spans",
          run.serve_layers(report, replies, spans, out, samples)[1])
    slow = dict(report, capacity_rps=report["offered_rps"] * 1.5)
    check("serve trace check rejects an offered rate above half the capacity",
          not run.serve_layers(slow, replies, spans, out, samples)[1])
    faster = copy.deepcopy(spans)
    for s in faster:
        if s["name"] == "serve.request":
            s["dur_ms"] /= 2
    check("serve trace check rejects a negative tracing overhead",
          not run.serve_layers(report, replies, faster, out, samples)[1])


def serve_corruptions(out, report):
    with open(os.path.join(out, "replies.jsonl")) as f:
        replies = [json.loads(line) for line in f if line.strip()]
    key = "selftest"
    check("serve gate accepts the run's own replies", run.serve_gates(report, replies, key, {}, {}))

    def first(pred):
        return next(i for i, r in enumerate(replies) if pred(r))

    wrong = copy.deepcopy(replies)
    i = first(lambda r: r["expect"] not in ("ok", "invalid_request"))
    wrong[i]["reply"] = wrong[i]["reply"].replace(wrong[i]["expect"], "invalid_request")
    check("serve gate rejects a wrong error code", not run.serve_gates(report, wrong, "fresh", {}, {}))

    missing = copy.deepcopy(replies)
    missing[first(lambda r: r["expect"] == "ok")]["reply"] = None
    check("serve gate rejects a missing reply", not run.serve_gates(report, missing, "fresh", {}, {}))

    refused = copy.deepcopy(replies)
    j = first(lambda r: r["expect"] == "ok")
    refused[j]["reply"] = json.dumps({"id": "r%d" % refused[j]["idx"], "ok": False,
                                      "error": {"code": "overloaded", "message": "x"}})
    check("serve gate rejects an overloaded reply", not run.serve_gates(report, refused, "fresh", {}, {}))

    changed = copy.deepcopy(replies)
    k = first(lambda r: r["expect"] == "ok" and '"repaired":' in (r["reply"] or ""))
    changed[k]["reply"] = changed[k]["reply"].replace('"repaired":true', '"repaired":false', 1) \
        if '"repaired":true' in changed[k]["reply"] else changed[k]["reply"].replace('"repaired":false', '"repaired":true', 1)
    recorded = {key: run.serve_replies_digest(replies)}
    check("serve gate rejects a changed reply (recorded digest)", not run.serve_gates(report, changed, key, {}, recorded))

    for field, delta in (("requests", -1), ("ok", 1), ("worker_respawns", 1)):
        off = copy.deepcopy(report)
        off["status"][field] += delta
        check("status gate rejects %s off by %+d" % (field, delta), not run.status_accounts(off, replies))
    off = copy.deepcopy(report)
    method = next(iter(off["status"]["by_method"]))
    off["status"]["by_method"][method] += 1
    check("status gate rejects by_method off by +1", not run.status_accounts(off, replies))
    check("status gate rejects an unclean shutdown",
          not run.status_accounts(dict(report, clean_shutdown=False), replies))
    check("serve gate rejects an unclean traced shutdown",
          not run.serve_gates(dict(report, traced_clean_shutdown=False), replies, key, {}, {}))


def injected_regression(env, share=0.5):
    """A known regression, work of [share] of each row's wall time over a
    32 MB working set added to every study-llm row, must move the
    normalised metrics by about that share: the normalisation must not
    cancel it."""
    results = []
    for inject in (0.0, share):
        args = argparse.Namespace(workload="study-llm", seed=7, seconds=3, trace=0, inject=inject)
        results.append(run.judge(args, run.run_once(args, env), {}, {})[0]["metrics"])
    base, slow = results
    for name, slower in (("throughput_per_s", lambda a, b: a / b),
                         ("latency_ms_p50", lambda a, b: b / a),
                         ("latency_ms_tail", lambda a, b: b / a)):
        moved = slower(base[name]["value"], slow[name]["value"])
        check("injected %+.0f%% row time moves %s by %+.0f%% (%+.0f%% to %+.0f%% allowed)"
              % (share * 100, name, (moved - 1) * 100, share * 60, share * 160),
              1 + share * 0.6 <= moved <= 1 + share * 1.6)


def main():
    env = run.prepare()
    spec_json = run.load_json("BENCHMARK.json", {})
    per_layer = {m["name"] for m in spec_json["per_layer"]}
    end_to_end = {m["name"] for m in spec_json["end_to_end"]}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            args, out, result = tiny(workload, trace, env)
            names = set(result["metrics"])
            report = run.load_json(os.path.join(out, "report.json"), {})
            check("%s trace %d: tiny run correct (%d attempted)" % (workload, trace, result["attempted"]),
                  result["correct"] and result["failed"] == 0)
            check("%s trace %d: prints every metric" % (workload, trace),
                  names == (per_layer if trace else end_to_end))
            if workload in run.STUDIES:
                (study_trace_corruptions if trace else study_corruptions)(out, report)
            elif trace:
                with open(os.path.join(out, "replies.jsonl")) as f:
                    replies = [json.loads(line) for line in f if line.strip()]
                serve_trace_corruptions(out, report, replies)
            else:
                serve_corruptions(out, report)
    injected_regression(env)
    recorded = {}
    run.digest_gate("k", "a", {}, recorded)
    check("digest gate: a repeated run must agree with the first", not run.digest_gate("k", "b", {}, recorded))
    if failures:
        print("selftest: %d check(s) failed" % len(failures))
        sys.exit(1)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
