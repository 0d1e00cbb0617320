#!/usr/bin/env python3
"""One benchmark run: build the harness, run one workload in a fresh
process, check its outputs, and print the result as one JSON line.

    python3 perfbench/run.py --workload study-llm --seed 1 --seconds 20 --trace 0 [--inject F]

Run it from the root of a source checkout.  Everything it writes goes
under .perfbench_out/ and .perfbench_tmp/ there; the OCaml build goes
to _build/.  The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Exits 2 without a result when the harness cannot be built
or run.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("study-llm", "study-tools", "serve-mixed")
STUDIES = ("study-llm", "study-tools")
EXE = "perfbench/specbench.exe"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def quantile(xs, p):
    """Linear interpolation between closest ranks (statistics.quantiles'
    'inclusive' method)."""
    xs = sorted(xs)
    if not xs:
        return float("nan")
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified
    Lentz), as in Numerical Recipes, section 6.4."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def betainc(a, b, x):
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(xs, p):
    """The Harrell-Davis estimate of the p-quantile: a weighted mean of
    every order statistic, with Beta(p(n+1), (1-p)(n+1)) weights.  It
    estimates the same quantile as the sample one, with less run-to-run
    noise when a few rows decide the tail."""
    xs = sorted(xs)
    n = len(xs)
    if n < 2:
        return quantile(xs, p)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


# -- build and run -------------------------------------------------------


def build(env):
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "-j", "2", "./" + EXE],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run_harness(args, out, env):
    """Run specbench in its own process group, so that nothing it starts
    can outlive the run."""
    cmd = [
        os.path.join("_build", "default", EXE),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out,
        "--inject", repr(args.inject),
    ]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if code is None:
        proc.wait()
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("specbench exited with %d" % code)


# -- correctness gates ---------------------------------------------------


def digest_gate(key, digest, pinned, recorded):
    """A digest pinned for this key must match; otherwise the first run
    records it and every later run in this checkout must agree."""
    if key in pinned:
        return digest == pinned[key]
    if key in recorded:
        return digest == recorded[key]
    recorded[key] = digest
    return True


WARM = re.compile(r'"warm":(true|false)')


def reply_code(reply):
    """'ok', the error code, or None for a reply that does not parse."""
    try:
        j = json.loads(reply)
    except ValueError:
        return None
    if j.get("ok") is True:
        return "ok"
    return (j.get("error") or {}).get("code")


def serve_replies_digest(replies):
    return md5("\n".join(WARM.sub('"warm":_', r["reply"] or "") for r in replies))


def serve_failures(replies):
    """Requests that got no reply, were refused, or carried the wrong code."""
    return sum(1 for r in replies if r["reply"] is None or reply_code(r["reply"]) != r["expect"])


def status_accounts(report, replies):
    """The daemon's status must count every request of the warm-up and
    the deck (plus the status request itself), with no overload and no
    worker respawn."""
    st = report.get("status") or {}
    n = len(replies) + report["warmup"]
    expected_errors = sum(1 for r in replies if r["expect"] != "ok")
    by_method = dict(report["expected_by_method"], status=1)
    return (
        report["warmup_ok"] is True
        and st.get("requests") == n + 1
        and st.get("ok") == n - expected_errors + 1
        and st.get("errors") == expected_errors
        and st.get("overloaded") == 0
        and st.get("worker_respawns") == 0
        and st.get("by_method") == by_method
        and report.get("clean_shutdown") is True
    )


def study_gates(report, csv_text, gate_key, pinned, recorded):
    rows = len(csv_text.splitlines()) - 1
    ok = digest_gate(gate_key, md5(csv_text), pinned, recorded)
    ok = ok and rows == report["attempted"] - report["failed"]
    # rows do not depend on tracing or on the scheduler's jobs
    if "traced_csv_digest" in report:
        ok = ok and report["traced_csv_digest"] == md5(csv_text)
    if "scheduler" in report:
        ok = ok and report["scheduler"]["csv_digest"] == md5(csv_text)
    return ok


def serve_gates(report, replies, gate_key, pinned, recorded):
    ok = digest_gate(gate_key, serve_replies_digest(replies), pinned, recorded)
    ok = ok and len(replies) == report["attempted"]
    ok = ok and serve_failures(replies) == 0
    ok = ok and status_accounts(report, replies)
    if "traced_clean_shutdown" in report:
        ok = ok and report["traced_clean_shutdown"] is True
    return ok


# -- metrics -------------------------------------------------------------


def speed_samples(out):
    """The per-core probes' samples: {core: (start ms list, cpu ms list)},
    sorted by start."""
    cores = {}
    for name in os.listdir(out):
        m = re.fullmatch(r"speed\.(\d+)\.txt", name)
        if m:
            with open(os.path.join(out, name)) as f:
                rows = sorted(tuple(map(float, line.split())) for line in f if len(line.split()) == 3)
            cores[int(m.group(1))] = ([r[0] for r in rows], [r[1] for r in rows])
    return cores


def speed_factor(cores, nominal_ms, window, core=None, min_samples=5):
    """Nominal over measured reference-chunk CPU time inside the window
    (or of the samples nearest its middle, if it holds fewer than a few),
    so that time x factor reads as at nominal machine speed.  Uses the
    given core's probe when the work ran pinned to it, else the mean over
    the cores."""
    lo, hi = window
    mid = (lo + hi) / 2
    chosen = [cores[core]] if core in cores else list(cores.values())
    factors = []
    for starts, cpus in chosen:
        i, j = bisect.bisect_left(starts, lo), bisect.bisect_right(starts, hi)
        inside = cpus[i:j]
        if len(inside) < min_samples:
            c = bisect.bisect_left(starts, mid)
            near = range(max(0, c - min_samples), min(len(starts), c + min_samples))
            near = sorted(near, key=lambda k: abs(starts[k] - mid))[:min_samples]
            inside = [cpus[k] for k in near]
        if inside:
            factors.append(nominal_ms / quantile(inside, 0.5))
    return mean(factors) if factors else 1.0


def request_latencies(requests, t0, samples, nominal):
    """Serve latencies, each scaled by the cores' speed in its own window,
    from its scheduled send to its reply.  requests: (due ms, latency ms)
    pairs, due from the start of the load, which starts within a fraction
    of a millisecond of t0, the start of its session's window."""
    return [ms * speed_factor(samples, nominal, (t0 + due, t0 + due + ms)) for due, ms in requests]


def end_to_end(workload, report, replies, samples):
    """The end-to-end metrics, normalised to nominal machine speed, and
    the same figures as measured."""
    nominal = report["speed_nominal_ms"]
    core = report.get("pinned_core")
    raw_setup = report["setup_s"]
    setup = [
        t * speed_factor(samples, nominal, w, core)
        for t, w in zip(raw_setup, report["setup_windows"])
    ]
    if workload in STUDIES:
        # a sequential pass on one core: each row's wall time, scaled by
        # that core's speed in the row's own window
        windows = report["row_windows"]
        raw_rows = [w for _, w in windows]
        rows = [w * speed_factor(samples, nominal, (t, t + w), core) for t, w in windows]
        throughput = len(rows) / (sum(rows) / 1000)
        raw_throughput = len(rows) / (sum(raw_rows) / 1000)
        tail = 0.95
    else:
        # goodput counts against the real clock: the arrival schedule is
        # fixed in real time, and the SLO is a real-time limit
        slo = report["slo_ms"]
        answered = [(r["due_ms"], r["latency_ms"]) for r in replies if r["reply"] is not None]
        raw_rows = [ms for _, ms in answered]
        rows = request_latencies(answered, report["pass_window"][0], samples, nominal)
        good = sum(
            1
            for r in replies
            if r["reply"] is not None
            and reply_code(r["reply"]) == r["expect"]
            and r["latency_ms"] <= slo
        )
        throughput = raw_throughput = good / report["span_s"]
        tail = 0.99
    metrics = {
        "throughput_per_s": (throughput, "1/s"),
        "latency_ms_p50": (hd_quantile(rows, 0.5), "ms"),
        "latency_ms_tail": (hd_quantile(rows, tail), "ms"),
        "setup_s": (quantile(setup, 0.5), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    raw = dict(metrics)
    raw.update({
        "throughput_per_s": (raw_throughput, "1/s"),
        "latency_ms_p50": (hd_quantile(raw_rows, 0.5), "ms"),
        "latency_ms_tail": (hd_quantile(raw_rows, tail), "ms"),
        "setup_s": (quantile(raw_setup, 0.5), "s"),
    })
    return metrics, raw


def read_spans(out):
    try:
        with open(os.path.join(out, "spans.jsonl")) as f:
            return [json.loads(line) for line in f if line.strip()]
    except OSError:
        return []


def span_means(spans):
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s["dur_ms"])
    return {k: mean(v) for k, v in by.items()}


# A tracing overhead below this is not tracing cost but a broken
# measurement: a traced run that reports it fails its trace check.  One
# pair of study passes varies by about +-0.10 on a shared 2-vCPU host;
# the median of three stays well above this.
OVERHEAD_FLOOR = -0.15


def overhead(traced, untraced):
    return ratio(traced - untraced, untraced)


def study_overhead(report, samples):
    """Median over the alternated pairs of passes of traced over untraced
    wall time, each pass normalised by the speed of its core in its own
    window."""
    nominal = report["speed_nominal_ms"]
    passes = report["overhead_passes"]
    walls = [
        (p["window"][1] - p["window"][0]) * speed_factor(samples, nominal, p["window"], p["core"])
        for p in passes
    ]
    pairs = []
    for i in range(0, len(passes) - 1, 2):
        traced, untraced = (walls[i], walls[i + 1]) if passes[i]["traced"] else (walls[i + 1], walls[i])
        pairs.append(overhead(traced, untraced))
    return quantile(pairs, 0.5)


def study_layers(report, spans, samples):
    """Per-layer figures of a study workload from its traced pass: row
    spans carry the row's telemetry; their children are the technique's
    session time, the metrics after it and the phase timers.  The second
    value is the trace check: every row traced, each row's session time
    inside its wall time, the scheduler pass present on study-tools, and
    no negative tracing overhead beyond noise."""
    rows = [s for s in spans if s["name"] == "eval.row"]
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    tele = [s["telemetry"] or {} for s in rows]
    n = len(rows)

    def per_row(f):
        return ratio(sum(f(t) for t in tele), n)

    def phase(t, p):
        return (t.get("phases") or {}).get(p, 0.0)

    oracle = lambda t, k: (t.get("oracle") or {}).get(k, 0)
    sat = lambda t, k: (t.get("sat") or {}).get(k, 0)
    metrics_ms, unphased_ms, within = [], [], True
    for r in rows:
        kids = {c["name"]: c for c in children.get(r["id"], [])}
        tech, met = kids["technique"], kids["metrics"]
        # metrics time is defined as row wall minus the session time, so
        # metrics + technique = row wall holds by construction; what can
        # fail is the session time lying outside the row's wall time
        within &= -1e-3 <= r["time_ms"] <= r["dur_ms"] + 1e-3
        metrics_ms.append(met["dur_ms"])
        phased = sum(c["dur_ms"] for c in children.get(tech["id"], []))
        unphased_ms.append(tech["dur_ms"] - phased)
    means = span_means(spans)
    space = [s["space_size"] for s in spans if s["name"] == "mutation.enumerate" and "space_size" in s]
    generated = sum(t.get("candidates_generated", 0) for t in tele)
    evaluated = sum(t.get("candidates_evaluated", 0) for t in tele)
    hits = sum(oracle(t, "verdict_hits") for t in tele)
    misses = sum(oracle(t, "verdict_misses") for t in tele)
    translated = sum(oracle(t, "formulas_translated") for t in tele)
    reused = sum(oracle(t, "formulas_reused") for t in tele)
    layers = {
        "llm.phase_ms_per_row": per_row(lambda t: phase(t, "llm")),
        "llm.rounds_per_row": per_row(lambda t: t.get("llm_rounds", 0)),
        "llm.propose_ms": means.get("llm.propose", 0.0),
        "mutation.enumerate_ms": means.get("mutation.enumerate", 0.0),
        "mutation.space_size": mean(space),
        "mutation.phase_ms_per_row": per_row(lambda t: phase(t, "mutation")),
        "metrics.ms_per_row": mean(metrics_ms),
        "metrics.rep_ms": means.get("metrics.rep", 0.0),
        "metrics.tm_ms": means.get("metrics.tm", 0.0),
        "metrics.sm_ms": means.get("metrics.sm", 0.0),
        "faultloc.phase_ms_per_row": per_row(lambda t: phase(t, "faultloc")),
        "faultloc.rank_ms": means.get("faultloc.rank", 0.0),
        "repair.candidates_generated_per_row": ratio(generated, n),
        "repair.candidates_evaluated_per_row": ratio(evaluated, n),
        "repair.evaluated_per_generated": ratio(evaluated, generated),
        "repair.unphased_ms_per_row": mean(unphased_ms),
        "solver.queries_per_row": per_row(lambda t: t.get("solver_queries", 0)),
        "solver.verdict_hit_ratio": ratio(hits, hits + misses),
        "solver.instance_misses_per_row": per_row(lambda t: oracle(t, "instance_misses")),
        "solver.formulas_translated_per_row": ratio(translated, n),
        "solver.formula_reuse_ratio": ratio(reused, translated + reused),
        "solver.verdict_cold_ms": means.get("solver.verdict_cold", 0.0),
        "solver.verdict_warm_ms": means.get("solver.verdict_warm", 0.0),
        "solver.analyzer_fresh_ms": means.get("solver.analyzer_fresh", 0.0),
        "sat.conflicts_per_row": per_row(lambda t: sat(t, "conflicts")),
        "sat.decisions_per_row": per_row(lambda t: sat(t, "decisions")),
        "sat.propagations_per_row": per_row(lambda t: sat(t, "propagations")),
        "alloy.check_ms": means.get("alloy.check", 0.0),
        "benchmarks.generate_s": quantile(report["generate_s"], 0.5),
        "aunit.suites_s": quantile(report["aunit_s"], 0.5),
    }
    # the scheduler pass of study-tools: every row through run_parallel
    sched = report.get("scheduler")
    if sched:
        layers.update({
            "eval.sched_busy_frac": ratio(sched["busy_ms"], sched["jobs"] * sched["wall_s"] * 1000),
            "eval.sched_chunks": sched["chunks_completed"],
            "eval.sched_retries": sched["retries"],
            "eval.sched_workers_lost": sched["workers_lost"],
        })
    layers["trace.overhead_frac"] = study_overhead(report, samples)
    ok = (
        within
        and n == report["attempted"]
        and (sched is not None or report["workload"] != "study-tools")
        and layers["trace.overhead_frac"] >= OVERHEAD_FLOOR
    )
    return layers, ok


def serve_layers(report, replies, spans, out, samples):
    """Per-layer figures of serve-mixed from its traced session, the
    in-process replay, the daemon's telemetry, its status and the
    capacity pass.  The second value is the trace check: spans present,
    the offered rate at most half the measured capacity, and no negative
    tracing overhead beyond noise."""
    handle = {}
    for s in spans:
        if s["name"] != "serve.handle":
            continue
        method = s["kind"].split(".")[0]
        if method in ("sat", "error"):
            handle.setdefault(method, []).append(s["dur_ms"])
        else:
            handle.setdefault(method + "." + s["warmth"], []).append(s["dur_ms"])
    handle_ms = {s["key"]: s["dur_ms"] for s in spans if s["name"] == "serve.handle"}
    client_ms = {s["key"]: s["dur_ms"] for s in spans if s["name"] == "serve.request"}
    daemon_ms = {}
    try:
        with open(os.path.join(out, "daemon.jsonl")) as f:
            for line in f:
                ev = json.loads(line)
                if ev.get("event") == "reply":
                    daemon_ms[ev["id"]] = ev["ms"]
    except OSError:
        pass
    queue_ipc = [daemon_ms[k] - handle_ms[k] for k in daemon_ms if k in handle_ms]
    client = [client_ms[k] - daemon_ms[k] for k in daemon_ms if k in client_ms]
    st = report.get("status") or {}
    hits, misses = st.get("cache_hits", 0), st.get("cache_misses", 0)
    nominal = report["speed_nominal_ms"]
    # p50 of the traced session against the timed one, normalised as the
    # end-to-end latencies are
    untraced = hd_quantile(request_latencies(
        [(r["due_ms"], r["latency_ms"]) for r in replies if r["reply"] is not None],
        report["pass_window"][0], samples, nominal), 0.5)
    traced = hd_quantile(request_latencies(
        [(s["start_ms"], s["dur_ms"]) for s in spans if s["name"] == "serve.request"],
        report["traced_pass_window"][0], samples, nominal), 0.5)
    layers = {
        "alloy.check_ms": mean(s["dur_ms"] for s in spans if s["name"] == "alloy.check"),
        "benchmarks.generate_s": report.get("generate_s", 0.0),
        "serve.daemon_ms_p50": quantile(list(daemon_ms.values()), 0.5),
        "serve.daemon_ms_p99": quantile(list(daemon_ms.values()), 0.99),
        "serve.queue_ipc_ms_p50": quantile(queue_ipc, 0.5),
        "serve.client_ms_p50": quantile(client, 0.5),
        "serve.cache_hit_ratio": ratio(hits, hits + misses),
        "serve.cache_misses": misses,
        "serve.overloaded": st.get("overloaded", 0),
        "serve.queue_high_water": st.get("queue_high_water", 0),
        "serve.worker_respawns": st.get("worker_respawns", 0),
        "loadgen.late_ms_p99": quantile([r["late_ms"] for r in replies], 0.99),
        "serve.capacity_rps": report["capacity_rps"],
        "trace.overhead_frac": overhead(traced, untraced),
    }
    for method in ("evaluate", "repair_beafix", "repair_atr"):
        for warmth in ("cold", "warm"):
            layers["serve.handle_ms.%s.%s" % (method, warmth)] = mean(handle.get(method + "." + warmth, []))
    layers["serve.handle_ms.sat"] = mean(handle.get("sat", []))
    layers["serve.handle_ms.error"] = mean(handle.get("error", []))
    ok = (
        bool(spans)
        and report["offered_rps"] * 2 <= report["capacity_rps"]
        and layers["trace.overhead_frac"] >= OVERHEAD_FLOOR
    )
    return layers, ok


def per_layer(workload, report, replies, out, spec):
    """Every per-layer metric of BENCHMARK.json.  A layer this workload
    never enters reads 0 (layers.json names where each is measured)."""
    spans = read_spans(out)
    samples = speed_samples(out)
    if workload in STUDIES:
        layers, ok = study_layers(report, spans, samples)
    else:
        layers, ok = serve_layers(report, replies, spans, out, samples)
    layers["machine.speed_factor"] = speed_factor(
        samples, report["speed_nominal_ms"], report["pass_window"], report.get("pinned_core")
    )
    metrics = {}
    for m in spec["per_layer"]:
        v = layers.get(m["name"], 0.0)
        metrics[m["name"]] = (0.0 if v != v else v, m["unit"])
    return metrics, ok


# -- main ----------------------------------------------------------------


def prepare():
    """Check the working directory, then build the harness; returns the
    environment runs execute in."""
    if not os.path.isfile("BENCHMARK.json"):
        fail("no BENCHMARK.json in the working directory")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a specrepair checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(".perfbench_tmp", exist_ok=True)
    env["TMPDIR"] = os.path.abspath(".perfbench_tmp")
    build(env)
    return env


def run_once(args, env):
    """One run in a fresh process; returns its output directory."""
    out = os.path.join(
        ".perfbench_out",
        "%s-s%d-t%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid(), time.monotonic_ns()),
    )
    os.makedirs(out)
    run_harness(args, out, env)
    return out


def judge(args, out, pinned, recorded):
    """Check a run's outputs and compute its metrics: the result line."""
    spec = load_json("BENCHMARK.json", None)
    report = load_json(os.path.join(out, "report.json"), None)
    if report is None:
        fail("specbench wrote no report")
    gate_key = "%s/%d/%d" % (args.workload, args.seconds, args.seed)
    replies = []
    if args.workload in STUDIES:
        with open(os.path.join(out, "rows.csv")) as f:
            csv_text = f.read()
        correct = study_gates(report, csv_text, gate_key, pinned, recorded)
        failed = report["failed"]
    else:
        with open(os.path.join(out, "replies.jsonl")) as f:
            replies = [json.loads(line) for line in f if line.strip()]
        correct = serve_gates(report, replies, gate_key, pinned, recorded)
        failed = serve_failures(replies)
    raw = None
    if args.trace:
        metrics, trace_ok = per_layer(args.workload, report, replies, out, spec)
        correct = correct and trace_ok
    else:
        metrics, raw = end_to_end(args.workload, report, replies, speed_samples(out))
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": int(report["attempted"]),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    # the figures as measured, beside the normalised ones
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump({"result": result, "raw_metrics": raw and {k: v for k, (v, _) in raw.items()}}, f, indent=1)
    return result, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", type=float, default=0.0,
                    help="study-llm: add allocating work of this share of each row's wall time "
                         "(a known regression, for the self-test)")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    env = prepare()
    out = run_once(args, env)
    pinned = load_json(os.path.join(HERE, "pinned.json"), {})
    recorded_path = os.path.join(".perfbench_out", "digests.json")
    recorded = load_json(recorded_path, {})
    result, raw = judge(args, out, pinned, recorded)
    with open(recorded_path, "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
    if raw:
        print("perfbench: as measured, before normalisation: "
              + json.dumps({k: v for k, (v, _) in raw.items()}), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
