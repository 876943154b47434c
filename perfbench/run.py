#!/usr/bin/env python3
"""The repo's benchmark of record.

    python3 perfbench/run.py --workload ingest|query|train --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench_driver from source into
.bench_build/ (the first run compiles the libraries), runs one workload on
inputs generated from --seed, checks the outputs, prints a text report and,
as the last line, one JSON object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run. Exits non-zero if any check fails.
See perfbench/README.md for the metrics, workloads and layer map.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ingest", "query", "train")
# The driver process of a run must end within this.
RUN_BUDGET_S = 170

# End-to-end metrics: (name, unit). README.md, "End-to-end metrics", says
# why they are CPU times: on a shared host the wall-clock figures of the same
# code moved by 2x to 25x from run to run, so they are printed, not gated.
END_TO_END = [
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
]
# Each workload's primary operation: the op kind whose CPU cost is gated.
PRIMARY = {"ingest": "ingest_saturated", "query": "search",
           "train": "train_step"}
# The tail percentile each workload prints: the highest one the run has at
# least stats.MIN_BEYOND samples beyond.
TAIL_Q = {"ingest": 0.99, "query": 0.99, "train": 0.80}
# World builds per run; setup_s is their median.
SETUPS = 3

# Per-layer metrics of the traced run: (name, unit, how it is derived).
PER_LAYER = [
    ("traj.match_ms", "ms", ("median", "traj.match_ms")),
    ("traj.match_fail_frac", "ratio", ("value", "traj.match_fail_frac")),
    ("serve.stage_wait_ms.match", "ms", ("span_ms", "serve.stage_wait.match")),
    ("serve.stage_wait_ms.embed", "ms", ("span_ms", "serve.stage_wait.embed")),
    ("serve.stage_wait_ms.upsert", "ms",
     ("span_ms", "serve.stage_wait.upsert")),
    ("serve.finalize_ms", "ms", ("self_ms", "serve.item")),
    ("serve.queue_depth_max.match", "count",
     ("value", "serve.queue_depth_max.match")),
    ("serve.queue_depth_max.embed", "count",
     ("value", "serve.queue_depth_max.embed")),
    ("serve.queue_depth_max.upsert", "count",
     ("value", "serve.queue_depth_max.upsert")),
    ("serve.retried", "count", ("value", "serve.retried")),
    ("serve.embed.batch_ms.f32", "ms", ("median", "serve.embed.batch_ms.f32")),
    ("serve.embed.batch_ms.int8", "ms",
     ("median", "serve.embed.batch_ms.int8")),
    ("serve.embed.roundtrip_ms", "ms", ("span_ms", "serve.embed.roundtrip")),
    ("serve.embed.coalescing", "req/batch",
     ("value", "serve.embed.coalescing")),
    ("serve.embed.padding_eff", "ratio", ("value", "serve.embed.padding_eff")),
    ("serve.hnsw.insert_us", "us", ("span_us", "serve.hnsw.insert")),
    ("serve.hnsw.search_us", "us", ("span_us", "serve.hnsw.search")),
    ("serve.hnsw.build_s", "s", ("median", "serve.hnsw.build_s")),
    ("serve.embed_all_s", "s", ("median", "serve.embed_all_s")),
    ("serve.encoder.load_s", "s", ("median", "serve.encoder.load_s")),
    ("roadnet.ch.query_us", "us", ("median", "roadnet.ch.query_us")),
    ("roadnet.ch.build_s", "s", ("median", "roadnet.ch.build_s")),
    ("core.train.loader_wait_ms", "ms",
     ("span_ms", "core.train.loader_wait")),
    ("core.train.step_ms", "ms", ("span_ms", "core.train.step")),
    ("core.tpe_gat.fwd_ms", "ms", ("median", "core.tpe_gat.fwd_ms")),
    ("core.encoder.fwd_ms", "ms", ("median", "core.encoder.fwd_ms")),
    ("tensor.gemm_f32_gflops", "GFLOP/s", ("value", "tensor.gemm_f32_gflops")),
    ("tensor.gemm_f32_gbps", "GB/s", ("value", "tensor.gemm_f32_gbps")),
    ("tensor.gemm_f32_peak_frac", "ratio",
     ("value", "tensor.gemm_f32_peak_frac")),
    ("tensor.gemm_f32_peak_gflops", "GFLOP/s",
     ("value", "tensor.gemm_f32_peak_gflops")),
    ("tensor.qgemm_int8_gops", "GOP/s", ("value", "tensor.qgemm_int8_gops")),
    ("tensor.qgemm_int8_gbps", "GB/s", ("value", "tensor.qgemm_int8_gbps")),
    ("common.cpu_ms_per_op", "ms", ("cpu_per_op", None)),
    ("common.threads_peak", "count", ("value", "common.threads_peak")),
    ("trace.overhead_frac", "ratio", ("overhead", None)),
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; exits 2 if that fails."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no CMakeLists.txt and src/ at", ROOT,
            "- run from the root of a full checkout")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD, "perfbench_driver")


def source_id():
    """git SHA when the checkout is a repository, else a hash of the
    sources the driver is built from."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def run_driver(driver, args, seconds, setups, workdir, deadline):
    out = os.path.join(workdir, "raw.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%.3f" % seconds, "--trace", str(args.trace),
           "--setups", str(setups), "--workdir", workdir, "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        sys.exit(2)
    if proc.returncode != 0 or not os.path.isfile(out):
        log("perfbench: driver failed with code", proc.returncode)
        sys.exit(2)
    with open(out) as fh:
        return json.load(fh)


# ---- Metrics -----------------------------------------------------------------

def op_series(raw, kind):
    ops = raw["ops"].get(kind)
    if ops is None:
        raise KeyError("no operations of kind " + kind)
    return ops


def throughput(raw, kind, window_us=500_000):
    """Median completion rate over the phase's whole half-second windows
    (the phase mean when it is shorter than two windows)."""
    ops = op_series(raw, kind)
    start, done = min(ops["start_us"]), [d for d in ops["end_us"] if d >= 0]
    stop = max(done)
    rates = stats.window_rates(done, start, stop, window_us)
    if len(rates) >= 2:
        return stats.median(rates)
    return len(done) * 1e6 / (stop - start)


def op_span_us(raw, kind):
    """First start to last completion of the phase's operations."""
    ops = op_series(raw, kind)
    return max(ops["end_us"]) - min(ops["start_us"])


def latencies(raw, kind):
    ops = op_series(raw, kind)
    if ops["due_us"]:
        lat, missing, late = stats.open_loop(ops["due_us"], ops["start_us"],
                                             ops["end_us"])
        return lat, missing + ops["shed"], late
    lat, missing = stats.closed_loop(ops["start_us"], ops["end_us"])
    return lat, missing + ops["shed"], None


def completed_ops(raw, workload):
    """How many primary operations completed: trajectories for train (a
    step's batch rows), operations otherwise."""
    ops = op_series(raw, PRIMARY[workload])
    if workload == "train":
        rows = raw["samples"]["train_step.rows"]
        return sum(r for e, r in zip(ops["end_us"], rows) if e >= 0)
    return sum(1 for e in ops["end_us"] if e >= 0)


def counts_note(p):
    return "wall, n=%d, %d beyond" % (p["n"], p["beyond"])


def end_to_end(workload, raw):
    """The run's end-to-end metrics, and the named figures of the text
    report as {name: (value, unit, note)}."""
    named = {}

    def pct(prefix, lat, missing, qs):
        for q in qs:
            p = stats.percentile(lat, q, missing)
            named["%s_p%d_ms" % (prefix, round(q * 100))] = (
                p["value"], "ms", counts_note(p))

    tail_q = TAIL_Q[workload]
    done = completed_ops(raw, workload)
    cpu_ms = raw["values"]["phase_cpu_s"] * 1e3 / done if done else None
    if workload == "ingest":
        named["cpu_ms_per_op"] = (cpu_ms, "ms",
                                  "CPU per trajectory, saturated")
        named["ingest_tps"] = (throughput(raw, "ingest_saturated"), "trajs/s",
                               "wall, saturated")
        lat, missing, late = latencies(raw, "ingest")
        pct("ingest", lat, missing, (0.5, tail_q))
        for q in (0.5, 0.99):
            p = stats.percentile(late, q)
            named["generator_late_p%d_ms" % round(q * 100)] = (
                p["value"], "ms", counts_note(p))
        named["ingest_recall_at_10"] = (
            raw["values"].get("ingest_recall_at_10"), "ratio", "vs exact")
    elif workload == "query":
        named["cpu_ms_per_op"] = (cpu_ms, "ms",
                                  "CPU per search, ETA client excluded")
        named["search_qps"] = (throughput(raw, "search"), "1/s",
                               "wall, closed loop")
        lat, missing, _ = latencies(raw, "search")
        pct("search", lat, missing, (0.5, tail_q))
        named["eta_qps"] = (throughput(raw, "eta"), "1/s",
                            "wall, offered 2000/s")
        eta, eta_missing, _ = latencies(raw, "eta")
        pct("eta", eta, eta_missing, (0.5, 0.99))
        named["recall_at_10"] = (raw["values"].get("recall_at_10"), "ratio",
                                 "HNSW vs exact")
    else:
        named["cpu_ms_per_op"] = (cpu_ms, "ms", "CPU per trajectory trained")
        named["train_tps"] = (done * 1e6 / op_span_us(raw, "train_step"),
                              "trajs/s", "wall")
        lat, missing, _ = latencies(raw, "train_step")
        pct("train_step", lat, missing, (0.5, tail_q))
    setup = stats.median(raw["setup_cpu_s"])
    named["setup_s"] = (setup, "s", "CPU, median of %d set-ups" %
                        len(raw["setup_cpu_s"]))
    named["setup_wall_s"] = (stats.median(raw["setup_s"]), "s",
                             "wall, median of %d" % len(raw["setup_s"]))
    if raw["samples"].get("serve.encoder.load_s"):
        named["encoder_load_s"] = (
            stats.median(raw["samples"]["serve.encoder.load_s"]), "s",
            "wall, not in setup_s")
    named["rss_peak_mb"] = (raw["values"]["rss_peak_mb"], "MiB", "")
    metrics = {"cpu_ms_per_op": cpu_ms, "setup_s": setup,
               "rss_peak_mb": raw["values"]["rss_peak_mb"]}
    return metrics, named


def trace_overhead(raw):
    """1 - (median traced window rate / median untraced window rate)."""
    rates = {True: [], False: []}
    for w in raw["windows"]:
        ops = op_series(raw, w["kind"])
        n = sum(1 for d in ops["end_us"] if w["start_us"] <= d < w["end_us"])
        rates[w["traced"]].append(n * 1e6 / max(1, w["end_us"] - w["start_us"]))
    if not rates[True] or not rates[False]:
        return None
    return 1.0 - stats.median(rates[True]) / stats.median(rates[False])


def per_layer(raw, lines):
    names = raw["span_names"]
    spans = [(s[0], s[1], s[2], names[s[3]], s[4], s[5]) for s in raw["spans"]]
    dur = stats.durations(spans)
    self_t = stats.self_times(spans)
    out = {}
    for name, unit, (how, key) in PER_LAYER:
        if how == "median":
            value = stats.median(raw["samples"].get(key, []))
        elif how == "value":
            value = raw["values"].get(key)
        elif how == "span_ms":
            value = stats.median([d / 1e6 for d in dur.get(key, [])])
        elif how == "span_us":
            value = stats.median([d / 1e3 for d in dur.get(key, [])])
        elif how == "self_ms":
            value = stats.median([d / 1e6 for d in self_t.get(key, [])])
        elif how == "cpu_per_op":
            value = raw["values"]["cpu_s"] * 1e3 / max(
                1.0, raw["values"]["ops_completed"])
        else:
            value = trace_overhead(raw)
        out[name] = (value, unit)
        shown = "n/a" if value is None else "%.6g" % value
        lines.append("  %-30s %12s %s" % (name, shown, unit))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    setups = 1 if args.trace else SETUPS
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        raw = run_driver(driver, args, args.seconds, setups, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    host = dict(raw["host"], source=source_id(),
                calib_ms="%.2f" % raw["values"]["host.calib_ms"])
    lines = ["perfbench %s seed=%d seconds=%d trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace)]
    lines.append("host: " + ", ".join("%s=%s" % kv for kv in sorted(host.items())))
    for note in raw["notes"]:
        lines.append("note: " + note)
    lines.append("checks:")
    checks_ok = True
    for c in raw["checks"]:
        checks_ok = checks_ok and c["ok"]
        lines.append("  %-22s %s  %s" % (
            c["name"], "ok" if c["ok"] else "FAIL", c["detail"]))
    attempted = failed = 0
    lines.append("operations (attempted / succeeded / failed / shed):")
    for kind, ops in sorted(raw["ops"].items()):
        n_failed = sum(1 for d in ops["end_us"] if d < 0)
        n = len(ops["start_us"]) + ops["shed"]
        attempted += n
        failed += n_failed + ops["shed"]
        lines.append("  %-20s %d / %d / %d / %d" % (
            kind, n, n - n_failed - ops["shed"], n_failed, ops["shed"]))

    if args.trace:
        lines.append("per-layer (traced run):")
        metrics = per_layer(raw, lines)
    else:
        values, named = end_to_end(args.workload, raw)
        lines.append("end-to-end (gated: %s; the rest is printed only):" %
                     ", ".join(name for name, _ in END_TO_END))
        for name, (value, unit, note) in named.items():
            shown = "n/a" if value is None else "%.6g" % value
            lines.append("  %-24s %12s %-8s %s" % (name, shown, unit, note))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    defined = all(v is not None and math.isfinite(v) for v, _ in metrics.values())
    if not defined:
        lines.append("FAIL: a metric is undefined (too few samples, or an "
                     "operation failed within its percentile)")
    correct = checks_ok and defined and attempted >= 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if defined else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
