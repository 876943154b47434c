"""Statistics of the benchmark: percentiles with their sample counts, span
self-time, open-loop latency from due times, and windowed rates.

Every number run.py reports goes through these functions; test_stats.py
checks them.
"""

import math
import statistics

# A percentile is reported only if at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, q, missing=0):
    """Nearest-rank q-quantile (0 < q < 1) of `samples` plus `missing`
    operations that never completed, which count as slower than any sample.

    Returns {"value", "n", "beyond"}: n is the sample count including the
    missing ones, beyond the number of samples ranked above the percentile.
    value is None when fewer than MIN_BEYOND samples lie beyond it (the
    percentile is not supported by the data), and math.inf when it lands
    on a missing operation.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    n = len(samples) + missing
    if n == 0:
        return {"value": None, "n": 0, "beyond": 0}
    rank = max(1, math.ceil(q * n))  # 1-based
    beyond = n - rank
    ordered = sorted(samples)
    value = ordered[rank - 1] if rank <= len(ordered) else math.inf
    if beyond < MIN_BEYOND:
        value = None
    return {"value": value, "n": n, "beyond": beyond}


def open_loop(due_us, sent_us, done_us):
    """Latency of an open-loop stream, timed from when each item was due.

    done_us[i] < 0 marks an item that never completed. Returns
    (latencies_ms of completed items, missing count, lateness_ms): lateness
    is how late the generator sent each item after it was due.
    """
    if not len(due_us) == len(sent_us) == len(done_us):
        raise ValueError("due, sent and done must align")
    latencies, lateness, missing = [], [], 0
    for due, sent, done in zip(due_us, sent_us, done_us):
        lateness.append(max(0, sent - due) / 1e3)
        if done < 0:
            missing += 1
        else:
            latencies.append((done - due) / 1e3)
    return latencies, missing, lateness


def closed_loop(start_us, done_us):
    """Latencies (ms) of completed closed-loop operations and the number of
    failed ones (done < 0)."""
    latencies = [(d - s) / 1e3 for s, d in zip(start_us, done_us) if d >= 0]
    return latencies, sum(1 for d in done_us if d < 0)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children counted once, clipped to
    the parent). `spans` are (id, parent, request, name, start, end) rows.
    Returns {name: [self time in the spans' unit, ...]}.
    """
    children = {}
    for s in spans:
        if s[1] >= 0:
            children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for sid, _parent, _req, name, start, end in spans:
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(sid, [])):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.setdefault(name, []).append((end - start) - covered)
    return out


def durations(spans):
    """{name: [end - start, ...]} over span rows."""
    out = {}
    for s in spans:
        out.setdefault(s[3], []).append(s[5] - s[4])
    return out


def window_rates(done_us, start_us, stop_us, window_us):
    """Completions per second in consecutive whole windows of window_us
    between start_us and stop_us (a trailing partial window is dropped)."""
    done = sorted(d for d in done_us if d >= 0)
    rates, lo, i = [], start_us, 0
    while lo + window_us <= stop_us:
        hi = lo + window_us
        while i < len(done) and done[i] < lo:
            i += 1
        j = i
        while j < len(done) and done[j] < hi:
            j += 1
        rates.append((j - i) * 1e6 / window_us)
        lo, i = hi, j
    return rates


def median(values):
    return statistics.median(values) if values else None


def iqr_frac(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives
    them (the spread rule the benchmark is held to)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
