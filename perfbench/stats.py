"""Sample math for perfbench: percentiles from raw samples, generator
lateness, span self time and per-name span aggregation.

Everything here is pure (lists in, numbers out) so selftest.py can check it
on synthetic samples.
"""

import math

# The guide's rule for tails: a percentile is reported only when at least
# this many samples lie beyond it.
TAIL_SAMPLES = 10


def percentile(samples, p):
    """Linear interpolation between closest ranks (numpy's default).

    `p` is a fraction in [0, 1]. Returns 0.0 for an empty sample.
    """
    if not samples:
        return 0.0
    xs = sorted(samples)
    h = (len(xs) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def supported(n, p):
    """True when a sample of `n` has at least TAIL_SAMPLES beyond the p-th
    percentile."""
    return n * (1.0 - p) >= TAIL_SAMPLES


def highest_supported(n):
    """The highest percentile (as a fraction) with at least TAIL_SAMPLES
    samples beyond it, or None when n is too small for any tail."""
    if n <= TAIL_SAMPLES:
        return None
    return 1.0 - TAIL_SAMPLES / n


def percentile_label(p):
    """0.99 -> 'p99', 0.99722 -> 'p99.72' (truncated, never rounded up)."""
    scaled = math.floor(p * 10000 + 1e-9) / 100
    text = ("%.2f" % scaled).rstrip("0").rstrip(".")
    return "p" + text


def latency_summary(samples_s, scale=1e3):
    """Median, p99 and the highest supported percentile of a latency
    sample, each with the sample count, in milliseconds by default."""
    n = len(samples_s)
    summary = {"count": n, "p50": percentile(samples_s, 0.5) * scale}
    summary["p99"] = (percentile(samples_s, 0.99) * scale
                      if supported(n, 0.99) else None)
    top = highest_supported(n)
    if top is not None:
        summary["top_label"] = percentile_label(top)
        summary["top"] = percentile(samples_s, top) * scale
    return summary


def open_loop_latency(scheduled, done):
    """Latency of each request from when it was due (not when it was
    sent), so a generator stall is charged to the requests behind it."""
    return [d - s for s, d in zip(scheduled, done)]


def lateness(scheduled, sent):
    """How late the generator sent each request (never negative)."""
    return [max(0.0, t - s) for s, t in zip(scheduled, sent)]


def window_rates(done, start, elapsed, window=1.0):
    """Completions per second in each whole `window` of a closed-loop
    phase that began at `start` and lasted `elapsed` seconds. The median of
    these is steadier than the phase mean when the host stalls the process
    for part of the phase."""
    count = int(elapsed // window)
    rates = [0] * count
    for t in done:
        k = int((t - start) // window)
        if 0 <= k < count:
            rates[k] += 1
    return [r / window for r in rates]


def cpu_windows(done, at, process, loadgen, window=1.0):
    """Operations per CPU-second of the system under test, per window.

    `at`, `process` and `loadgen` are CPU samples taken during a closed
    loop: sample time, the process's CPU seconds, and the load generator
    threads' share of them. Consecutive windows of at least `window`
    seconds start at sample 0; each yields completions in the window
    divided by the process CPU the load generator did not use.
    """
    rates = []
    i = 0
    for j in range(1, len(at)):
        if at[j] - at[i] < window:
            continue
        cpu = (process[j] - process[i]) - (loadgen[j] - loadgen[i])
        count = sum(1 for t in done if at[i] <= t < at[j])
        if cpu > 0:
            rates.append(count / cpu)
        i = j
    return rates


def interval_union(intervals):
    """Total length covered by a list of (begin, end) intervals."""
    total = 0.0
    cur_b = cur_e = None
    for b, e in sorted(intervals):
        if cur_e is None or b > cur_e:
            if cur_e is not None:
                total += cur_e - cur_b
            cur_b, cur_e = b, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_b
    return total


def self_times(spans):
    """Self time of every span of one trace.

    `spans` is a list of dicts with "begin", "end", "depth" and "thread".
    A span's self time is its duration minus the part of it covered by its
    descendants. On one thread spans nest by interval (a thread's spans
    never partly overlap). Spans another thread recorded into the trace
    (the dist-router's per-shard calls) are descendants of the main-thread
    span that contains them, never of each other, so parallel siblings do
    not eat into each other's self time. The main thread is the one whose
    span begins first (the longest on a tie). Of two spans with the same
    interval on one thread, the deeper (or, equally deep, the later
    listed) is inside the other. Returns a list aligned with `spans`.
    """
    if not spans:
        return []
    first = min(range(len(spans)),
                key=lambda i: (spans[i]["begin"],
                               spans[i]["begin"] - spans[i]["end"]))
    main = spans[first].get("thread", 0)
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["begin"], -spans[i]["end"]))
    result = [0.0] * len(spans)
    for pos, i in enumerate(order):
        s = spans[i]
        covered = []
        # Same-begin spans sorted before s end no earlier than s does;
        # only an identical interval can be inside it.
        j = pos - 1
        while j >= 0 and spans[order[j]]["begin"] == s["begin"]:
            k = order[j]
            if spans[k]["end"] == s["end"] and \
                    _descends(spans[k], k, s, i, main):
                covered.append((spans[k]["begin"], spans[k]["end"]))
            j -= 1
        for k in order[pos + 1:]:
            c = spans[k]
            if c["begin"] >= s["end"]:
                break
            if c["end"] <= s["end"] and _descends(c, k, s, i, main):
                covered.append((c["begin"], c["end"]))
        result[i] = (s["end"] - s["begin"]) - interval_union(covered)
    return result


def _descends(c, ci, s, si, main):
    """Whether span c (index ci), already known to lie within s's interval,
    is one of s's descendants."""
    if (c["begin"], c["end"]) == (s["begin"], s["end"]) and \
            c.get("thread", 0) == s.get("thread", 0):
        if c.get("depth", 0) != s.get("depth", 0):
            return c.get("depth", 0) > s.get("depth", 0)
        return ci > si
    if c.get("thread", 0) == s.get("thread", 0):
        return True
    return s.get("thread", 0) == main


def aggregate_spans(traces):
    """Per-name totals over a list of traces (each a list of span dicts
    with "name", "begin", "end", "depth", "thread"; times in seconds).

    Returns {name: {"count", "total_s", "p50_ms", "p99_ms", "self_s"}}.
    """
    durations = {}
    self_total = {}
    for spans in traces:
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            name = span["name"]
            durations.setdefault(name, []).append(span["end"] - span["begin"])
            self_total[name] = self_total.get(name, 0.0) + own
    table = {}
    for name, ds in sorted(durations.items()):
        table[name] = {
            "count": len(ds),
            "total_s": sum(ds),
            "p50_ms": percentile(ds, 0.5) * 1e3,
            "p99_ms": percentile(ds, 0.99) * 1e3,
            "self_s": self_total[name],
        }
    return table


def quartile_spread(values):
    """(q1, median, q3, spread) where spread = (q3 - q1) / median, with the
    quartiles as Python's statistics.quantiles(values, n=4) gives them."""
    import statistics
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return q1, med, q3, spread
