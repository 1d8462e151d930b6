"""Turns one driver record (the JSON perfbench_driver writes) into the
benchmark's gates and metrics.

The driver only times and records, answers included as bit patterns;
every verdict and every number derived from raw samples is made here, so
selftest.py can plant bad records and check that the gates fail.
"""

import json
import statistics

import stats

# Workload table. The AUC floors and the expected training path are fixed
# per workload; see README.md for why each workload exists.
WORKLOADS = {
    "train-resident": {"kind": "train", "auc_floor": 0.85,
                       "level0_partitioned": False},
    "train-partitioned": {"kind": "train", "auc_floor": 0.85,
                          "level0_partitioned": True},
    "serve-direct": {"kind": "serve"},
    "serve-scatter": {"kind": "serve"},
}

# End-to-end metrics: every workload reports every one (see README.md).
END_TO_END = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics, reported by the traced run of every workload; a layer
# a workload does not exercise reads 0.
PER_LAYER = {
    "graph.generate_s": "s",
    "graph.split_s": "s",
    "coarsening.s": "s",
    "coarsening.levels": "count",
    "embedding.level0_s": "s",
    "embedding.coarse_s": "s",
    "embedding.passes": "count",
    "embedding.updates_per_s": "1/s",
    "embedding.coarse_us_per_pass": "us",
    "embedding.project_s": "s",
    "simt.kernels": "count",
    "simt.h2d_mib": "MiB",
    "simt.d2h_mib": "MiB",
    "largegraph.s": "s",
    "largegraph.pair_kernels": "count",
    "largegraph.switches": "count",
    "largegraph.pair_p50_ms": "ms",
    "largegraph.pool_wait_s": "s",
    "largegraph.pair_kernel_s": "s",
    "largegraph.pool_wait_share": "ratio",
    "eval.s": "s",
    "eval.auc": "ratio",
    "store.write_s": "s",
    "store.open_s": "s",
    "serving.inproc_p50_ms": "ms",
    "serving.inproc_qps": "1/s",
    "query.scan_p50_ms": "ms",
    "serving.scatter_p50_ms": "ms",
    "serving.merge_p50_us": "us",
    "serving.remote_call_p50_ms": "ms",
    "serving.remote_call_p99_ms": "ms",
    "serving.retries": "count",
    "serving.hedges": "count",
    "serving.breaker_opens": "count",
    "serving.degraded": "count",
    "net.handler_p50_ms": "ms",
    "net.handler_p99_ms": "ms",
    "net.parse_p50_us": "us",
    "net.render_p50_us": "us",
    "net.wire_p50_ms": "ms",
    "net.connections": "count",
    "net.child_connections": "count",
    "loadgen.late_p99_ms": "ms",
    "host.steal_pct": "%",
    "trace.overhead_pct": "%",
}

ANSWER_PROBLEMS = {
    1: "transport error",
    2: "non-200 answer",
    3: "unparsable answer",
    4: "degraded answer",
    5: "wrong neighbour count",
}

MIB = float(1 << 20)


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ---- Training ------------------------------------------------------------

def level_samples(level, negative_samples, batch_b):
    """Positive-plus-negative updates one level trained: passes x |V| on a
    resident level; rotations x B x K x |V| through Algorithm 5, where every
    vertex meets B positives per part pair and sits in K pairs."""
    if level["partitioned"]:
        positives = (level["rotations"] * batch_b * level["partitions"]
                     * level["vertices"])
    else:
        positives = level["passes"] * level["vertices"]
    return positives * (1 + negative_samples)


def embed_samples(embed):
    return sum(level_samples(level, embed["negative_samples"],
                             embed["batch_B"])
               for level in embed["levels"])


def train_gates(raw, spec):
    """Gate failures of a train record: each failed embed (not ok,
    non-finite values, wrong path) and an AUC below the floor."""
    failures = []
    for n, embed in enumerate(raw["embeds"]):
        if not embed.get("ok"):
            failures.append("embed %d failed: %s" % (n, embed.get("status")))
            continue
        if embed.get("non_finite", 0):
            failures.append("embed %d: %d non-finite values"
                            % (n, embed["non_finite"]))
            continue
        levels = embed["levels"]
        if not levels:
            failures.append("embed %d: no level reports" % n)
        elif spec["level0_partitioned"]:
            if not levels[0]["partitioned"]:
                failures.append("embed %d: path identity: level 0 trained "
                                "resident" % n)
        else:
            bad = [lv["level"] for lv in levels if lv["partitioned"]]
            if bad:
                failures.append("embed %d: path identity: levels %s trained "
                                "partitioned" % (n, bad))
    if not raw["auc"] >= spec["auc_floor"]:
        failures.append("auc %.4f below floor %.2f"
                        % (raw["auc"], spec["auc_floor"]))
    return failures


def train_end_to_end(raw):
    untraced = [e for e in raw["embeds"] if e.get("ok") and not e["traced"]]
    walls = [e["wall_s"] for e in untraced]
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "ops_per_cpu_s": median([embed_samples(e) / e["cpu_s"]
                                 for e in untraced]),
        "peak_rss_mib": median([e["peak_rss_mib"] for e in untraced]),
    }
    informational = {
        "embed_s": {"value": median(walls), "unit": "s",
                    "count": len(walls), "values": walls},
        "samples_per_s": {"value": median([embed_samples(e) / e["wall_s"]
                                           for e in untraced]),
                          "unit": "1/s"},
        "auc": {"value": raw["auc"], "unit": "ratio"},
        "levels": [len(e["levels"]) for e in untraced],
        "train_graph": {"vertices": raw["train_vertices"],
                        "edges": raw["train_edges"],
                        "test_edges": raw["test_edges"]},
    }
    return metrics, informational


def train_per_layer(raw, chrome):
    embeds = [e for e in raw["embeds"] if e.get("ok")]
    if not embeds:
        return {}, {}
    traced = next((e for e in embeds if e["traced"]), embeds[-1])
    baseline = next((e for e in embeds if not e["traced"]), traced)
    levels = traced["levels"]
    resident = [lv for lv in levels if not lv["partitioned"]]
    partitioned = [lv for lv in levels if lv["partitioned"]]
    ns = traced["negative_samples"]
    coarse = [lv for lv in resident if lv["level"] >= 1]
    coarse_s = sum(lv["train_s"] for lv in coarse)
    coarse_passes = sum(lv["passes"] for lv in coarse)
    resident_s = sum(lv["train_s"] for lv in resident)
    resident_updates = sum(level_samples(lv, ns, traced["batch_B"])
                           for lv in resident)
    events = sorted(traced["observer_levels"], key=lambda e: e["begin_ns"])
    project_s = sum(max(0.0, (b["begin_ns"] - a["end_ns"]) * 1e-9)
                    for a, b in zip(events, events[1:]))
    pair_intervals = [x for e in events for x in e["pair_intervals_s"]]
    spans = chrome_spans_by_trace(chrome)
    train_spans = [s for tr in spans if tr["label"] == "train"
                   for s in tr["spans"]]
    pool_wait = sum(s["end"] - s["begin"] for s in train_spans
                    if s["name"] == "pool-wait")
    pair_kernel = sum(s["end"] - s["begin"] for s in train_spans
                      if s["name"] == "pair-kernel")
    # Tracing overhead on a work-normalized rate: coarsening depth varies
    # run to run, so raw embed times of two embeds are not comparable.
    base_rate = embed_samples(baseline) / baseline["wall_s"]
    traced_rate = embed_samples(traced) / traced["wall_s"]
    level0 = levels[0] if levels else None
    metrics = {
        "graph.generate_s": median(raw["generate_s"]),
        "graph.split_s": median(raw["split_s"]),
        "coarsening.s": traced["coarsening_s"],
        "coarsening.levels": len(levels),
        "embedding.level0_s": (level0["train_s"]
                               if level0 and not level0["partitioned"]
                               else 0.0),
        "embedding.coarse_s": coarse_s,
        "embedding.passes": sum(lv["passes"] for lv in resident),
        "embedding.updates_per_s": (resident_updates / resident_s
                                    if resident_s else 0.0),
        "embedding.coarse_us_per_pass": (coarse_s / coarse_passes * 1e6
                                         if coarse_passes else 0.0),
        "embedding.project_s": project_s,
        "simt.kernels": traced["device"]["kernels"],
        "simt.h2d_mib": traced["device"]["h2d_bytes"] / MIB,
        "simt.d2h_mib": traced["device"]["d2h_bytes"] / MIB,
        "largegraph.s": sum(lv["train_s"] for lv in partitioned),
        "largegraph.pair_kernels": sum(lv["pair_kernels"]
                                       for lv in partitioned),
        "largegraph.switches": sum(lv["switches"] for lv in partitioned),
        "largegraph.pair_p50_ms": stats.percentile(pair_intervals, 0.5) * 1e3,
        "largegraph.pool_wait_s": pool_wait,
        "largegraph.pair_kernel_s": pair_kernel,
        "largegraph.pool_wait_share": (pool_wait / (pool_wait + pair_kernel)
                                       if pool_wait + pair_kernel else 0.0),
        "eval.s": raw["eval_s"],
        "eval.auc": raw["auc"],
        "trace.overhead_pct": (base_rate / traced_rate - 1.0) * 100.0
                              if traced_rate else 0.0,
    }
    return metrics, span_tables({"train": [tr["spans"] for tr in spans
                                           if tr["label"] == "train"],
                                 "pairs": [tr["spans"] for tr in spans
                                           if tr["label"] == "pairs"]})


# ---- Serving -------------------------------------------------------------

def serve_gates(raw):
    """Failed requests of a serve record: every answer code that is not ok,
    plus every sampled answer that is not bit-identical to the reference.
    Returns (failed_count, failure messages)."""
    failures = []
    failed = 0
    for code, count in sorted(_counts(raw["answer_codes"]).items()):
        if code == 0:
            continue
        failed += count
        failures.append("%d requests: %s"
                        % (count, ANSWER_PROBLEMS.get(code, "code %d" % code)))
    mismatched = [s for s in raw["sample"] if s["got"] != s["want"]]
    if mismatched:
        failed += len(mismatched)
        failures.append("%d of %d sampled answers differ from the unsharded "
                        "exact scan (first: probe %d)"
                        % (len(mismatched), len(raw["sample"]),
                           mismatched[0]["probe"]))
    return failed, failures


def _counts(codes):
    counts = {}
    for code in codes:
        counts[code] = counts.get(code, 0) + 1
    return counts


def open_loop_samples(phase):
    latency = stats.open_loop_latency(phase["scheduled_s"], phase["done_s"])
    late = stats.lateness(phase["scheduled_s"], phase["sent_s"])
    return latency, late


def serve_end_to_end(raw):
    latency, late = open_loop_samples(raw["open"])
    closed = raw["closed"]
    windows = stats.window_rates(closed["done_s"], closed["start_s"],
                                 closed["elapsed_s"])
    cpu = closed["cpu"]
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "ops_per_cpu_s": median(stats.cpu_windows(
            closed["done_s"], cpu["at_s"], cpu["process_s"],
            cpu["loadgen_s"])),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    informational = {
        "open_loop_ms": dict(stats.latency_summary(latency),
                             rate_qps=raw["rate_qps"]),
        "late_ms": stats.latency_summary(late),
        "closed_loop_ms": stats.latency_summary(
            [d - s for s, d in zip(closed["sent_s"], closed["done_s"])]),
        "sat_qps": {"value": len(closed["done_s"]) / closed["elapsed_s"],
                    "unit": "q/s", "count": len(closed["done_s"]),
                    "window_median": median(windows),
                    "windows": len(windows)},
        "setup_parts_s": {part: median(raw[key]) for part, key in (
            ("store_write", "store_write_s"), ("service_open", "store_open_s"),
            ("server_start", "server_start_s"), ("warm_up", "warm_up_s"))},
    }
    return metrics, informational


def counter_delta(raw, name, where="front"):
    """Growth of a /metrics counter over the timed phase (after set-up to
    the end); `where` is "front" or "children" (summed)."""
    begin, end = raw["counters"]["after_setup"], raw["counters"]["end"]
    if where == "front":
        return end["front"][name] - begin["front"][name]
    return sum(e[name] - b[name]
               for b, e in zip(begin["children"], end["children"]))


def serve_per_layer(raw, chrome):
    traces = chrome_spans_by_trace(chrome)
    phase = raw["traced"]
    window = (min(phase["scheduled_s"]), max(phase["done_s"]))
    ids = set(phase["ids"])
    front = [tr for tr in traces
             if tr["label"] == "POST /v1/query" and tr["id"] in ids]
    children = [tr for tr in traces
                if tr["label"] == "POST /v1/query" and tr["id"] not in ids
                and window[0] <= tr["begin"] <= window[1]]
    scan_source = children if raw["workload"] == "serve-scatter" else front

    def durations(group, name):
        return [s["end"] - s["begin"] for tr in group for s in tr["spans"]
                if s["name"] == name]

    handler_by_id = {}
    for tr in front:
        for s in tr["spans"]:
            if s["name"] == "handler":
                handler_by_id[tr["id"]] = s["end"] - s["begin"]
    wire = []
    for rid, sent, done in zip(phase["ids"], phase["sent_s"], phase["done_s"]):
        if rid in handler_by_id:
            wire.append((done - sent) - handler_by_id[rid])
    untraced, late = open_loop_samples(raw["open"])
    traced_latency, _ = open_loop_samples(phase)
    handler = durations(front, "handler")
    # A remote: service records each exchange as "remote-call"; the
    # dist-router records each shard's exchange as "shard-N".
    remote = [s["end"] - s["begin"] for tr in front for s in tr["spans"]
              if s["name"] == "remote-call" or s["name"].startswith("shard-")]
    base_p50 = stats.percentile(untraced, 0.5)
    metrics = {
        "store.write_s": median(raw["store_write_s"]),
        "store.open_s": median(raw["store_open_s"]),
        "serving.inproc_p50_ms":
            stats.percentile(raw["inproc_latency_s"], 0.5) * 1e3,
        "serving.inproc_qps": raw["inproc_qps"],
        "query.scan_p50_ms":
            stats.percentile(durations(scan_source, "scan"), 0.5) * 1e3,
        "serving.scatter_p50_ms":
            stats.percentile(durations(front, "scatter"), 0.5) * 1e3,
        "serving.merge_p50_us":
            stats.percentile(durations(front, "merge"), 0.5) * 1e6,
        "serving.remote_call_p50_ms": stats.percentile(remote, 0.5) * 1e3,
        "serving.remote_call_p99_ms": stats.percentile(remote, 0.99) * 1e3,
        "serving.retries": counter_delta(raw, "gosh_remote_retries_total"),
        "serving.hedges": counter_delta(raw, "gosh_remote_hedges_total"),
        "serving.breaker_opens":
            counter_delta(raw, "gosh_remote_breaker_open_total"),
        "serving.degraded":
            counter_delta(raw, "gosh_remote_degraded_responses_total"),
        "net.handler_p50_ms": stats.percentile(handler, 0.5) * 1e3,
        "net.handler_p99_ms": stats.percentile(handler, 0.99) * 1e3,
        "net.parse_p50_us":
            stats.percentile(durations(front, "parse"), 0.5) * 1e6,
        "net.render_p50_us":
            stats.percentile(durations(front, "render"), 0.5) * 1e6,
        "net.wire_p50_ms": stats.percentile(wire, 0.5) * 1e3,
        "net.connections": counter_delta(raw, "gosh_http_connections_total"),
        "net.child_connections":
            counter_delta(raw, "gosh_http_connections_total", "children"),
        "loadgen.late_p99_ms": stats.percentile(late, 0.99) * 1e3,
        "trace.overhead_pct":
            (stats.percentile(traced_latency, 0.5) / base_p50 - 1.0) * 100.0
            if base_p50 else 0.0,
    }
    tables = span_tables({
        "front": [tr["spans"] for tr in front],
        "children": [tr["spans"] for tr in children],
        "bench": [tr["spans"] for tr in traces
                  if tr["label"] in ("loadgen", "inproc")],
    })
    tables["samples"] = {
        "handler": len(handler), "remote-call": len(remote),
        "wire": len(wire), "front_traces": len(front),
        "child_traces": len(children),
    }
    return metrics, tables


# ---- Chrome trace JSON ---------------------------------------------------

def chrome_spans_by_trace(chrome):
    """Groups a Chrome trace_event document (as Tracer::export_chrome_json
    writes it: one viewer process per trace, a root event carrying the
    request id, then the spans) into traces. Times become seconds."""
    traces = {}
    for event in chrome.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        pid = event["pid"]
        begin = event["ts"] * 1e-6
        end = begin + event["dur"] * 1e-6
        args = event.get("args", {})
        tr = traces.setdefault(pid, {"label": "", "id": "", "begin": 0.0,
                                     "spans": []})
        if "sampled" in args:
            tr["label"] = event["name"]
            tr["id"] = args.get("request_id", "")
            tr["begin"] = begin
            continue
        tr["spans"].append({"name": event["name"], "begin": begin,
                            "end": end, "depth": args.get("depth", 0),
                            "thread": event.get("tid", 0)})
    return [traces[pid] for pid in sorted(traces)]


def span_tables(groups):
    return {group: stats.aggregate_spans(trs) for group, trs in groups.items()
            if any(trs)}


def load_chrome(path):
    if not path:
        return {}
    with open(path) as f:
        return json.load(f)


# ---- One record ----------------------------------------------------------

def evaluate(raw, trace):
    """Returns (correct, attempted, failed, metrics, details) for one driver
    record; `metrics` holds the end-to-end set (trace 0) or the per-layer
    set (trace 1), every value a plain number."""
    spec = WORKLOADS[raw["workload"]]
    details = {}
    if spec["kind"] == "train":
        failures = train_gates(raw, spec)
        # One operation per embed plus the evaluation; a failed gate fails
        # the operation it judged.
        attempted = len(raw["embeds"]) + 1
        failed = min(attempted, len(failures))
    else:
        failed, failures = serve_gates(raw)
        attempted = len(raw["answer_codes"])
    details["failures"] = failures
    details["error_rate"] = failed / attempted if attempted else 1.0
    if not trace:
        if spec["kind"] == "train":
            metrics, info = train_end_to_end(raw)
        else:
            metrics, info = serve_end_to_end(raw)
        details["informational"] = info
    else:
        chrome = load_chrome(raw.get("chrome_trace"))
        metrics = {name: 0.0 for name in PER_LAYER}
        if spec["kind"] == "train":
            layer, tables = train_per_layer(raw, chrome)
        else:
            layer, tables = serve_per_layer(raw, chrome)
        metrics.update(layer)
        details["spans"] = tables
    return failed == 0, attempted, failed, metrics, details
