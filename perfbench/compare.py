#!/usr/bin/env python3
"""Collects sets of benchmark runs and reports whether they are steady and
whether two sets agree.

    # ten untraced runs per workload, seeds 1..10, into DIR
    python3 perfbench/compare.py collect DIR --seeds 1-10 [--workloads a,b]
    # spread of one set, or agreement of two sets
    python3 perfbench/compare.py report DIR_A [DIR_B]

A set is a directory of run records (`<workload>-seed<n>-trace0.json`, as
run.py writes them). For each workload and end-to-end metric the report
gives each set's median and quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median against the metric's bound from BENCHMARK.json,
and, for two sets, whether the second median is worse than the first by
more than the bound. Exit status 1 when a spread exceeds its bound (except
setup_s, whose spread is not bounded) or two sets disagree.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    os.makedirs(args.dir, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = list(bench["command"]) + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
                "--results", os.path.abspath(args.dir)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("%s seed %d: exit %d %s" % (workload, seed, proc.returncode,
                                              last[0]), flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])


def load_set(path):
    """{workload: {metric: [values...]}} plus {workload: failed runs}."""
    values, failed = {}, {}
    for name in sorted(glob.glob(os.path.join(path, "*-trace0.json"))):
        with open(name) as f:
            record = json.load(f)
        workload = record["provenance"]["workload"]
        if not record["correct"]:
            failed[workload] = failed.get(workload, 0) + 1
        for metric, entry in record["metrics"].items():
            values.setdefault(workload, {}).setdefault(metric, []).append(
                entry["value"])
    return values, failed


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def report(args):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load_set(path) for path in args.dirs]
    ok = True
    header = "%-18s %-13s %6s" % ("workload", "metric", "bound")
    for n in range(len(sets)):
        header += "  %12s %12s %12s %7s %5s" % (
            "q1[%d]" % n, "median[%d]" % n, "q3[%d]" % n, "spread", "runs")
    if len(sets) == 2:
        header += "  %8s %s" % ("worse", "agree")
    print(header)
    listed = [w["name"] for w in bench["workloads"]]
    # Workloads run.py knows but BENCHMARK.json does not list are shown
    # after the listed ones and do not decide the exit status.
    found = sorted({w for values, _ in sets for w in values} - set(listed))
    for workload in listed + found:
        gated = workload in listed
        for name, metric in metrics.items():
            line = "%-18s %-13s %6.3f" % (workload, name, metric["bound"])
            medians = []
            for values, failed in sets:
                xs = values.get(workload, {}).get(name, [])
                q1, med, q3, spread = stats.quartile_spread(xs)
                medians.append(med)
                steady = name == "setup_s" or spread <= metric["bound"]
                if gated:
                    ok = ok and steady and not failed.get(workload)
                line += "  %12.6g %12.6g %12.6g %6.1f%%%s %5d" % (
                    q1, med, q3, 100 * spread, "" if steady else "!", len(xs))
            if len(sets) == 2:
                worse = worse_by(medians[0], medians[1], metric["better"])
                agree = worse <= metric["bound"]
                if gated:
                    ok = ok and agree
                line += "  %7.1f%% %s" % (100 * worse,
                                          "yes" if agree else "NO")
            print(line)
    for n, (_, failed) in enumerate(sets):
        for workload, count in sorted(failed.items()):
            print("set %d: %s has %d incorrect run(s)" % (n, workload, count))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a set")
    c.add_argument("dir")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="",
                   help="comma-separated (default: every workload)")
    r = sub.add_parser("report", help="spread of one set, agreement of two")
    r.add_argument("dirs", nargs="+")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    if len(args.dirs) > 2:
        parser.error("report takes one or two sets")
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
