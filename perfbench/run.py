#!/usr/bin/env python3
"""perfbench — the repository benchmark, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the workload driver
from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the driver, checks its outputs and
prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set, with --trace 1 the
per-layer set (README.md lists both). Lines before it give the full record:
provenance, sample counts, percentiles and, for traced runs, the per-name
span table. The record is also written to the results directory
(--results, default <build>/results) and the Chrome trace of a traced run
sits in its work directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import derive  # noqa: E402

ROOT = os.path.dirname(HERE)
# A run must end within 180 s of starting, except the first one in a
# checkout, which also builds; the driver's budget starts after the build.
DRIVER_BUDGET_S = 170.0


def fail(message):
    print("perfbench: error: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    """Configures once, then builds (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "api.hpp")):
        fail("no library sources under %s" % os.path.join(ROOT, "src"))
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build step failed: %s\n%s" % (" ".join(step), tail))
    driver = os.path.join(bdir, "perfbench_driver")
    if not os.path.isfile(driver):
        fail("build produced no driver at " + driver)
    return driver


def cpu_times():
    """(steal, total) jiffies from the aggregate /proc/stat line."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the measured code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def provenance(raw, args, steal_pct):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "hardware_concurrency": raw.get("hardware_concurrency"),
        "cpu_model": cpu_model(),
        "simd_isa": raw.get("simd_isa"),
        "compiler": raw.get("compiler"),
        "build_type": raw.get("build_type"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host.steal_pct": steal_pct,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(derive.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", default=None,
                        help="directory for the full records "
                             "(default <build>/results)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    driver = build(bdir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(bdir, "runs", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")

    steal0, total0 = cpu_times()
    try:
        proc = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--work-dir", work, "--out", raw_path],
            cwd=ROOT, timeout=DRIVER_BUDGET_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("driver exceeded its %.0f s budget" % DRIVER_BUDGET_S)
    steal1, total1 = cpu_times()
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    with open(raw_path) as f:
        raw = json.load(f)
    # Only the record and the trace stay; the stores are 16 MiB a run.
    for name in os.listdir(work):
        if name not in ("raw.json", "trace.json"):
            os.remove(os.path.join(work, name))
    steal_pct = (100.0 * (steal1 - steal0) / (total1 - total0)
                 if total1 > total0 else 0.0)

    correct, attempted, failed, metrics, details = derive.evaluate(
        raw, args.trace)
    if args.trace:
        metrics["host.steal_pct"] = steal_pct
        units = derive.PER_LAYER
    else:
        units = derive.END_TO_END
    result_metrics = {name: {"value": float(metrics[name]), "unit": unit}
                      for name, unit in units.items()}

    record = {
        "provenance": provenance(raw, args, steal_pct),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": details.pop("error_rate"),
        "metrics": result_metrics,
        "details": details,
    }
    results = args.results or os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    if raw.get("chrome_trace"):
        # The traced run's spans, as Chrome JSON beside its record.
        chrome = os.path.join(results, tag + ".trace.json")
        shutil.copyfile(raw["chrome_trace"], chrome)
        record["chrome_trace"] = chrome
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("perfbench %s seed %d trace %d: %s, %d attempted, %d failed"
          % (args.workload, args.seed, args.trace,
             "correct" if correct else "INCORRECT", attempted, failed))
    for message in details["failures"]:
        print("  gate: " + message)
    for name, metric in result_metrics.items():
        print("  %-30s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
