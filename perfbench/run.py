#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload local-tp --seed 1 --seconds 10 --trace 0

`--workload all` runs local-tp, dist-2pc and storm in turn, each with its
own report and result line.

Run from the repository root. The first run configures and builds the
`tmfbench` driver (CMake, Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. The driver runs the
workload, checks its correctness gates and reports raw metrics; this script
prints a readable report and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A failed gate prints correct=false with no
metrics and exits 1. Missing library sources exit 2 before any result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170

# The thirteen user-facing metrics, printed in the readable report of an
# untraced run. Only BENCHMARK.json's end_to_end four are gated; the README
# says why the rest are not.
REPORT_METRICS = [
    ("commit_p50_ms", "ms"), ("commit_p99_ms", "ms"),
    ("transfer_p50_ms", "ms"), ("transfer_p99_ms", "ms"),
    ("inquiry_p50_ms", "ms"), ("inquiry_p99_ms", "ms"),
    ("committed_tps", "1/s"), ("failed_share", "ratio"),
    ("msgs_per_txn", "count"), ("indoubt_at_recovery", "count"),
    ("txns_per_wall_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
SAMPLE_COUNTS = {"commit": "commit.samples", "transfer": "transfer.samples",
                 "inquiry": "inquiry.samples"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code):
    log("perfbench: " + msg)
    sys.exit(code)


def source_revision():
    """git revision of the checkout, else a hash of the benchmarked sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root", 2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 2)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", build_dir, "--target", "tmfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 2)
    return os.path.join(build_dir, "tmfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)


def run_one(binary, spec, workload, args):
    """Runs one workload; prints its report and result line; returns 0 or 1."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_revision()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("tmfbench did not finish within %d s" % RUN_TIMEOUT_S, 3)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("tmfbench printed nothing (exit %d)" % proc.returncode, 3)
    run = json.loads(lines[-1])

    stamp = run["stamp"]
    print("perfbench %s seed=%s trace=%s | build=%s nproc=%s workers=%s rev=%s"
          % (stamp["workload"], stamp["seed"], stamp["trace"],
             stamp["build_type"], stamp["nproc"], stamp["engine_workers"],
             stamp["git_rev"]))
    for g in run["gates"]:
        print("  gate %-26s %s  %s" % (g["name"], "ok" if g["ok"] else "FAILED",
                                       g["detail"]))
    if not run["correct"]:
        print(json.dumps({"correct": False, "attempted": run["attempted"],
                          "failed": run["failed"], "metrics": {}}))
        return 1

    raw = run["metrics"]
    if not args.trace:
        print("  end-to-end (tracing off):")
        for name, unit in REPORT_METRICS:
            value = raw.get(name)
            count = raw.get(SAMPLE_COUNTS.get(name.split("_")[0], ""))
            shown = "n/a" if value is None or count == 0 else "%.6g" % value
            extra = "" if count is None else "  (n=%d)" % count
            print("    %-22s %14s %-6s%s" % (name, shown, unit, extra))

    metrics = {}
    for m in wanted:
        value = raw.get(m["name"])
        if value is None:
            if not args.trace:
                fail("end-to-end metric %s missing" % m["name"], 3)
            value = 0.0  # layer not observable on this workload
        if not math.isfinite(value):
            fail("metric %s is not finite" % m["name"], 3)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.trace:
        print("  per-layer (tracing on):")
        for name, v in metrics.items():
            print("    %-32s %14.6g %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": True, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if args.workload not in names + ["all"]:
        fail("unknown workload %r (have %s, all)" % (args.workload, ", ".join(names)), 2)
    binary = build()
    return max(run_one(binary, spec, w, args) for w in todo)


if __name__ == "__main__":
    sys.exit(main())
