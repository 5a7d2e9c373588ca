#!/usr/bin/env python3
"""Coverage gate: every function in src/**/*.cc runs somewhere, or is listed.

    python3 tests/coverage_gate.py --baseline tests/coverage_baseline.txt \
        [--baseline tests/coverage_ctest_only.txt] build-cov build-cov-perfbench

Each BUILD_DIR is a tree configured with `--coverage` in CMAKE_CXX_FLAGS and
CMAKE_EXE_LINKER_FLAGS whose tests, benches and workloads have already run, so
it holds .gcda count files. The script reads them with `gcov --json-format`
(shipped with GCC), sums the counts of all trees, and keys each function by
its source file and demangled name.

It fails when a function in src/**/*.cc that nothing called is missing from
the baselines, or when a baseline entry is called now (or no longer exists):
the lists can only shrink. It also prints the never-run line totals per src/
directory; those are not gated.

--baseline may be given more than once; the gate reads the union of the
files, and an entry listed twice is an error. CI runs the gate once before
ctest with both lists (a function may run only under ctest if
coverage_ctest_only.txt lists it) and once after ctest with
coverage_baseline.txt alone.

Baseline lines are `<file>\t<demangled name>\t<reason>`; `#` starts a comment.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GCOV_BATCH = 200  # .gcda files per gcov invocation


def gcov_reports(build_dir):
    """Yields one parsed gcov JSON report per .gcda file under build_dir."""
    gcdas = []
    for dirpath, _, filenames in os.walk(build_dir):
        gcdas += [os.path.join(dirpath, f) for f in filenames
                  if f.endswith(".gcda")]
    gcdas.sort()
    for i in range(0, len(gcdas), GCOV_BATCH):
        # --stdout prints one JSON report per line, one line per .gcda.
        out = subprocess.run(["gcov", "--stdout", "--json-format",
                              "--demangled-names"] + gcdas[i:i + GCOV_BATCH],
                             check=True, capture_output=True, text=True)
        for line in out.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def src_path(report, path):
    """The path relative to the repo root if it is a src/**/*.cc file."""
    path = os.path.realpath(
        os.path.join(report["current_working_directory"], path))
    rel = os.path.relpath(path, ROOT)
    if rel.startswith("src" + os.sep) and rel.endswith(".cc"):
        return rel
    return None


def collect(build_dirs):
    """Union of call counts per (file, function) and run flags per line."""
    calls = collections.Counter()
    lines = {}
    reports = 0
    for build_dir in build_dirs:
        for report in gcov_reports(build_dir):
            reports += 1
            for f in report["files"]:
                rel = src_path(report, f["file"])
                if rel is None:
                    continue
                for fn in f["functions"]:
                    calls[(rel, fn["demangled_name"])] += fn["execution_count"]
                for line in f["lines"]:
                    key = (rel, line["line_number"])
                    lines[key] = lines.get(key, False) or line["count"] > 0
    return calls, lines, reports


def read_baseline(path):
    entries = {}
    with open(path) as f:
        for n, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not parts[2].strip():
                sys.exit(f"{path}:{n}: want <file>\\t<function>\\t<reason>")
            entries[(parts[0], parts[1])] = parts[2]
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--baseline", action="append", required=True)
    ap.add_argument("build_dirs", nargs="+")
    args = ap.parse_args()

    calls, lines, reports = collect(args.build_dirs)
    if not calls:
        sys.exit(f"no src/ coverage found in {reports} gcov reports: "
                 "was the tree built with --coverage and run?")

    per_dir = collections.defaultdict(lambda: [0, 0])
    for (rel, _), ran in lines.items():
        totals = per_dir[os.path.dirname(rel)]
        totals[0] += 0 if ran else 1
        totals[1] += 1
    print("never-run lines per directory (not gated):")
    for d in sorted(per_dir):
        unrun, total = per_dir[d]
        print(f"  {d:<20} {unrun:5d} of {total:5d}")
    unrun = sum(v[0] for v in per_dir.values())
    print(f"  {'total':<20} {unrun:5d} of {len(lines):5d}")

    never = {k for k, n in calls.items() if n == 0}
    baseline = {}
    for path in args.baseline:
        for key, reason in read_baseline(path).items():
            if key in baseline:
                sys.exit(f"{path}: listed twice: {key[0]}\t{key[1]}")
            baseline[key] = reason
    new = sorted(never - baseline.keys())
    stale = sorted(baseline.keys() - never)
    print(f"{len(calls)} src functions, {len(never)} never called, "
          f"{len(baseline)} in the baselines")
    for rel, name in new:
        print(f"NEW never-called function (test it, delete it, or list it "
              f"with a reason):\n{rel}\t{name}\t<reason>")
    for key in stale:
        why = "is called now" if key in calls else "no longer exists"
        print(f"STALE baseline entry {why}; remove it:\n{key[0]}\t{key[1]}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
