#!/usr/bin/env python
"""Run the persistent benchmark harness and manage the BENCH_*.json trail.

Typical uses::

    # Produce BENCH_PR1.json at the repo root, comparing with the newest
    # previously committed BENCH_*.json (regressions > 20% fail the run):
    python tools/run_benchmarks.py --label PR1

    # Quick smoke run, no file written:
    python tools/run_benchmarks.py --repeats 1 --no-output

    # Gate a change against the committed trail (used by `make bench-check`):
    python tools/run_benchmarks.py --check --no-output

The emitted document contains a flat ``metrics`` map (see
``benchmarks/bench_harness.py`` for the names and their direction), a
per-scenario ``detail`` section, and — when a baseline was found — a
``comparison`` section with one speedup row per metric.

Most scenarios time in-process layers.  The ``startup`` scenario times
what a user waits for before anything simulates: fresh interpreters
running ``campaign --list``, ``campaign --merge-jsonl`` and ``import
repro.analysis.cli`` (``startup.*``, advisory in the gate).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import bench_harness  # noqa: E402  (paths set up just above)


def find_latest_baseline(exclude: str = "") -> str:
    """Newest BENCH_*.json at the repo root (by PR number, then mtime)."""

    def sort_key(path):
        match = re.search(r"BENCH_PR(\d+)", os.path.basename(path))
        number = int(match.group(1)) if match else -1
        return (number, os.path.getmtime(path))

    candidates = [
        path
        for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
        if os.path.abspath(path) != os.path.abspath(exclude or "")
    ]
    return max(candidates, key=sort_key) if candidates else ""


def format_comparison(rows) -> str:
    lines = [
        f"{'metric':<34} {'baseline':>12} {'current':>12} {'speedup':>8}",
        "-" * 70,
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<34} {row['baseline']:>12.4g} "
            f"{row['current']:>12.4g} {row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="dev", help="run label, e.g. PR1")
    parser.add_argument(
        "--output",
        default=None,
        help="output JSON path (default BENCH_<label>.json at the repo root)",
    )
    parser.add_argument(
        "--no-output", action="store_true", help="do not write an output file"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline BENCH_*.json (default: newest one at the repo root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="best-of-N wall-clock repeats"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional regression per metric (default 0.20)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any metric regresses beyond the threshold",
    )
    args = parser.parse_args(argv)

    if args.baseline and not os.path.exists(args.baseline):
        parser.error(f"baseline file not found: {args.baseline}")

    output = args.output or os.path.join(REPO_ROOT, f"BENCH_{args.label}.json")
    document = bench_harness.run_all(args.label, repeats=args.repeats)

    baseline_path = args.baseline or find_latest_baseline(exclude=output)
    regressions = []
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        if baseline.get("scale") != document["scale"]:
            print(
                f"baseline {os.path.basename(baseline_path)} was measured at "
                f"scale {baseline.get('scale')!r}, this run at "
                f"{document['scale']!r}; numbers are not comparable"
            )
            if args.check:
                return 2
            baseline_path = ""
    if baseline_path and os.path.exists(baseline_path):
        rows = bench_harness.compare(document, baseline)
        document["comparison"] = {
            "baseline_file": os.path.basename(baseline_path),
            "baseline_label": baseline.get("label", "?"),
            "threshold": args.threshold,
            "rows": rows,
        }
        print(f"\ncomparison vs {os.path.basename(baseline_path)} "
              f"(label {baseline.get('label', '?')}):")
        print(format_comparison(rows))
        compared = {row["metric"] for row in rows}
        new_metrics = sorted(
            name for name in document["metrics"] if name not in compared
        )
        for name in new_metrics:
            print(
                f"WARNING: metric {name} is not in the baseline "
                f"({baseline.get('label', '?')}); skipping its comparison — "
                "it will be gated starting from the next baseline"
            )
        advisory = getattr(bench_harness, "ADVISORY_METRICS", frozenset())
        regressed = [
            row
            for row in rows
            if not math.isnan(row["speedup"])
            and row["speedup"] < 1.0 - args.threshold
        ]
        for row in regressed:
            if row["metric"] in advisory:
                print(
                    f"ADVISORY: {row['metric']} is {1 / row['speedup']:.2f}x "
                    f"worse than {baseline.get('label', 'baseline')} "
                    "(advisory-only metric, not gated)"
                )
            else:
                print(
                    f"REGRESSION: {row['metric']} is {1 / row['speedup']:.2f}x "
                    f"worse than {baseline.get('label', 'baseline')}"
                )
        regressions = [
            row for row in regressed if row["metric"] not in advisory
        ]
    else:
        print("no baseline BENCH_*.json found; skipping comparison")

    if not args.no_output:
        with open(output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"\nwrote {output}")

    if args.check and regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
