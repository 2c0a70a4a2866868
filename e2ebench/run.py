"""End-to-end benchmark of the TLM Smart-FIFO reproduction.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload paired_campaign --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off;
``--trace 1`` runs the per-layer ledger instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable table.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("paired_campaign", "depth_sweep", "cli_roundtrip")

#: End-to-end metrics: ``name -> unit``.
END_TO_END = {
    "setup_s": "s",
    "sims_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any waited-for
    descendant (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _run(workload: str, env, trace: bool):
    import workloads
    from ledger import LAYER_METRICS

    deadline = time.monotonic() + env.seconds
    if not trace:
        measure = {
            "paired_campaign": workloads.measure_paired,
            "depth_sweep": workloads.measure_sweep,
            "cli_roundtrip": workloads.measure_cli,
        }[workload]
        tally = measure(env, deadline)
        values = {name: tally.median(name) for name in END_TO_END if name != "peak_rss_mb"}
        values["peak_rss_mb"] = _peak_rss_mb()
        rounds = int(tally.samples["rounds"][0])
        counts = {name: rounds for name in END_TO_END}
        counts["setup_s"] = len(tally.samples["setup_s"])
        counts["peak_rss_mb"] = 1
        units = END_TO_END
    else:
        trace_fn = {
            "paired_campaign": workloads.trace_paired,
            "depth_sweep": workloads.trace_sweep,
            "cli_roundtrip": workloads.trace_cli,
        }[workload]
        tally, ledger = trace_fn(env, deadline)
        ledger["import.cli_s"] = workloads.import_seconds(env, "repro.analysis.cli")
        ledger["import.campaign_s"] = workloads.import_seconds(env, "repro.campaign")
        tally.counts["import.cli_s"] = tally.counts["import.campaign_s"] = workloads.IMPORT_SAMPLES
        values = {name: float(ledger.get(name, 0.0)) for name in LAYER_METRICS}
        rounds = int(tally.samples["rounds"][0])
        counts = {name: tally.counts.get(name, rounds) for name in LAYER_METRICS}
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    return tally, values, counts, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from workloads import Env

    work = os.path.join(ROOT, ".e2ebench_work", str(os.getpid()))
    os.makedirs(work)
    # Every temporary file of this process and its children stays inside
    # the checkout.
    tempfile.tempdir = work
    os.environ["TMPDIR"] = work
    env = Env(root=ROOT, work=work, seed=args.seed, seconds=args.seconds)
    try:
        tally, values, counts, units = _run(args.workload, env, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed")
    for message in (tally.errors + tally.wrong)[:10]:
        print(f"  failure: {message}")
    for name, value in values.items():
        print(f"  {name:38s} {value:14.6g} {units[name]:6s} n={counts[name]}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
