"""The per-layer ledger of the traced run.

Two sources feed it, and the benchmark adds no instrumentation to the
program:

* :class:`CallTimer` wraps the public calls of each layer from the
  outside (``build_scenario``, ``Simulator.run``, ``execute_spec``,
  ``record_spool``, ``ReplayEvaluator.replay_point``,
  ``compare_replay_to_spool`` and ``merge_jsonl``) for the duration of an
  in-process pass, and accumulates wall time and kernel counter deltas;
* :func:`sideband_ledger` folds the telemetry sideband the program already
  writes with ``telemetry_dir`` / ``--telemetry DIR`` — the only window
  into pool workers and orchestrator hosts, which live in child processes.

:data:`LAYER_METRICS` maps every per-layer metric to its unit, direction,
layer, and the end-to-end metric and workload it should move; the README
renders the same table.
"""

from __future__ import annotations

import os
import re
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Sequence, Tuple

import repro.campaign.evaluators as evaluators
import repro.campaign.runner as runner
from repro.kernel.simulator import Simulator
from repro.kernel.tracing import BR_NAMES
from repro.telemetry import load_events, telemetry_files

#: Replay refusal constructs: every branch probe name, plus the runner's
#: label for a refusal that names none (a deadlock or a final-date miss).
REFUSAL_CONSTRUCTS = tuple(sorted(set(BR_NAMES.values()))) + ("unspecified",)

_ALL = "all"
_PAIRED = "paired_campaign"
_SWEEP = "depth_sweep"
_CLI = "cli_roundtrip"

#: ``name -> (unit, better, layer, end-to-end metric it moves, workload)``.
LAYER_METRICS: Dict[str, Tuple[str, str, str, str, str]] = {
    "import.cli_s": ("s", "lower", "analysis.cli", "setup_s", _ALL),
    "import.campaign_s": ("s", "lower", "campaign", "setup_s", _ALL),
    "cli.list_s": ("s", "lower", "analysis.cli", "setup_s", _CLI),
    "cli.campaign_s": ("s", "lower", "analysis.cli", "sims_per_s", _CLI),
    "cli.shard_s": ("s", "lower", "analysis.cli", "sims_per_s", _CLI),
    "cli.merge_s": ("s", "lower", "analysis.cli", "points_per_s", _CLI),
    "cli.orchestrate_s": ("s", "lower", "analysis.cli", "sims_per_s", _CLI),
    "scenarios.build_s": ("s", "lower", "campaign.scenarios", "sims_per_s", _PAIRED),
    "kernel.run_s.smart": ("s", "lower", "kernel", "sims_per_s", _PAIRED),
    "kernel.run_s.reference": ("s", "lower", "kernel", "sims_per_s", _PAIRED),
    "kernel.context_switches.smart": ("count", "lower", "kernel", "sims_per_s", _PAIRED),
    "kernel.context_switches.reference": ("count", "lower", "kernel", "sims_per_s", _PAIRED),
    "kernel.delta_cycles": ("count", "lower", "kernel", "sims_per_s", _PAIRED),
    "kernel.timed_phases": ("count", "lower", "kernel", "sims_per_s", _PAIRED),
    "kernel.event_notifications": ("count", "lower", "kernel", "sims_per_s", _PAIRED),
    "kernel.us_per_switch": ("us", "lower", "kernel", "sims_per_s", _PAIRED),
    "paper.switch_ratio": ("ratio", "lower", "fifo", "sims_per_s", _PAIRED),
    "paper.smart_speedup": ("ratio", "higher", "fifo", "sims_per_s", _PAIRED),
    "fifo.span_words": ("count", "higher", "fifo", "sims_per_s", _PAIRED),
    "fifo.burst_span_reads": ("count", "higher", "fifo", "sims_per_s", _PAIRED),
    "fifo.burst_span_writes": ("count", "higher", "fifo", "sims_per_s", _PAIRED),
    "fifo.cell_mutations": ("count", "lower", "fifo", "sims_per_s", _PAIRED),
    "fifo.span_share": ("ratio", "higher", "fifo", "sims_per_s", _PAIRED),
    "runner.jobs": ("count", "lower", "campaign.runner", "sims_per_s", _PAIRED),
    "runner.execute_s": ("s", "lower", "campaign.runner", "sims_per_s", _PAIRED),
    "runner.queue_wait_s": ("s", "lower", "campaign.runner", "sims_per_s", _CLI),
    "runner.serialize_s": ("s", "lower", "campaign.runner", "sims_per_s", _PAIRED),
    "runner.sink_write_s": ("s", "lower", "campaign.runner", "sims_per_s", _PAIRED),
    "runner.job_p50_s": ("s", "lower", "campaign.runner", "sims_per_s", _PAIRED),
    "runner.job_p99_s": ("s", "lower", "campaign.runner", "sims_per_s", _PAIRED),
    "runner.utilization": ("ratio", "higher", "campaign.runner", "sims_per_s", _CLI),
    "runner.overhead_s": ("s", "lower", "campaign.runner", "sims_per_s", _CLI),
    "replay.record_s": ("s", "lower", "replay", "points_per_s", _SWEEP),
    "replay.replay_s": ("s", "lower", "replay", "points_per_s", _SWEEP),
    "replay.record_spool_s": ("s", "lower", "campaign.evaluators", "points_per_s", _SWEEP),
    "replay.validate_s": ("s", "lower", "replay", "points_per_s", _SWEEP),
    "replay.compare_s": ("s", "lower", "campaign.evaluators", "points_per_s", _SWEEP),
    "replay.fallback_s": ("s", "lower", "replay", "points_per_s", _SWEEP),
    "replay.points_replayed": ("count", "higher", "replay", "points_per_s", _SWEEP),
    "replay.points_simulated": ("count", "lower", "replay", "points_per_s", _SWEEP),
    "replay.refusals": ("count", "lower", "replay", "points_per_s", _SWEEP),
    **{
        f"replay.refusals.{construct}": (
            "count", "lower", "replay", "points_per_s", _SWEEP
        )
        for construct in REFUSAL_CONSTRUCTS
    },
    "replay.routed_share": ("ratio", "higher", "replay", "points_per_s", _SWEEP),
    "replay.us_per_point": ("us", "lower", "replay", "points_per_s", _SWEEP),
    "orchestrate.launch_s": ("s", "lower", "campaign.orchestrator", "sims_per_s", _CLI),
    "orchestrate.poll_s": ("s", "lower", "campaign.orchestrator", "sims_per_s", _CLI),
    "orchestrate.collect_s": ("s", "lower", "campaign.orchestrator", "sims_per_s", _CLI),
    "orchestrate.host_wall_s": ("s", "lower", "campaign.orchestrator", "sims_per_s", _CLI),
    "orchestrate.shard_makespan_s": ("s", "lower", "campaign.orchestrator", "sims_per_s", _CLI),
    "orchestrate.overhead_s": ("s", "lower", "campaign.orchestrator", "sims_per_s", _CLI),
    "merge.merge_s": ("s", "lower", "jsonl merge", "points_per_s", _CLI),
    "telemetry.overhead": ("ratio", "lower", "telemetry", "none (reported only)", _ALL),
}

_MODE = re.compile(r"\[(\w+)\]$")


def _mode(sim_name: str) -> str:
    """The mode a simulator runs in, from its ``...[mode]`` name."""
    match = _MODE.search(sim_name)
    return match.group(1) if match else "other"


class CallTimer:
    """Accumulates wall time and kernel counters around layer calls."""

    def __init__(self):
        self.totals: Dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def _timed(self, name: str, func):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)
        return wrapper

    def _sim_run(self, func):
        timer = self

        def run(sim, *args, **kwargs):
            before = sim.stats.snapshot()
            start = time.perf_counter()
            try:
                return func(sim, *args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                after = sim.stats.snapshot()
                mode = _mode(sim.name)
                timer.add(f"kernel.run_s.{mode}", wall)
                timer.add(
                    f"kernel.context_switches.{mode}",
                    after["context_switches"] - before["context_switches"],
                )
                for key in ("delta_cycles", "timed_phases", "event_notifications"):
                    timer.add(f"kernel.{key}", after[key] - before[key])
        return run

    @contextmanager
    def installed(self):
        """Patch the layer entry points for the duration of the block.

        Module attributes are patched where the callers look them up:
        ``runner`` and ``evaluators`` each bind ``build_scenario`` at
        import, and the runner imports the evaluators' functions at call
        time.
        """
        patches = [
            (runner, "build_scenario", self._timed("scenarios.build_s", runner.build_scenario)),
            (evaluators, "build_scenario", self._timed("scenarios.build_s", evaluators.build_scenario)),
            (Simulator, "run", self._sim_run(Simulator.run)),
            (runner, "execute_spec", self._timed("execute_spec_s", runner.execute_spec)),
            (evaluators, "record_spool", self._timed("replay.record_spool_s", evaluators.record_spool)),
            (evaluators.ReplayEvaluator, "replay_point",
             self._timed("replay.replay_s", evaluators.ReplayEvaluator.replay_point)),
            (evaluators, "compare_replay_to_spool",
             self._timed("replay.compare_s", evaluators.compare_replay_to_spool)),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, patched in patches:
                setattr(owner, name, patched)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def merge_jsonl(self, paths):
        """``merge_jsonl`` timed into ``merge.merge_s``."""
        return self._timed("merge.merge_s", runner.merge_jsonl)(paths)


def sideband_events(directory: str) -> List[Dict[str, object]]:
    """Every telemetry event written anywhere under ``directory``.

    A directory without sideband files contributes nothing: a campaign
    that raised never merges its sideband.
    """
    events: List[Dict[str, object]] = []
    for folder, _, names in sorted(os.walk(directory)):
        if any(name.endswith(".jsonl") for name in names):
            for path in telemetry_files([folder]):
                events.extend(load_events(path))
    return events


def _spans(events: Iterable[Dict[str, object]], name: str) -> List[Dict[str, object]]:
    return [e for e in events if e.get("kind") == "span" and e.get("name") == name]


def _total(spans: Iterable[Dict[str, object]]) -> float:
    return sum(float(span["dur_s"]) for span in spans)


def _percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    # Inclusive method: p50/p99 stay inside the observed range.
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def sideband_ledger(events: List[Dict[str, object]]) -> Dict[str, float]:
    """Runner, FIFO, replay and orchestrator metrics from sideband events."""
    counters: Dict[str, float] = {}
    workers = 1
    for event in events:
        if event.get("kind") == "counter":
            name = str(event["name"])
            counters[name] = counters.get(name, 0) + event["value"]
        elif event.get("kind") == "gauge" and event.get("name") == "campaign.workers":
            workers = max(workers, int(event["value"]))
    execute = [float(s["dur_s"]) for s in _spans(events, "campaign.execute")]
    serialize = _total(_spans(events, "campaign.serialize"))
    runs = _spans(events, "campaign.run")
    run_wall = _total(runs)
    busy = sum(execute) + serialize
    span_bursts = counters.get("fifo.burst_span_writes", 0) + counters.get("fifo.burst_span_reads", 0)
    all_bursts = span_bursts + counters.get("fifo.burst_word_writes", 0) + counters.get("fifo.burst_word_reads", 0)
    hosts = _spans(events, "orchestrate.host")
    host_wall = max((float(s["dur_s"]) for s in hosts), default=0.0)
    # Host campaigns are the campaign.run spans not written by a process
    # that also wrote orchestrate spans.
    orchestrator_pids = {e.get("pid") for e in _spans(events, "orchestrate.launch")}
    shard_runs = [s for s in runs if s.get("pid") not in orchestrator_pids]
    makespan = max((float(s["dur_s"]) for s in shard_runs), default=0.0) if hosts else 0.0
    ledger = {
        "runner.jobs": float(len(execute)),
        "runner.execute_s": sum(execute),
        "runner.queue_wait_s": _total(_spans(events, "campaign.queue_wait")),
        "runner.serialize_s": serialize,
        "runner.sink_write_s": float(counters.get("campaign.sink_write_s", 0.0)),
        "runner.job_p50_s": _percentile(execute, 0.50),
        "runner.job_p99_s": _percentile(execute, 0.99),
        "runner.utilization": busy / (workers * run_wall) if run_wall else 0.0,
        "runner.overhead_s": max(run_wall - busy / workers, 0.0),
        "fifo.span_words": float(counters.get("fifo.span_words", 0)),
        "fifo.burst_span_reads": float(counters.get("fifo.burst_span_reads", 0)),
        "fifo.burst_span_writes": float(counters.get("fifo.burst_span_writes", 0)),
        "fifo.cell_mutations": float(counters.get("fifo.cell_mutations", 0)),
        "fifo.span_share": span_bursts / all_bursts if all_bursts else 0.0,
        "replay.record_s": _total(_spans(events, "replay.record")),
        "replay.validate_s": _total(_spans(events, "replay.validate")),
        "orchestrate.launch_s": _total(_spans(events, "orchestrate.launch")),
        "orchestrate.poll_s": _total(_spans(events, "orchestrate.poll")),
        "orchestrate.collect_s": _total(_spans(events, "orchestrate.collect")),
        "orchestrate.host_wall_s": host_wall,
        "orchestrate.shard_makespan_s": makespan,
        "orchestrate.overhead_s": max(host_wall - makespan, 0.0),
    }
    refusals = 0.0
    for construct in REFUSAL_CONSTRUCTS:
        count = float(counters.get(f"replay.refusals.{construct}", 0))
        ledger[f"replay.refusals.{construct}"] = count
        refusals += count
    ledger["replay.refusals"] = refusals
    return ledger


def kernel_ledger(totals: Dict[str, float]) -> Dict[str, float]:
    """Kernel and paper metrics from per-mode kernel totals (a
    :class:`CallTimer`'s or :func:`sideband_kernel_totals`')."""
    smart_s = totals.get("kernel.run_s.smart", 0.0)
    reference_s = totals.get("kernel.run_s.reference", 0.0)
    smart_cs = totals.get("kernel.context_switches.smart", 0.0)
    reference_cs = totals.get("kernel.context_switches.reference", 0.0)
    switches = smart_cs + reference_cs
    return {
        "scenarios.build_s": totals.get("scenarios.build_s", 0.0),
        "kernel.run_s.smart": smart_s,
        "kernel.run_s.reference": reference_s,
        "kernel.context_switches.smart": smart_cs,
        "kernel.context_switches.reference": reference_cs,
        "kernel.delta_cycles": totals.get("kernel.delta_cycles", 0.0),
        "kernel.timed_phases": totals.get("kernel.timed_phases", 0.0),
        "kernel.event_notifications": totals.get("kernel.event_notifications", 0.0),
        "kernel.us_per_switch": (smart_s + reference_s) / switches * 1e6 if switches else 0.0,
        "paper.switch_ratio": smart_cs / reference_cs if reference_cs else 0.0,
        "paper.smart_speedup": reference_s / smart_s if smart_s and reference_s else 0.0,
    }


def sideband_kernel_totals(events: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Kernel totals per mode from worker sidebands.

    A worker flushes after every job, writing the job's spans and then its
    counter deltas, so the kernel counters that follow a
    ``campaign.execute`` span in one process's stream belong to that job's
    mode.  Run time per mode comes from the ``kernel.run`` spans, whose
    ``sim`` attribute ends in ``[mode]``.
    """
    totals: Dict[str, float] = {}
    mode_of_pid: Dict[object, str] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + value

    for event in events:
        pid = event.get("pid")
        name = str(event.get("name"))
        if event.get("kind") == "span" and name == "campaign.execute":
            mode_of_pid[pid] = str((event.get("attrs") or {}).get("mode", "other"))
        elif event.get("kind") == "span" and name == "kernel.run":
            add(f"kernel.run_s.{_mode((event.get('attrs') or {}).get('sim', ''))}",
                float(event["dur_s"]))
        elif event.get("kind") == "counter" and name == "kernel.context_switches":
            add(f"kernel.context_switches.{mode_of_pid.get(pid, 'other')}", event["value"])
        elif event.get("kind") == "counter" and name in (
            "kernel.delta_cycles", "kernel.timed_phases", "kernel.event_notifications"
        ):
            add(name, event["value"])
    return totals
