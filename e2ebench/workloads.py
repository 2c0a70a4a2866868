"""The three closed-loop workloads of the end-to-end benchmark.

Each workload is one client with at most two busy processes.  Its
``measure`` function repeats the workload's round until the run's
deadline, checks every output, and returns a :class:`Tally` of the
end-to-end metrics; its ``trace`` function runs untraced and traced rounds
and returns the per-layer ledger.

* ``paired_campaign`` — the paper's experiment at scale, in process:
  ``CampaignRunner(workers=2, paired=True)`` over a generated campaign of
  all eleven registry workloads, JSONL streamed to a file.
* ``depth_sweep`` — a design-space sweep, in process: one
  ``CampaignRunner(auto_replay=True)`` run per anchor group.
* ``cli_roundtrip`` — the user's command line, out of process:
  ``campaign --list``, the default campaign with ``--workers 2 --jsonl``,
  two ``--shard i/2`` files, ``--merge-jsonl`` and ``orchestrate``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import CampaignRunner, execute_spec

from inputs import cli_spec_order, depth_sweep_groups, paired_campaign_specs
from ledger import (
    CallTimer,
    kernel_ledger,
    sideband_events,
    sideband_kernel_totals,
    sideband_ledger,
)

#: Worker processes of every pool the benchmark starts (the container has
#: two cores; one client keeps at most two processes busy).
WORKERS = 2
#: Replayed points per sweep group the program cross-validates itself.
SWEEP_VALIDATE = 1
#: Replayed points per sweep group the benchmark re-simulates on the first
#: round to check the replayed rows.
SWEEP_RESIMULATE = 2
#: Wall-clock limit of one CLI command.
COMMAND_TIMEOUT_S = 120.0
#: Fresh interpreters started per set-up measurement.
SETUP_SAMPLES = 7
#: Fresh interpreters per import measurement of the traced run.
IMPORT_SAMPLES = 3

#: Row fields a replayed point reproduces exactly; replay emits no trace
#: and no workload extras by design, so those are not compared.
REPLAY_FIELDS = (
    "name", "workload", "mode", "depth", "quantum_ns", "seed", "timing",
    "sim_end_fs", "context_switches", "method_invocations", "delta_cycles",
)


@dataclass
class Env:
    """Where a run works and how it starts child interpreters."""

    root: str       # the checkout root (holds src/ and e2ebench/)
    work: str       # scratch directory inside the checkout
    seed: int
    seconds: float

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        return env

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def fresh_dir(self, name: str) -> str:
        path = self.path(name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


@dataclass
class Tally:
    """Outcome of one run: operations, failures and named samples."""

    attempted: int = 0
    failed: int = 0
    #: Outputs a check found wrong (these make the run incorrect).
    wrong: List[str] = field(default_factory=list)
    #: Operations that produced no output: raised, timed out, exited
    #: non-zero.  Counted in ``failed``; the output checks cover the rest.
    errors: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Sample counts of metrics not measured once per round.
    counts: Dict[str, int] = field(default_factory=dict)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0

    def count(self, ok: int, bad: int) -> None:
        self.attempted += ok + bad
        self.failed += bad


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------
def prepare(workload: str, seed: int):
    """Generate the inputs and construct the first runner.

    Returns ``(inputs, runner)``: everything that happens before the first
    job is handed to the program.  The set-up probe times exactly this.
    """
    if workload == "paired_campaign":
        return paired_campaign_specs(seed), CampaignRunner(workers=WORKERS, paired=True)
    if workload == "depth_sweep":
        return depth_sweep_groups(seed), _sweep_runner(WORKERS)
    raise ValueError(f"no in-process set-up for workload {workload!r}")


def setup_seconds(env: Env, workload: str, samples: int = SETUP_SAMPLES) -> List[float]:
    """Launch-to-first-job walls of fresh interpreters running ``prepare``.

    ``time.monotonic`` is system-wide on Linux, so the child's stamp and
    the parent's launch stamp share a clock.
    """
    probe = os.path.join(env.root, "e2ebench", "setup_probe.py")
    walls = []
    for _ in range(samples):
        launched = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, workload, str(env.seed)],
            env=env.child_env(), cwd=env.work, capture_output=True,
            text=True, timeout=COMMAND_TIMEOUT_S, check=True,
        )
        walls.append(float(done.stdout.strip().splitlines()[-1]) - launched)
    return walls


def import_seconds(env: Env, module: str) -> float:
    """Median wall of ``import module`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    walls = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env.child_env(), cwd=env.work,
            capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
            check=True,
        )
        walls.append(float(done.stdout.strip()))
    return statistics.median(walls)


def _until(deadline: float, body: Callable[[], None]) -> int:
    """Run ``body`` at least once and then until ``deadline``."""
    rounds = 0
    while rounds == 0 or time.monotonic() < deadline:
        body()
        rounds += 1
    return rounds


# ---------------------------------------------------------------------------
# paired_campaign
# ---------------------------------------------------------------------------
def _pair_verdicts_wrong(result, specs) -> List[str]:
    """Specs whose rows are missing or whose pair verdict is wrong.

    Every non-fault pair must be equivalent (Smart dates equal reference
    dates); every ``fault_drop`` pair must be flagged, because it is the
    negative oracle of the paired diff.
    """
    runs = {record.name for record in result.runs}
    pairs = {pair.name: pair for pair in result.pairs}
    wrong = []
    for spec in specs:
        pair = pairs.get(spec.name)
        if spec.name not in runs:
            wrong.append(spec.name)
        elif spec.workload in ("contention", "soc"):
            continue  # not pairable: verify() is their oracle
        elif pair is None or pair.equivalent == (spec.workload == "fault_drop"):
            wrong.append(spec.name)
    return wrong


def _simulations(result) -> int:
    """Kernel simulations a paired campaign completed: one per single run,
    two per pair, and two more per non-equivalent pair (the runner re-runs
    a mismatching pair over trace spools for the line-level report)."""
    singles = len(result.runs) - len(result.pairs)
    mismatched = sum(1 for pair in result.pairs if not pair.equivalent)
    return singles + 2 * len(result.pairs) + 2 * mismatched


def _rows_by_name(result) -> Dict[str, str]:
    return {
        record.name: json.dumps(record.deterministic_row(), sort_keys=True)
        for record in result.runs
    }


class _PairedChecker:
    """Checks every paired round against the oracles and the first round."""

    def __init__(self, specs, tally: Tally):
        self.specs = specs
        self.tally = tally
        self.first_rows: Optional[Dict[str, str]] = None
        self.fingerprint: Optional[str] = None

    def check(self, result) -> None:
        wrong = set(_pair_verdicts_wrong(result, self.specs))
        rows = _rows_by_name(result)
        if self.first_rows is None:
            self.first_rows = rows
            self.fingerprint = result.fingerprint()
        else:
            wrong.update(
                name for name, row in self.first_rows.items()
                if rows.get(name) != row
            )
            if result.fingerprint() != self.fingerprint and not wrong:
                wrong.update(spec.name for spec in self.specs)
        self.tally.wrong.extend(sorted(wrong))
        self.tally.count(len(self.specs) - len(wrong), len(wrong))

    def raised(self, exc: BaseException) -> None:
        self.tally.errors.append(f"campaign raised {type(exc).__name__}: {exc}")
        self.tally.count(0, len(self.specs))


def _paired_round(env: Env, specs, workers: int, checker: _PairedChecker,
                  telemetry_dir: Optional[str] = None):
    """One campaign; returns ``(wall, result)`` or ``None`` when it raised."""
    runner = CampaignRunner(workers=workers, paired=True, telemetry_dir=telemetry_dir)
    jsonl = env.path("paired.jsonl")
    start = time.perf_counter()
    try:
        result = runner.run(specs, jsonl=jsonl)
    except Exception as exc:  # one failing spec aborts the whole run
        checker.raised(exc)
        return None
    wall = time.perf_counter() - start
    checker.check(result)
    return wall, result


def measure_paired(env: Env, deadline: float) -> Tally:
    tally = Tally()
    specs = paired_campaign_specs(env.seed)
    checker = _PairedChecker(specs, tally)

    def one_round() -> None:
        outcome = _paired_round(env, specs, WORKERS, checker)
        if outcome is not None:
            wall, result = outcome
            tally.sample("sims_per_s", _simulations(result) / wall)
            tally.sample("points_per_s", len(specs) / wall)

    tally.sample("rounds", _until(deadline, one_round))
    tally.samples["setup_s"] = setup_seconds(env, "paired_campaign")
    return tally


def trace_paired(env: Env, deadline: float) -> Tuple[Tally, Dict[str, float]]:
    """Untraced workers=2 and workers=1 rounds, then traced workers=1
    rounds; every round must reproduce the first round's fingerprint."""
    tally = Tally()
    specs = paired_campaign_specs(env.seed)
    checker = _PairedChecker(specs, tally)
    _paired_round(env, specs, WORKERS, checker)
    untraced = _paired_round(env, specs, 1, checker)
    untraced_wall = None if untraced is None else untraced[0]
    timer = CallTimer()
    events: List[Dict[str, object]] = []
    traced_walls: List[float] = []

    def one_round() -> None:
        telemetry_dir = env.fresh_dir("telemetry")
        with timer.installed():
            outcome = _paired_round(env, specs, 1, checker, telemetry_dir)
        if outcome is None:
            return
        traced_walls.append(outcome[0])
        merged = timer.merge_jsonl([env.path("paired.jsonl")])
        ok = merged.fingerprint() == checker.fingerprint
        if not ok:
            tally.wrong.append("merged JSONL fingerprint differs")
        tally.count(int(ok), int(not ok))
        events.extend(sideband_events(telemetry_dir))

    rounds = _until(deadline, one_round)
    tally.sample("rounds", rounds)
    ledger = _in_process_ledger(timer, events, rounds)
    ledger["telemetry.overhead"] = _overhead(traced_walls, untraced_wall)
    return tally, ledger


def _in_process_ledger(timer: CallTimer, events, rounds: int) -> Dict[str, float]:
    ledger = sideband_ledger(events)
    ledger.update(kernel_ledger(timer.totals))
    for name in ("replay.record_spool_s", "replay.replay_s", "replay.compare_s", "merge.merge_s"):
        ledger[name] = timer.totals.get(name, 0.0)
    return _per_round(ledger, rounds)


_RATIOS = (
    "runner.utilization", "runner.job_p50_s", "runner.job_p99_s",
    "fifo.span_share", "kernel.us_per_switch", "paper.switch_ratio",
    "paper.smart_speedup", "replay.routed_share", "replay.us_per_point",
)


def _per_round(ledger: Dict[str, float], rounds: int) -> Dict[str, float]:
    """Totals over all traced rounds -> per-round values (ratios stay)."""
    return {
        name: value if name in _RATIOS else value / rounds
        for name, value in ledger.items()
    }


def _overhead(traced_walls: List[float], untraced_wall: Optional[float]) -> float:
    """Median traced round wall over the untraced round wall."""
    if not traced_walls or not untraced_wall:
        return 0.0
    return statistics.median(traced_walls) / untraced_wall


# ---------------------------------------------------------------------------
# depth_sweep
# ---------------------------------------------------------------------------
def _sweep_runner(workers: int, telemetry_dir: Optional[str] = None) -> CampaignRunner:
    return CampaignRunner(
        workers=workers, paired=False, auto_replay=True,
        auto_replay_validate=SWEEP_VALIDATE, telemetry_dir=telemetry_dir,
    )


def _replay_projection(record) -> str:
    row = record.deterministic_row()
    return json.dumps({key: row[key] for key in REPLAY_FIELDS}, sort_keys=True)


@dataclass
class _SweepRound:
    wall: float = 0.0
    points: int = 0
    simulations: int = 0
    replayed: int = 0
    grid: int = 0
    #: ``anchor name -> wall`` of each group's ``CampaignRunner.run``.
    group_walls: Dict[str, float] = field(default_factory=dict)

    def add_wall(self, group, wall: float) -> None:
        self.wall += wall
        self.group_walls[group.anchor.name] = wall


class _SweepChecker:
    """Per-point checks of the depth sweep.

    A group whose run raises fails all its points (one failing spec aborts
    a whole ``CampaignRunner.run``).  On the first round a seeded sample of
    replayed points per group is re-simulated with ``execute_spec`` and
    compared byte for byte on the fields replay reproduces; later rounds
    must reproduce the first round's rows.
    """

    def __init__(self, env: Env, groups, tally: Tally):
        self.rng = random.Random(env.seed)
        self.groups = groups
        self.tally = tally
        self.first: Dict[str, str] = {}
        self.bad: set = set()
        self.checked_groups: set = set()

    def run_group(self, group, runner: CampaignRunner, stats: _SweepRound) -> None:
        stats.grid += len(group.specs)
        start = time.perf_counter()
        try:
            result = runner.run(group.specs)
        except Exception as exc:
            stats.add_wall(group, time.perf_counter() - start)
            self.tally.errors.append(
                f"{group.anchor.name}: group raised {type(exc).__name__}: "
                f"{str(exc)[:120]}"
            )
            self.tally.count(0, len(group.specs))
            return
        stats.add_wall(group, time.perf_counter() - start)
        replayed = [r for r in result.runs if r.evaluator == "replay"]
        if group.anchor.name not in self.checked_groups:
            self.checked_groups.add(group.anchor.name)
            self._resimulate(group, replayed)
        wrong = set()
        for record in result.runs:
            row = _replay_projection(record)
            if record.name in self.bad or self.first.setdefault(record.name, row) != row:
                wrong.add(record.name)
        missing = len(group.specs) - len(result.runs)
        self.tally.wrong.extend(sorted(wrong))
        self.tally.count(len(result.runs) - len(wrong), len(wrong) + missing)
        stats.points += len(result.runs) - len(wrong)
        stats.replayed += len(replayed)
        stats.simulations += (len(result.runs) - len(replayed)) + min(SWEEP_VALIDATE, len(replayed))

    def _resimulate(self, group, replayed) -> None:
        specs = {spec.name: spec for spec in group.specs}
        sample = self.rng.sample(replayed, min(SWEEP_RESIMULATE, len(replayed)))
        for record in sample:
            fresh = execute_spec(specs[record.name])
            if _replay_projection(fresh) != _replay_projection(record):
                self.bad.add(record.name)


def _sweep_round(env: Env, checker: _SweepChecker, workers: int,
                 telemetry: bool = False) -> _SweepRound:
    stats = _SweepRound()
    for index, group in enumerate(checker.groups):
        telemetry_dir = env.fresh_dir(f"telemetry/{index}") if telemetry else None
        checker.run_group(group, _sweep_runner(workers, telemetry_dir), stats)
    return stats


def measure_sweep(env: Env, deadline: float) -> Tally:
    tally = Tally()
    checker = _SweepChecker(env, depth_sweep_groups(env.seed), tally)

    rounds: List[_SweepRound] = []

    def one_round() -> None:
        rounds.append(_sweep_round(env, checker, WORKERS))

    tally.sample("rounds", _until(deadline, one_round))
    # As for the CLI commands: each group's wall is its median over the
    # rounds, so one slow group run does not stand for the whole round.
    wall = sum(
        statistics.median(r.group_walls[group.anchor.name] for r in rounds)
        for group in checker.groups
    )
    tally.samples["points_per_s"] = [statistics.median(r.points for r in rounds) / wall]
    tally.samples["sims_per_s"] = [statistics.median(r.simulations for r in rounds) / wall]
    tally.samples["setup_s"] = setup_seconds(env, "depth_sweep")
    return tally


def trace_sweep(env: Env, deadline: float) -> Tuple[Tally, Dict[str, float]]:
    """An untraced workers=1 round, then traced workers=1 rounds."""
    tally = Tally()
    checker = _SweepChecker(env, depth_sweep_groups(env.seed), tally)
    untraced = _sweep_round(env, checker, 1)
    timer = CallTimer()
    events: List[Dict[str, object]] = []
    traced_walls: List[float] = []
    totals = _SweepRound()

    def one_round() -> None:
        shutil.rmtree(env.path("telemetry"), ignore_errors=True)
        with timer.installed():
            stats = _sweep_round(env, checker, 1, telemetry=True)
        traced_walls.append(stats.wall)
        for key in ("points", "replayed", "grid"):
            setattr(totals, key, getattr(totals, key) + getattr(stats, key))
        events.extend(sideband_events(env.path("telemetry")))

    rounds = _until(deadline, one_round)
    tally.sample("rounds", rounds)
    ledger = _in_process_ledger(timer, events, rounds)
    # The runner routes every point replay refused to execute_spec.
    ledger["replay.fallback_s"] = timer.totals.get("execute_spec_s", 0.0) / rounds
    ledger["replay.points_simulated"] = (totals.points - totals.replayed) / rounds
    ledger["replay.points_replayed"] = totals.replayed / rounds
    ledger["replay.routed_share"] = totals.replayed / totals.grid if totals.grid else 0.0
    ledger["replay.us_per_point"] = (
        ledger["replay.replay_s"] / ledger["replay.points_replayed"] * 1e6
        if totals.replayed else 0.0
    )
    ledger["telemetry.overhead"] = _overhead(traced_walls, untraced.wall)
    return tally, ledger


# ---------------------------------------------------------------------------
# cli_roundtrip
# ---------------------------------------------------------------------------
_FINGERPRINT = "campaign fingerprint: "


@dataclass
class _Command:
    label: str
    args: List[str]


def _cli_commands(env: Env, telemetry: bool) -> List[_Command]:
    order = ",".join(cli_spec_order(env.seed))

    def tel(name: str) -> List[str]:
        return ["--telemetry", env.path("telemetry", name)] if telemetry else []

    return [
        _Command("list", ["campaign", "--list"]),
        _Command("campaign", ["campaign", "--specs", order, "--workers", str(WORKERS),
                              "--jsonl", env.path("full.jsonl")] + tel("campaign")),
        _Command("shard0", ["campaign", "--specs", order, "--shard", "0/2",
                            "--jsonl", env.path("shard0.jsonl")] + tel("shard0")),
        _Command("shard1", ["campaign", "--specs", order, "--shard", "1/2",
                            "--jsonl", env.path("shard1.jsonl")] + tel("shard1")),
        _Command("merge", ["campaign", "--merge-jsonl",
                           f"{env.path('shard0.jsonl')},{env.path('shard1.jsonl')}"]),
        _Command("orchestrate", ["orchestrate", "--specs", order, "--hosts", "2",
                                 "--workers-per-host", "1",
                                 "--out-dir", env.path("orchestrate"),
                                 "--merged-jsonl", env.path("orchestrate", "merged.jsonl")]
                 + tel("orchestrate")),
    ]


def _jsonl_counts(path: str) -> Tuple[int, int]:
    """``(simulations, run rows)`` of a campaign JSONL file."""
    runs = pairs = mismatched = 0
    with open(path) as stream:
        for line in stream:
            row = json.loads(line)
            if row.get("type") == "run":
                runs += 1
            elif row.get("type") == "pair":
                pairs += 1
                mismatched += not row.get("equivalent", True)
    return runs + pairs + 2 * mismatched, runs


class _CliChecker:
    """Exit codes, pair verdicts and fingerprints of every command."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.fingerprint: Optional[str] = None

    def verdict(self, command: _Command, done) -> bool:
        if done is None:
            self.tally.errors.append(f"{command.label}: timed out")
            return False
        if done.returncode != 0:
            self.tally.errors.append(
                f"{command.label}: exit {done.returncode}: {done.stderr.strip()[-200:]}"
            )
            return False
        if command.label == "list":
            return True
        if "all pairs equivalent: True" not in done.stdout:
            self.tally.wrong.append(f"{command.label}: a pair is not equivalent")
            return False
        lines = [l for l in done.stdout.splitlines() if l.startswith(_FINGERPRINT)]
        if command.label.startswith("shard"):
            return bool(lines)
        fingerprint = lines[-1][len(_FINGERPRINT):] if lines else None
        if self.fingerprint is None and command.label == "campaign":
            self.fingerprint = fingerprint
        if fingerprint is None or fingerprint != self.fingerprint:
            self.tally.wrong.append(f"{command.label}: fingerprint {fingerprint} != {self.fingerprint}")
            return False
        return True


def _cli_round(env: Env, checker: _CliChecker, telemetry: bool) -> Dict[str, float]:
    """Run the command sequence once; returns per-command walls plus the
    round's simulation and row counts."""
    shutil.rmtree(env.path("orchestrate"), ignore_errors=True)
    walls: Dict[str, float] = {}
    rows: Dict[str, int] = {}
    sims = 0
    for command in _cli_commands(env, telemetry):
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.analysis.cli"] + command.args,
                env=env.child_env(), cwd=env.work, capture_output=True,
                text=True, timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            done = None
        walls[command.label] = time.perf_counter() - start
        ok = checker.verdict(command, done)
        checker.tally.count(int(ok), int(not ok))
        if not ok:
            continue
        if command.label == "campaign":
            command_sims, rows[command.label] = _jsonl_counts(env.path("full.jsonl"))
        elif command.label.startswith("shard"):
            command_sims, rows[command.label] = _jsonl_counts(env.path(f"{command.label}.jsonl"))
        elif command.label == "merge":
            # The merge delivers the shard files' rows without simulating.
            command_sims, rows["merge"] = 0, rows.get("shard0", 0) + rows.get("shard1", 0)
        elif command.label == "orchestrate":
            command_sims, rows[command.label] = _jsonl_counts(
                env.path("orchestrate", "merged.jsonl")
            )
        else:
            command_sims = 0
        sims += command_sims
    walls["round"] = sum(walls.values())
    walls["sims"] = sims
    walls["points"] = sum(rows.values())
    return walls


def measure_cli(env: Env, deadline: float) -> Tally:
    tally = Tally()
    checker = _CliChecker(tally)

    rounds: List[Dict[str, float]] = []

    def one_round() -> None:
        rounds.append(_cli_round(env, checker, telemetry=False))
        tally.sample("setup_s", rounds[-1]["list"])

    tally.sample("rounds", _until(deadline, one_round))
    # Each command's wall is the median over the rounds, so a slow outlier
    # of one command does not stand for the whole round; sims and points
    # are the same every round.
    labels = [command.label for command in _cli_commands(env, telemetry=False)]
    round_wall = sum(statistics.median(r[label] for r in rounds) for label in labels)
    sims = statistics.median(r["sims"] for r in rounds)
    points = statistics.median(r["points"] for r in rounds)
    tally.samples["sims_per_s"] = [sims / round_wall]
    tally.samples["points_per_s"] = [points / round_wall]
    return tally


def trace_cli(env: Env, deadline: float) -> Tuple[Tally, Dict[str, float]]:
    """Untraced rounds for the command walls during the first half of the
    run, then traced rounds (``--telemetry`` on every command that takes
    it) for the ledger."""
    tally = Tally()
    checker = _CliChecker(tally)
    untraced: List[Dict[str, float]] = []
    half = time.monotonic() + (deadline - time.monotonic()) / 2
    _until(half, lambda: untraced.append(_cli_round(env, checker, telemetry=False)))
    timer = CallTimer()
    campaign_events: List[Dict[str, object]] = []
    orchestrate_events: List[Dict[str, object]] = []
    traced_walls: List[float] = []

    def one_round() -> None:
        shutil.rmtree(env.path("telemetry"), ignore_errors=True)
        walls = _cli_round(env, checker, telemetry=True)
        traced_walls.append(walls["round"])
        timer.merge_jsonl([env.path("shard0.jsonl"), env.path("shard1.jsonl")])
        campaign_events.extend(sideband_events(env.path("telemetry", "campaign")))
        orchestrate_events.extend(sideband_events(env.path("telemetry", "orchestrate")))

    rounds = _until(deadline, one_round)
    tally.sample("rounds", rounds)
    ledger = sideband_ledger(campaign_events)
    orchestrate = sideband_ledger(orchestrate_events)
    ledger.update({k: v for k, v in orchestrate.items() if k.startswith("orchestrate.")})
    ledger.update(kernel_ledger(sideband_kernel_totals(campaign_events)))
    ledger["merge.merge_s"] = timer.totals.get("merge.merge_s", 0.0)
    ledger = _per_round(ledger, rounds)
    for label in ("list", "campaign", "merge", "orchestrate"):
        ledger[f"cli.{label}_s"] = statistics.median(r[label] for r in untraced)
        tally.counts[f"cli.{label}_s"] = len(untraced)
    ledger["cli.shard_s"] = statistics.median(r["shard0"] + r["shard1"] for r in untraced)
    tally.counts["cli.shard_s"] = len(untraced)
    ledger["telemetry.overhead"] = _overhead(
        traced_walls, statistics.median(r["round"] for r in untraced)
    )
    return tally, ledger
