"""Persistent benchmark harness (the ``BENCH_*.json`` trajectory).

The pytest-benchmark modules under ``benchmarks/`` are great for
interactive exploration but their output is not committed; this module is
the *persistent* counterpart.  It re-runs the same scenarios — the micro
FIFO operations, the Fig. 5 depth sweep and the Section IV-C SoC case
study — under plain :func:`time.perf_counter`, adds the campaign, replay
and CLI start-up scenarios, and reduces each scenario
to a small set of named scalar metrics that can be compared from one PR
to the next.

Layout of the emitted document (see :func:`run_all`)::

    {
      "schema": 1,
      "label": "PR1",
      "scale": "quick",              # bench_config.SCALE
      "repeats": 5,                  # best-of-N wall times
      "metrics": { "<name>": <float>, ... },   # flat, comparable
      "detail":  { ... }                       # per-scenario breakdown
    }

Metric names are dotted (``micro.smart_blocking_ops_per_s``,
``case_study.smart_wall_s``); :data:`METRICS` declares for each one
whether higher or lower is better, which is what
``tools/run_benchmarks.py`` uses to turn a baseline comparison into
speedup factors and regression verdicts.

Wall-clock numbers are machine dependent, so every scenario also records
the kernel activity counters (context switches above all) that explain
the wall-clock shape in a machine-independent way.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

from repro.analysis import experiments
from repro.campaign import (
    MODE_SMART,
    CampaignRunner,
    CostModel,
    ScenarioSpec,
    default_campaign,
    execute_spec,
    run_replay_sweep,
    sweep_point_specs,
)
from repro.campaign.orchestrator import (
    Orchestrator,
    cost_shards,
    estimated_makespans,
    local_hosts,
    makespan_spread,
)
from repro.kernel import Simulator
from repro.kernel.simtime import TimeUnit
from repro.soc import FifoPolicy, SocPlatform
from repro.fifo import RegularFifo, SmartFifo
from repro.workloads import PipelineModel, StreamingPipeline

from bench_config import SCALE, soc_config, streaming_config
from bench_micro_fifo_ops import (
    ITEMS,
    TRACE_EMITS,
    regular_fifo_nb_ops,
    smart_fifo_burst_stream,
    smart_fifo_decoupled_stream,
    smart_fifo_nb_ops,
    telemetry_bypass_stream,
    trace_digest_lines,
    trace_emit_burst_ops,
    trace_emit_off_ops,
    trace_emit_ops,
)

#: Direction of each exported metric: True when higher is better.
METRICS: Dict[str, bool] = {
    "micro.regular_nb_ops_per_s": True,
    "micro.smart_nb_ops_per_s": True,
    "micro.smart_blocking_ops_per_s": True,
    "micro.smart_burst_ops_per_s": True,
    "micro.trace_emit_ops_per_s": True,
    "micro.trace_emit_burst_ops_per_s": True,
    "micro.trace_emit_off_ops_per_s": True,
    "micro.trace_digest_lines_per_s": True,
    "micro.telemetry_off_overhead": False,
    "fig5.tdfull_total_wall_s": False,
    "fig5.tdless_total_wall_s": False,
    "case_study.sync_wall_s": False,
    "case_study.smart_wall_s": False,
    "campaign.specs_per_s": True,
    "campaign.paired_specs_per_s": True,
    "campaign.orchestrated_specs_per_s": True,
    "replay.points_per_s": True,
    "replay.speedup_vs_simulate": True,
    "replay.conditional_points_per_s": True,
    "campaign.auto_replay_sweep_specs_per_s": True,
    "startup.list_wall_s": False,
    "startup.merge_wall_s": False,
    "startup.import_cli_s": False,
}

#: Metrics reported in the comparison but exempt from the regression gate
#: (``tools/run_benchmarks.py --check``).  The orchestrated campaign is
#: dominated by subprocess launch and poll-tick timing, which jitter far
#: beyond the 20% threshold on a loaded CI box; its regressions print as
#: ADVISORY instead of failing the run.
ADVISORY_METRICS = {
    "campaign.orchestrated_specs_per_s",
    # A ratio of two ~10ms walls hovering at 1.0: run-to-run jitter of a
    # few percent is normal and meaningless as a trajectory.  The hard
    # bound lives in bench_micro itself (TELEMETRY_OVERHEAD_LIMIT),
    # which fails the scenario — not just the comparison — when disabled
    # telemetry costs real time.
    "micro.telemetry_off_overhead",
    # Fresh-interpreter walls: dominated by module compilation and disk
    # cache state, and ~2x apart with and without cached bytecode
    # (PYTHONDONTWRITEBYTECODE), so they are a trajectory, not a gate.
    "startup.list_wall_s",
    "startup.merge_wall_s",
    "startup.import_cli_s",
}

#: Hard in-scenario bound on the disabled-telemetry overhead factor:
#: sim.run() with NULL_TELEMETRY (one `enabled` attribute check) over the
#: direct scheduler drive with no checks at all.
TELEMETRY_OVERHEAD_LIMIT = 1.05

#: Worker processes used by the campaign scenario (the point of the metric
#: is pool throughput, so > 1; kept small to stay meaningful on any CI box).
CAMPAIGN_WORKERS = 2

#: Shape of the orchestrated-campaign scenario: 2 local-subprocess hosts,
#: each running its cost-balanced shard across 2 workers (so the metric
#: covers subprocess launch, 4-way parallel simulation, JSONL collection
#: and the merge).
ORCHESTRATOR_HOSTS = 2
ORCHESTRATOR_WORKERS_PER_HOST = 2

#: Depths of the Fig. 5 sweep used by the harness (a subset of the pytest
#: sweep, chosen to keep the committed numbers fast to regenerate).
FIG5_DEPTHS = (1, 4, 16, 64)

#: Depth grid of the record-and-replay scenario: one recorded simulation
#: at REPLAY_ANCHOR_DEPTH, every other depth evaluated by replay.  The
#: grid spans the full Fig. 5 x-axis (the paper sweeps FIFO sizes up to
#: the fully-buffered plateau, ~10^3).
REPLAY_DEPTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
REPLAY_ANCHOR_DEPTH = 8

#: Dense depth grid of the auto-routed campaign sweep: the point of
#: --auto-replay is pricing *dense* grids, where the one-off recording and
#: the sampled cross-validation amortise over many replayed points.
AUTO_SWEEP_DEPTHS = tuple(sorted(set(
    list(range(1, 17))
    + [20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128,
       160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024]
)))
#: Default-campaign spec swept by the auto-replay scenario.  ``mixed``
#: exercises blocking, non-blocking *and* query/peek probes, so its
#: recording carries DEP_BRANCH records — the conditional-replay path —
#: while still replaying across the whole grid.
AUTO_SWEEP_ANCHOR = "mixed_d3"

#: Fresh interpreters per startup wall; the scenario reports the median.
STARTUP_SAMPLES = 5
#: Default-campaign specs whose two shard files the startup merge reads.
STARTUP_MERGE_SPECS = ("writer_reader_d1", "writer_reader_d4")


def _best_wall(func: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Run ``func`` ``repeats`` times; return (best wall seconds, the
    result of that best repeat).

    Metrics read from the result (replay's per-point walls) then come from
    the same quiet window as the wall, not from whichever repeat ran last.
    """
    best = float("inf")
    best_result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            best_result = result
    return best, best_result


# ---------------------------------------------------------------------------
# Scenario: micro FIFO operations
# ---------------------------------------------------------------------------
def bench_micro(repeats: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Ops/sec of the word-transfer micro-benchmarks.

    ``smart_blocking_ops_per_s`` is the acceptance metric of the hot-path
    work: one "op" is one blocking word transfer (a write plus the
    matching read) performed by the fully decoupled two-thread stream.
    """
    nb_wall, _ = _best_wall(regular_fifo_nb_ops, repeats)
    smart_nb_wall, _ = _best_wall(smart_fifo_nb_ops, repeats)
    blocking_wall, _ = _best_wall(smart_fifo_decoupled_stream, repeats)
    # Burst twin of the blocking stream: same payload, span accesses.
    burst_wall, _ = _best_wall(smart_fifo_burst_stream, repeats)
    # Trace emit path: one "op" is one Simulator.log call, once through
    # the campaign-default DigestSink and once with tracing off (the
    # NullSink one-attribute-check fast path of the streaming refactor);
    # the burst variant batches the same lines through emit_many spans.
    emit_wall, _ = _best_wall(trace_emit_ops, repeats)
    emit_burst_wall, _ = _best_wall(trace_emit_burst_ops, repeats)
    emit_off_wall, _ = _best_wall(trace_emit_off_ops, repeats)
    # Emit plus digest through a spilling DigestSink: one "line" is one
    # record encoded, merged, formatted and hashed.
    digest_wall, _ = _best_wall(trace_digest_lines, repeats)
    # Disabled-telemetry overhead: the production sim.run() path (pays
    # the NULL_TELEMETRY `enabled` checks) against a direct scheduler
    # drive with no checks.  Same payload as the blocking stream; the
    # factor is gated hard here so "telemetry off costs nothing" is an
    # enforced property, not a hope.
    bypass_repeats = max(repeats, 5)
    production_wall, _ = _best_wall(smart_fifo_decoupled_stream, bypass_repeats)
    bypass_wall, _ = _best_wall(telemetry_bypass_stream, bypass_repeats)
    telemetry_overhead = production_wall / bypass_wall
    if telemetry_overhead > TELEMETRY_OVERHEAD_LIMIT:
        raise AssertionError(
            f"disabled telemetry costs {telemetry_overhead:.3f}x over the "
            f"uninstrumented scheduler drive (limit "
            f"{TELEMETRY_OVERHEAD_LIMIT})"
        )
    metrics = {
        "micro.regular_nb_ops_per_s": ITEMS / nb_wall,
        "micro.smart_nb_ops_per_s": ITEMS / smart_nb_wall,
        "micro.smart_blocking_ops_per_s": ITEMS / blocking_wall,
        "micro.smart_burst_ops_per_s": ITEMS / burst_wall,
        "micro.trace_emit_ops_per_s": TRACE_EMITS / emit_wall,
        "micro.trace_emit_burst_ops_per_s": TRACE_EMITS / emit_burst_wall,
        "micro.trace_emit_off_ops_per_s": TRACE_EMITS / emit_off_wall,
        "micro.trace_digest_lines_per_s": TRACE_EMITS / digest_wall,
        "micro.telemetry_off_overhead": telemetry_overhead,
    }
    detail = {
        "items": ITEMS,
        "regular_nb_wall_s": nb_wall,
        "smart_nb_wall_s": smart_nb_wall,
        "smart_blocking_wall_s": blocking_wall,
        "smart_burst_wall_s": burst_wall,
        "trace_emits": TRACE_EMITS,
        "trace_emit_wall_s": emit_wall,
        "trace_emit_burst_wall_s": emit_burst_wall,
        "trace_emit_off_wall_s": emit_off_wall,
        "trace_digest_wall_s": digest_wall,
        "telemetry_production_wall_s": production_wall,
        "telemetry_bypass_wall_s": bypass_wall,
        "telemetry_overhead_limit": TELEMETRY_OVERHEAD_LIMIT,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Scenario: Fig. 5 depth sweep
# ---------------------------------------------------------------------------
def _run_pipeline(model: PipelineModel, depth: int):
    sim = Simulator(f"bench_fig5_{model.value}_{depth}")
    pipeline = StreamingPipeline(sim, model, streaming_config(depth))
    pipeline.run()
    pipeline.verify()
    return sim, pipeline


def bench_fig5(repeats: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Wall time and context switches per (model, depth) point of Fig. 5."""
    points: List[Dict[str, object]] = []
    totals = {PipelineModel.TDLESS: 0.0, PipelineModel.TDFULL: 0.0}
    for depth in FIG5_DEPTHS:
        completions = {}
        for model in (PipelineModel.TDLESS, PipelineModel.TDFULL):
            wall, (sim, pipeline) = _best_wall(
                lambda m=model, d=depth: _run_pipeline(m, d), repeats
            )
            completion_ns = pipeline.completion_time.to(TimeUnit.NS)
            completions[model] = completion_ns
            totals[model] += wall
            points.append(
                {
                    "model": model.value,
                    "depth": depth,
                    "wall_s": wall,
                    "context_switches": sim.stats.context_switches,
                    "delta_cycles": sim.stats.delta_cycles,
                    "completion_ns": completion_ns,
                }
            )
        if completions[PipelineModel.TDFULL] != completions[PipelineModel.TDLESS]:
            raise AssertionError(
                f"fig5 depth {depth}: decoupled completion date "
                f"{completions[PipelineModel.TDFULL]} ns differs from the "
                f"reference {completions[PipelineModel.TDLESS]} ns"
            )
    metrics = {
        "fig5.tdless_total_wall_s": totals[PipelineModel.TDLESS],
        "fig5.tdfull_total_wall_s": totals[PipelineModel.TDFULL],
    }
    return metrics, {"depths": list(FIG5_DEPTHS), "points": points}


# ---------------------------------------------------------------------------
# Scenario: SoC case study
# ---------------------------------------------------------------------------
def _run_platform(policy: FifoPolicy):
    sim = Simulator(f"bench_case_{policy.value}")
    platform = SocPlatform(sim, policy=policy, config=soc_config())
    platform.run()
    platform.verify()
    return sim, platform


def bench_case_study(repeats: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Section IV-C: sync-per-access versus Smart FIFO on the same SoC job."""
    sync_wall, (sync_sim, sync_platform) = _best_wall(
        lambda: _run_platform(FifoPolicy.SYNC_PER_ACCESS), repeats
    )
    smart_wall, (smart_sim, smart_platform) = _best_wall(
        lambda: _run_platform(FifoPolicy.SMART), repeats
    )
    sync_dates = {
        name: (t.to(TimeUnit.NS) if t is not None else -1.0)
        for name, t in sync_platform.consumer_finish_times().items()
    }
    smart_dates = {
        name: (t.to(TimeUnit.NS) if t is not None else -1.0)
        for name, t in smart_platform.consumer_finish_times().items()
    }
    if sync_dates != smart_dates:
        raise AssertionError("case study: Smart FIFO changed the SoC timing")
    metrics = {
        "case_study.sync_wall_s": sync_wall,
        "case_study.smart_wall_s": smart_wall,
    }
    detail = {
        "sync_context_switches": sync_sim.stats.context_switches,
        "smart_context_switches": smart_sim.stats.context_switches,
        "sync_blocking_waits": sync_platform.fifo_blocking_waits(),
        "smart_blocking_waits": smart_platform.fifo_blocking_waits(),
        "gain_percent": 100.0 * (sync_wall - smart_wall) / sync_wall,
        "timing_identical": True,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Scenario: parallel experiment campaign
# ---------------------------------------------------------------------------
def bench_campaign(repeats: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Throughput of the campaign engine (repro.campaign).

    One "spec" is one complete simulation; the default campaign runs every
    spec once plus the paired reference/Smart equivalence battery (a
    pairable spec's own-mode run doubles as half of its pair, so each pair
    adds exactly one extra simulation), sharded over ``CAMPAIGN_WORKERS``
    processes.  ``campaign.specs_per_s`` is simulations per second of wall
    time, so both the scenario cost and the pool/aggregation overhead are
    covered; ``campaign.paired_specs_per_s`` is completed equivalence pairs
    per second — the metric the split-pair scheduling (each half of a pair
    is an independent worker job since PR 3) is accountable to.
    """
    specs = default_campaign()
    runner = CampaignRunner(workers=CAMPAIGN_WORKERS)

    def run():
        result = runner.run(specs)
        if not result.all_pairs_equivalent:
            raise AssertionError("campaign: a paired trace diff is not empty")
        return result

    wall, result = _best_wall(run, repeats)
    simulations = len(result.runs) + len(result.pairs)
    metrics = {
        "campaign.specs_per_s": simulations / wall,
        "campaign.paired_specs_per_s": len(result.pairs) / wall,
    }
    detail = {
        "workers": CAMPAIGN_WORKERS,
        "specs": len(result.runs),
        "pairs": len(result.pairs),
        "simulations": simulations,
        "wall_s": wall,
        "fingerprint": result.fingerprint(),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Scenario: orchestrated multi-host campaign
# ---------------------------------------------------------------------------
def bench_orchestrator(repeats: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Throughput of the distributed orchestrator (repro.campaign.orchestrator).

    The default campaign runs across ``ORCHESTRATOR_HOSTS`` local
    subprocess hosts x ``ORCHESTRATOR_WORKERS_PER_HOST`` workers, sharded
    by a ``COSTS.json`` recorded from a warm-up campaign — so the metric
    covers host launch, the cost-balanced partition, 4-way parallel
    simulation, shard collection and the merge.  ``detail`` additionally
    reports the measured per-shard makespans of the cost partition
    against a round-robin control run: the cost-balanced spread (max/min
    shard wall) is the number the partitioner is accountable to.

    Orchestrated runs are the most expensive scenario (every repeat is a
    whole campaign plus process launches), so repeats are capped at 3;
    the round-robin control runs once.
    """
    specs = default_campaign()
    names = [spec.name for spec in specs]
    with tempfile.TemporaryDirectory(prefix="bench_orchestrator_") as tmp:
        costs_path = os.path.join(tmp, "COSTS.json")
        warmup = CampaignRunner(workers=ORCHESTRATOR_WORKERS_PER_HOST).run(specs)
        if not warmup.all_pairs_equivalent:
            raise AssertionError("orchestrator warm-up: non-equivalent pair")
        model = CostModel()
        model.observe_result(warmup)
        model.save(costs_path)

        def orchestrate(label: str, by_cost: bool):
            outcome = Orchestrator(
                local_hosts(ORCHESTRATOR_HOSTS),
                os.path.join(tmp, label),
                workers_per_host=ORCHESTRATOR_WORKERS_PER_HOST,
                shard_by_cost=by_cost,
                costs_path=costs_path if by_cost else None,
                poll_interval=0.02,
            ).run(names)
            if outcome.fingerprint() != warmup.fingerprint():
                raise AssertionError(
                    "orchestrator: merged fingerprint differs from the "
                    "unsharded campaign"
                )
            return outcome

        wall, outcome = _best_wall(
            lambda: orchestrate("cost", True), min(repeats, 3)
        )
        control = orchestrate("round_robin", False)

    # Shard makespans from the *recorded* per-spec wall times: the sum of
    # measured spec walls per shard is the load each partitioner actually
    # balances (the orchestrator-observed host walls, also reported, fold
    # in interpreter start-up and poll-tick resolution, which swamp the
    # signal at scale=quick).
    shards_by_cost = cost_shards(specs, ORCHESTRATOR_HOSTS, model, paired=True)
    shards_round_robin = [
        CampaignRunner.shard_specs(specs, index, ORCHESTRATOR_HOSTS)
        for index in range(ORCHESTRATOR_HOSTS)
    ]
    cost_spans = estimated_makespans(shards_by_cost, model, paired=True)
    rr_spans = estimated_makespans(shards_round_robin, model, paired=True)

    simulations = len(outcome.result.runs) + len(outcome.result.pairs)
    metrics = {
        "campaign.orchestrated_specs_per_s": simulations / wall,
    }
    detail = {
        "hosts": ORCHESTRATOR_HOSTS,
        "workers_per_host": ORCHESTRATOR_WORKERS_PER_HOST,
        "simulations": simulations,
        "wall_s": wall,
        "fingerprint": outcome.fingerprint(),
        "cost_balanced": {
            "shard_sizes": [len(shard) for shard in shards_by_cost],
            "makespans_recorded_s": cost_spans,
            "spread_recorded": makespan_spread(cost_spans),
            "host_walls_s": outcome.makespans(),
            "host_wall_spread": outcome.makespan_spread(),
        },
        "round_robin": {
            "shard_sizes": [len(shard) for shard in shards_round_robin],
            "makespans_recorded_s": rr_spans,
            "spread_recorded": makespan_spread(rr_spans),
            "host_walls_s": control.makespans(),
            "host_wall_spread": control.makespan_spread(),
        },
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Scenario: record-and-replay depth sweep
# ---------------------------------------------------------------------------
def _replay_anchor_spec() -> ScenarioSpec:
    # Same streaming job as the default campaign's streaming_d8 spec, so
    # replay.points_per_s is directly comparable to campaign.specs_per_s
    # (one replayed point stands in for one simulated spec of that size).
    return ScenarioSpec(
        name="bench_replay_anchor",
        workload="streaming",
        mode=MODE_SMART,
        depth=REPLAY_ANCHOR_DEPTH,
        params={"n_blocks": 6, "words_per_block": 25},
    )


def bench_replay(repeats: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Throughput of the record-and-replay evaluator (repro.replay).

    One "point" is one (depth) configuration of the Fig. 5 streaming
    sweep evaluated from the single recorded anchor simulation instead of
    a fresh scheduler run.  ``replay.points_per_s`` is replayed points per
    second of pure replay wall (recording excluded — it is amortised over
    the whole sweep); ``replay.speedup_vs_simulate`` divides the wall of
    one fresh simulation of the anchor spec by the mean wall of one
    replayed point, i.e. the per-point gain the record-and-replay
    evaluation is accountable for.  Every repeat cross-validates one
    sampled point against a fresh recording, so a replay that drifts from
    the scheduler fails the benchmark rather than reporting a fast wrong
    answer.
    """
    anchor = _replay_anchor_spec()

    def sweep():
        result = run_replay_sweep(anchor, depths=REPLAY_DEPTHS, validate=1)
        if not result.all_validated:
            raise AssertionError("replay: a validated point diverged")
        return result

    sweep_wall, result = _best_wall(sweep, repeats)
    simulate_wall, _ = _best_wall(lambda: execute_spec(anchor, "digest"), repeats)
    replayed = sum(1 for row in result.rows if row.evaluator == "replay")
    per_point = result.replay_seconds / replayed

    # Conditional twin: a workload whose recording carries DEP_BRANCH
    # records (random traffic probes occupancy through nb accesses and a
    # monitor), replayed inside its validity envelope.  Points the
    # envelope refuses fall back to fresh simulation and are excluded
    # from points_per_s, so the metric prices *replayed* points only.
    conditional = ScenarioSpec(
        name="bench_conditional_anchor",
        workload="random_traffic",
        mode=MODE_SMART,
        depth=REPLAY_ANCHOR_DEPTH,
        seed=3,
    )

    def conditional_sweep():
        result = run_replay_sweep(conditional, depths=REPLAY_DEPTHS, validate=1)
        if not result.all_validated:
            raise AssertionError("replay: a validated conditional point diverged")
        return result

    cond_wall, cond = _best_wall(conditional_sweep, repeats)
    cond_replayed = sum(1 for row in cond.rows if row.evaluator == "replay")
    metrics = {
        "replay.points_per_s": result.points_per_s,
        "replay.speedup_vs_simulate": simulate_wall / per_point,
        "replay.conditional_points_per_s": cond.points_per_s,
    }
    detail = {
        "depths": list(REPLAY_DEPTHS),
        "anchor_depth": REPLAY_ANCHOR_DEPTH,
        "replayed_points": replayed,
        "validated_points": len(result.validations),
        "all_validated": result.all_validated,
        "sweep_wall_s": sweep_wall,
        "record_wall_s": result.record_seconds,
        "replay_wall_s": result.replay_seconds,
        "validate_wall_s": result.validate_seconds,
        "simulate_wall_s": simulate_wall,
        "conditional": {
            "workload": conditional.workload,
            "seed": conditional.seed,
            "sweep_wall_s": cond_wall,
            "replayed_points": cond_replayed,
            "invalid_points": [name for name, _ in cond.invalid_points],
            "validated_points": len(cond.validations),
            "replay_wall_s": cond.replay_seconds,
            "simulate_fallback_wall_s": cond.simulate_seconds,
        },
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Scenario: auto-routed campaign depth sweep
# ---------------------------------------------------------------------------
def bench_auto_replay(repeats: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Throughput of ``CampaignRunner(auto_replay=True)`` on a dense sweep.

    The scenario expands one default-campaign spec (``AUTO_SWEEP_ANCHOR``)
    over the ``AUTO_SWEEP_DEPTHS`` grid and runs it twice: once through
    the auto-routing pass (one recorded anchor simulation, every
    in-envelope point replayed, one sampled point cross-validated against
    a fresh simulation) and once all-simulate.
    ``campaign.auto_replay_sweep_specs_per_s`` is grid points per second
    of the auto-routed run; ``detail["speedup_vs_all_simulate"]`` is the
    end-to-end wall ratio the routing is accountable to — it folds in the
    recording and validation overhead, unlike the per-point
    ``replay.speedup_vs_simulate``.  The simulated rows of the two runs
    must agree byte for byte (the --auto-replay correctness contract).
    """
    anchor = next(
        spec for spec in default_campaign() if spec.name == AUTO_SWEEP_ANCHOR
    )
    specs = [anchor] + sweep_point_specs(anchor, depths=AUTO_SWEEP_DEPTHS)

    def run_auto():
        return CampaignRunner(
            workers=1, paired=False, auto_replay=True
        ).run(specs)

    def run_plain():
        return CampaignRunner(workers=1, paired=False).run(specs)

    auto_wall, auto = _best_wall(run_auto, repeats)
    plain_wall, plain = _best_wall(run_plain, repeats)
    plain_rows = {row.name: row.deterministic_row() for row in plain.runs}
    for row in auto.runs:
        if row.evaluator == "simulate":
            if row.deterministic_row() != plain_rows[row.name]:
                raise AssertionError(
                    f"auto-replay: simulated row {row.name} differs from "
                    "the all-simulate run"
                )
    replayed = sum(1 for row in auto.runs if row.evaluator == "replay")
    metrics = {
        "campaign.auto_replay_sweep_specs_per_s": len(specs) / auto_wall,
    }
    detail = {
        "anchor": anchor.name,
        "grid_points": len(specs),
        "replayed_points": replayed,
        "simulated_points": len(specs) - replayed,
        "auto_wall_s": auto_wall,
        "all_simulate_wall_s": plain_wall,
        "speedup_vs_all_simulate": plain_wall / auto_wall,
        "simulated_rows_identical": True,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Scenario: CLI start-up
# ---------------------------------------------------------------------------
def _median_process_wall(argv: List[str], cwd: str) -> Tuple[float, List[float]]:
    """Median wall of ``STARTUP_SAMPLES`` fresh ``python argv`` processes."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    walls = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable] + argv, cwd=cwd, env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - start)
    return statistics.median(walls), walls


def bench_startup(repeats: int) -> Tuple[Dict[str, float], Dict[str, object]]:
    """What a command costs before it simulates anything.

    Median wall of fresh interpreters (``STARTUP_SAMPLES`` each, whatever
    ``repeats`` says: a start-up wall is a distribution, not a best case)
    for ``campaign --list``, ``campaign --merge-jsonl`` over two small
    shard files, and ``python -c "import repro.analysis.cli"``.  Interpreter
    start, imports and argument parsing dominate all three, so they move
    with what each command imports.  ``detail`` records whether bytecode
    caching was off (``PYTHONDONTWRITEBYTECODE``), which roughly doubles
    import walls.
    """
    cli = ["-m", "repro.analysis.cli", "campaign"]
    by_name = {spec.name: spec for spec in default_campaign()}
    specs = [by_name[name] for name in STARTUP_MERGE_SPECS]
    with tempfile.TemporaryDirectory(prefix="bench_startup_") as tmp:
        shards = [os.path.join(tmp, f"shard{index}.jsonl") for index in range(2)]
        for index, path in enumerate(shards):
            CampaignRunner(shard=(index, 2)).run(specs, jsonl=path)
        list_wall, list_walls = _median_process_wall(cli + ["--list"], tmp)
        merge_wall, merge_walls = _median_process_wall(
            cli + ["--merge-jsonl", ",".join(shards)], tmp
        )
        import_wall, import_walls = _median_process_wall(
            ["-c", "import repro.analysis.cli"], tmp
        )
    metrics = {
        "startup.list_wall_s": list_wall,
        "startup.merge_wall_s": merge_wall,
        "startup.import_cli_s": import_wall,
    }
    detail = {
        "samples": STARTUP_SAMPLES,
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "list_walls_s": list_walls,
        "merge_walls_s": merge_walls,
        "import_cli_walls_s": import_walls,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
SCENARIOS = {
    "bench_micro_fifo_ops": bench_micro,
    "bench_fig5_depth_sweep": bench_fig5,
    "bench_case_study_soc": bench_case_study,
    "bench_campaign": bench_campaign,
    "bench_orchestrator": bench_orchestrator,
    "bench_replay_sweep": bench_replay,
    "bench_auto_replay_sweep": bench_auto_replay,
    "bench_startup": bench_startup,
}


def run_all(label: str, repeats: int = 5, verbose: bool = True) -> Dict[str, object]:
    """Run every scenario; return the BENCH document (see module docstring)."""
    metrics: Dict[str, float] = {}
    detail: Dict[str, object] = {}
    for name, scenario in SCENARIOS.items():
        if verbose:
            print(f"[bench] {name} ...", flush=True)
        scenario_metrics, scenario_detail = scenario(repeats)
        metrics.update(scenario_metrics)
        detail[name] = scenario_detail
    return {
        "schema": 1,
        "label": label,
        "scale": SCALE,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "metrics": metrics,
        "detail": detail,
    }


def compare(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[Dict[str, object]]:
    """Compare two BENCH documents metric by metric.

    Returns one row per metric present in both documents, with ``speedup``
    normalised so that > 1.0 always means "current is better": for
    higher-is-better metrics it is current/baseline, for lower-is-better
    metrics baseline/current.
    """
    rows: List[Dict[str, object]] = []
    base_metrics = baseline.get("metrics", {})
    for name, value in current.get("metrics", {}).items():
        if name not in base_metrics:
            continue
        base_value = base_metrics[name]
        higher_better = METRICS.get(name, True)
        if base_value <= 0 or value <= 0:
            speedup = float("nan")
        elif higher_better:
            speedup = value / base_value
        else:
            speedup = base_value / value
        rows.append(
            {
                "metric": name,
                "baseline": base_value,
                "current": value,
                "higher_is_better": higher_better,
                "speedup": speedup,
            }
        )
    return rows
