"""Parallel experiment-campaign engine.

The paper validates the Smart FIFO by running every scenario in two modes
(regular FIFO without temporal decoupling, Smart FIFO with temporal
decoupling) and diffing the locally-timestamped traces (Section IV-A).
This package turns that one-simulation-at-a-time methodology into a
campaign-scale engine:

* :mod:`repro.campaign.spec` — declarative :class:`ScenarioSpec`
  descriptions (workload kind, FIFO policy/mode, depth, quantum, seed,
  timing mode, workload params; the field reference lives in that module's
  docstring), the static workload registry, :func:`build_scenario` and
  :func:`default_campaign`;
* :mod:`repro.campaign.scenarios` — builders for every repository workload
  (writer/reader, streaming, video, random traffic, bursty, arbiter
  contention, SoC case study), loaded by the first :func:`build_scenario`;
* :mod:`repro.campaign.runner` — the :class:`CampaignRunner`, which runs
  specs inline or across one killable pool of long-lived worker processes
  (every run builds a private :class:`~repro.kernel.simulator.Simulator`),
  and the paired
  reference/Smart equivalence campaign built on
  :mod:`repro.analysis.trace_diff`;
* :mod:`repro.campaign.orchestrator` — the distributed layer: the
  ``COSTS.json`` wall-time cost model, the cost-balanced
  ``--shard-by-cost`` partitioner, the worker pool with its wall-clock
  run budgets and deterministic ``timeout`` rows, and the multi-host
  :class:`~repro.campaign.orchestrator.Orchestrator` driving local or
  ssh hosts through the same launch/poll/collect protocol.

The aggregated result is **byte-identical for any worker count** — the
deterministic rows carry simulated dates, kernel counters and trace digests
only — so ``CampaignResult.fingerprint()`` is a stable handle for
regression tracking.

Entry points: ``python -m repro.analysis.cli campaign --workers 4`` and the
``campaign.*`` metric of ``benchmarks/bench_harness.py``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".evaluators": (
        "Evaluator", "ReplayEvaluator", "ReplaySweepResult",
        "SimulateEvaluator", "ValidationRecord", "compare_replay_to_spool",
        "record_spool", "replay_group_key", "run_replay_sweep",
        "sweep_point_specs",
    ),
    ".orchestrator.budget": ("RunBudget", "TimeoutRecord"),
    ".orchestrator.costs": ("CostModel",),
    ".runner": (
        "DEFAULT_TRACE_SINK", "CampaignResumeError", "CampaignResult",
        "CampaignRunner", "JsonlSink", "PairRecord", "SpecRunRecord",
        "combine_pair", "diff_pair_streaming", "execute_spec",
        "load_resume_state", "merge_jsonl",
    ),
    ".spec": (
        "MODE_REFERENCE", "MODE_SMART", "BuiltScenario", "ScenarioSpec",
        "WorkloadEntry", "build_scenario", "default_campaign",
        "describe_specs", "registered_workloads", "spec_is_pairable",
        "workload_entry",
    ),
})
