"""Distributed campaign orchestrator.

Turns the single-pool :class:`~repro.campaign.runner.CampaignRunner` into
a multi-host campaign engine, in four parts:

* :mod:`~repro.campaign.orchestrator.costs` — per-spec wall-time
  estimates learned from the ``COSTS.json`` sideband (wall clock stays
  out of the deterministic JSONL rows) with a static heuristic fallback;
* :mod:`~repro.campaign.orchestrator.partition` — the deterministic LPT
  cost-balanced partitioner behind ``--shard-by-cost i/N``;
* :mod:`~repro.campaign.orchestrator.budget` — per-spec and per-campaign
  wall-clock limits (``--spec-timeout`` / ``--campaign-budget``), the
  killable worker pool that enforces them and the deterministic
  ``timeout`` JSONL row;
* :mod:`~repro.campaign.orchestrator.hosts` /
  :mod:`~repro.campaign.orchestrator.transport` — host descriptions and
  the pluggable launch/poll/collect protocol
  (:class:`LocalSubprocessTransport`, :class:`SshTransport`) driven by
  the :class:`Orchestrator`, which merges the collected shard JSONLs to
  the byte-identical unsharded fingerprint.

Entry points: ``python -m repro.analysis.cli orchestrate`` and
``make orchestrate-smoke``.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".budget": ("SCOPE_CAMPAIGN", "SCOPE_SPEC", "RunBudget", "TimeoutRecord"),
    ".costs": ("HEURISTIC_WEIGHTS", "CostModel"),
    ".hosts": ("HostSpec", "local_hosts", "parse_hosts_file"),
    ".partition": ("cost_shards", "estimated_makespans", "makespan_spread"),
    ".transport": (
        "HostRun", "HostTransport", "LocalSubprocessTransport", "Orchestrator",
        "OrchestratorError", "OrchestratorResult", "SshTransport",
        "make_transport",
    ),
})
