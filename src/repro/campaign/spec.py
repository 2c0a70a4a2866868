"""Declarative scenario specifications and the campaign workload registry.

A :class:`ScenarioSpec` is a small, picklable description of one simulation
run.  Specs are the unit of work of the campaign engine: the
:class:`~repro.campaign.runner.CampaignRunner` ships them to worker
processes, each worker builds a fresh :class:`~repro.kernel.simulator
.Simulator` from the spec and returns a deterministic record.

``ScenarioSpec`` fields
-----------------------

``name``
    Unique identifier of the spec inside a campaign; used to sort the
    aggregated results, so two specs of one campaign may not share a name.
``workload``
    Key into the workload registry (see :func:`register_workload`); one of
    :func:`registered_workloads`, e.g. ``"streaming"``, ``"video"``,
    ``"random_traffic"``, ``"bursty"``, ``"contention"``, ``"soc"``,
    ``"writer_reader"``, ``"noc_stress"``, ``"packet_stream"``,
    ``"mixed"``.
``mode``
    FIFO policy / decoupling mode: ``"reference"`` (regular or
    sync-per-access FIFOs, no temporal decoupling — the paper's timing
    ground truth) or ``"smart"`` (Smart FIFOs with temporal decoupling).
``depth``
    Depth of every FIFO of the scenario.
``quantum_ns``
    Global quantum in nanoseconds for quantum-decoupled runs
    (``timing="quantum"``); ``None`` otherwise.
``seed``
    Seed of every randomized generator of the workload; two runs of the
    same spec are bit-identical.
``timing``
    Optional timing-annotation override for workloads that support more
    than the two paired modes: ``"untimed"`` or ``"quantum"`` (currently
    honoured by the ``streaming`` workload).  ``None`` derives the timing
    from ``mode``.
``params``
    Free-form workload-specific sizes (e.g. ``n_blocks`` for streaming,
    ``n_writers`` for contention); every builder documents its keys.
``burst``
    When True, workloads that support span (burst) FIFO accesses move
    their payloads through ``read_burst``/``write_burst`` instead of
    word-by-word loops.  Burst transfers are bit-exact with the word path
    (same dates, traces and deterministic counters), so the flag is a pure
    execution-speed knob and is deliberately **excluded** from
    :meth:`ScenarioSpec.identity_row` — a burst campaign reproduces the
    word-mode fingerprint byte for byte.

Pairability
-----------

The equivalence campaign of Section IV-A re-runs a spec in ``reference``
and ``smart`` modes and diffs the locally-timestamped traces.  Not every
spec supports that: quantum/untimed runs change the timing *by design*, and
the arbiter-contention scenario has no reference twin (arbitration delays
are a property of the decoupled schedule — its oracle is
:meth:`~repro.workloads.contention.ArbiterContentionScenario.verify`).
:func:`spec_is_pairable` encodes the rule.  The two runs of a pair are
independent worker jobs, each an :func:`~repro.campaign.runner.execute_spec`
of ``spec.with_mode(mode)``, recombined at aggregation by
:func:`~repro.campaign.runner.combine_pair`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

MODE_REFERENCE = "reference"
MODE_SMART = "smart"
MODES = (MODE_REFERENCE, MODE_SMART)

#: Timing overrides accepted in :attr:`ScenarioSpec.timing`.
TIMING_OVERRIDES = ("untimed", "quantum")


@dataclass
class ScenarioSpec:
    """One declarative simulation run (see the module docstring)."""

    name: str
    workload: str
    mode: str = MODE_SMART
    depth: int = 4
    quantum_ns: Optional[int] = None
    seed: int = 1
    timing: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)
    #: Pure speed knob (see the module docstring); never part of the
    #: deterministic identity of a run.
    burst: bool = False

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise ValueError("ScenarioSpec.name must be non-empty")
        if self.workload not in _REGISTRY:
            raise ValueError(
                f"unknown workload {self.workload!r}; registered: "
                f"{', '.join(registered_workloads())}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.depth <= 0:
            raise ValueError(f"depth must be positive, got {self.depth}")
        if self.timing is not None and self.timing not in TIMING_OVERRIDES:
            raise ValueError(
                f"timing override must be one of {TIMING_OVERRIDES}, "
                f"got {self.timing!r}"
            )
        if self.timing == "quantum" and self.quantum_ns is None:
            raise ValueError(f"spec {self.name}: timing='quantum' needs quantum_ns")
        if self.quantum_ns is not None and self.timing != "quantum":
            raise ValueError(
                f"spec {self.name}: quantum_ns={self.quantum_ns} is only "
                "meaningful with timing='quantum' (it would be recorded in "
                "the results but never applied)"
            )

    def with_mode(self, mode: str) -> "ScenarioSpec":
        """A copy of this spec running in another FIFO/decoupling mode."""
        return replace(self, mode=mode, params=dict(self.params))

    @property
    def label(self) -> str:
        return f"{self.name}[{self.mode}]"

    def identity_row(self) -> Dict[str, object]:
        """The deterministic identification columns of result rows."""
        return {
            "name": self.name,
            "workload": self.workload,
            "mode": self.mode,
            "depth": self.depth,
            "quantum_ns": self.quantum_ns,
            "seed": self.seed,
            "timing": self.timing,
        }


# ---------------------------------------------------------------------------
# Workload registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BuiltScenario:
    """What a workload builder returns: the scenario plus result hooks.

    ``scenario`` must expose ``run()``; ``verify`` (optional) raises on a
    broken run; ``extras`` (optional) returns extra *deterministic*,
    JSON-serializable scalars for the aggregated record — never wall-clock
    values, which would break the byte-identical aggregation guarantee.
    """

    scenario: object
    verify: Optional[Callable[[], None]] = None
    extras: Optional[Callable[[], Dict[str, object]]] = None


@dataclass(frozen=True)
class WorkloadEntry:
    """Registry entry: how to build a workload and what it supports."""

    key: str
    builder: Callable  # (Simulator, ScenarioSpec) -> BuiltScenario
    pairable: bool = True
    description: str = ""
    #: Names accepted in ``ScenarioSpec.params`` for this workload; a spec
    #: carrying any other key is rejected instead of silently running the
    #: default scenario under a typoed sweep parameter.
    param_keys: Tuple[str, ...] = ()


_REGISTRY: Dict[str, WorkloadEntry] = {}


def register_workload(
    key: str,
    *,
    pairable: bool = True,
    description: str = "",
    param_keys: Tuple[str, ...] = (),
):
    """Decorator registering a builder under ``key`` (last wins)."""

    def decorate(builder: Callable) -> Callable:
        _REGISTRY[key] = WorkloadEntry(
            key=key,
            builder=builder,
            pairable=pairable,
            description=description,
            param_keys=tuple(param_keys),
        )
        return builder

    return decorate


def workload_entry(key: str) -> WorkloadEntry:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown workload {key!r}; registered: "
            f"{', '.join(registered_workloads())}"
        ) from None


def registered_workloads() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def spec_is_pairable(spec: ScenarioSpec) -> bool:
    """True when the spec can run the paired reference/Smart trace diff."""
    if spec.timing is not None:
        return False
    return workload_entry(spec.workload).pairable


def describe_specs(specs: List[ScenarioSpec]) -> List[Dict[str, object]]:
    """Identification rows plus pairability, for ``campaign --list``."""
    rows = []
    for spec in specs:
        row = spec.identity_row()
        row["pairable"] = spec_is_pairable(spec)
        row["params"] = (
            " ".join(f"{k}={spec.params[k]}" for k in sorted(spec.params)) or "-"
        )
        rows.append(row)
    return rows
