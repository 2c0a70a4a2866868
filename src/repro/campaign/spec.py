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
    Key into the static workload registry (see :class:`WorkloadEntry`); one
    of :func:`registered_workloads`, e.g. ``"streaming"``, ``"video"``,
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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..kernel.simulator import Simulator

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
    """Registry entry: what a workload supports.

    Pure data, so listing, validating and partitioning specs never imports
    a workload; the builders live in :mod:`repro.campaign.scenarios` and
    load on the first :func:`build_scenario`.
    """

    key: str
    pairable: bool = True
    description: str = ""
    #: Names accepted in ``ScenarioSpec.params`` for this workload; a spec
    #: carrying any other key is rejected instead of silently running the
    #: default scenario under a typoed sweep parameter.  For a workload
    #: built from a config dataclass: every field but ``seed`` and
    #: ``fifo_depth``, which the spec itself carries.
    param_keys: Tuple[str, ...] = ()


_REGISTRY: Dict[str, WorkloadEntry] = {
    entry.key: entry
    for entry in (
        WorkloadEntry(
            "writer_reader",
            description="Fig. 1/2/3 didactic writer/reader example",
            param_keys=("values",),
        ),
        WorkloadEntry(
            "streaming",
            description="Fig. 5 source -> transmitter -> sink pipeline",
            param_keys=("n_blocks", "words_per_block"),
        ),
        WorkloadEntry(
            "video",
            description="video-decoder-like accelerator chain",
            param_keys=("n_frames", "macroblocks_per_frame"),
        ),
        WorkloadEntry(
            "random_traffic",
            description="seeded random producer/consumer + monitor",
            param_keys=(
                "item_count", "max_producer_delay_ns", "max_consumer_delay_ns",
                "monitor_samples", "monitor_period_ns",
            ),
        ),
        WorkloadEntry(
            "bursty",
            description="seeded bursty producer, steady consumer",
            param_keys=(
                "n_bursts", "max_burst", "word_time_ns", "min_idle_ns",
                "max_idle_ns", "consumer_time_ns", "slow_spin_ms",
            ),
        ),
        WorkloadEntry(
            "contention",
            pairable=False,
            description="multi-writer/multi-reader Smart FIFO arbiter contention",
            param_keys=(
                "n_writers", "n_readers", "items_per_writer", "access_time_ns",
                "max_writer_gap_ns", "max_reader_gap_ns",
            ),
        ),
        WorkloadEntry(
            "fault_drop",
            description="seeded dropped-packet fault the paired diff must flag",
            param_keys=("item_count", "producer_period_ns", "consumer_period_ns"),
        ),
        WorkloadEntry(
            "noc_stress",
            description="NoC-only router stress: mesh cross-traffic, arbitration oracle",
            param_keys=(
                "mesh_width", "mesh_height", "packets_per_stream", "packet_size",
                "noc_cycle_ns", "max_producer_gap_ns", "max_consumer_gap_ns",
            ),
        ),
        WorkloadEntry(
            "packet_stream",
            description="packet-granularity Smart FIFO API vs a word-level oracle",
            param_keys=(
                "n_packets", "packet_size", "max_producer_gap_ns",
                "max_consumer_gap_ns",
            ),
        ),
        WorkloadEntry(
            "mixed",
            description="mixed smart/regular topology with one domain boundary",
            param_keys=(
                "item_count", "back_depth", "max_producer_gap_ns",
                "max_bridge_gap_ns", "max_consumer_gap_ns",
            ),
        ),
        WorkloadEntry(
            "soc",
            pairable=False,
            description="Section IV-C heterogeneous many-core SoC case study",
            param_keys=(
                "n_chains", "workers_per_chain", "items_per_chain", "packet_size",
            ),
        ),
    )
}


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


def workload_builder(key: str) -> Callable:
    """The builder of workload ``key``: ``build_<key>`` in
    :mod:`repro.campaign.scenarios`.

    The first call imports that module and with it every workload module
    (kernel, FIFOs, SoC, TLM).
    """
    from . import scenarios

    return getattr(scenarios, f"build_{key}")


def build_scenario(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    """Validate ``spec`` (including its params keys) and build it in ``sim``."""
    spec.validate()
    entry = workload_entry(spec.workload)
    unknown = sorted(set(spec.params) - set(entry.param_keys))
    if unknown:
        raise ValueError(
            f"spec {spec.name}: unknown param(s) {', '.join(unknown)} for "
            f"workload {spec.workload!r}; accepted: "
            f"{', '.join(entry.param_keys) or '(none)'}"
        )
    return workload_builder(spec.workload)(sim, spec)


# ---------------------------------------------------------------------------
# The default campaign
# ---------------------------------------------------------------------------
def default_campaign(burst: bool = True) -> List[ScenarioSpec]:
    """The stock sweep: every registered workload, several depths/seeds.

    ``burst=True`` (the default) lets the workload helpers move Smart FIFO
    payloads as spans — bit-exact with the word-by-word schedule, so
    fingerprints are unchanged; ``burst=False`` (CLI: ``--no-burst``) makes
    the same helpers run their word loop, the oracle the span path is
    checked against.

    19 specs; the 15 pairable ones double as the Section IV-A equivalence
    battery (reference vs Smart trace diff) — including the NoC router
    stress, the packet-granularity FIFO stream and the mixed smart/regular
    topology, which cover the case-study half of the paper.  The four
    non-pairable ones carry their own oracles: the contention specs are
    checked by the arbiter invariants, the quantum spec by its completion
    bookkeeping, and the SoC spec by ``SocPlatform.verify`` (its
    cross-policy timing equivalence is asserted by the integration suite
    and the case-study benchmark, which compare finish dates rather than
    traces).
    """
    specs = [
        ScenarioSpec("writer_reader_d1", "writer_reader", depth=1),
        ScenarioSpec("writer_reader_d4", "writer_reader", depth=4,
                     params={"values": 6}),
        ScenarioSpec("streaming_d2", "streaming", depth=2,
                     params={"n_blocks": 6, "words_per_block": 25}),
        ScenarioSpec("streaming_d8", "streaming", depth=8,
                     params={"n_blocks": 6, "words_per_block": 25}),
        ScenarioSpec("streaming_quantum_d8", "streaming", depth=8,
                     timing="quantum", quantum_ns=1000,
                     params={"n_blocks": 6, "words_per_block": 25}),
        ScenarioSpec("video_d2", "video", depth=2,
                     params={"n_frames": 2, "macroblocks_per_frame": 12}),
        ScenarioSpec("video_d8", "video", depth=8,
                     params={"n_frames": 3, "macroblocks_per_frame": 16}),
        ScenarioSpec("random_s7_d3", "random_traffic", depth=3, seed=7),
        ScenarioSpec("random_s11_d1", "random_traffic", depth=1, seed=11),
        ScenarioSpec("bursty_s3_d4", "bursty", depth=4, seed=3),
        ScenarioSpec("bursty_s5_d2", "bursty", depth=2, seed=5),
        ScenarioSpec("contention_3w3r", "contention", depth=8, seed=5),
        ScenarioSpec("contention_4w3r", "contention", depth=6, seed=9,
                     params={"n_writers": 4, "items_per_writer": 15}),
        ScenarioSpec("noc_stress_2x2", "noc_stress", depth=4, seed=5,
                     params={"packets_per_stream": 4}),
        ScenarioSpec("noc_stress_3x2", "noc_stress", depth=4, seed=11,
                     params={"mesh_width": 3, "packets_per_stream": 4}),
        ScenarioSpec("packet_stream_p2", "packet_stream", depth=4, seed=7),
        ScenarioSpec("packet_stream_p4", "packet_stream", depth=4, seed=13,
                     params={"packet_size": 4, "n_packets": 8}),
        ScenarioSpec("mixed_d3", "mixed", depth=3, seed=6,
                     params={"item_count": 24}),
        ScenarioSpec("soc_2x64", "soc", depth=8,
                     params={"n_chains": 2, "items_per_chain": 64}),
    ]
    if burst:
        specs = [
            replace(spec, burst=True, params=dict(spec.params))
            for spec in specs
        ]
    return specs
