"""Workload builders of the campaign registry (see :mod:`repro.campaign.spec`).

Each builder turns a :class:`~repro.campaign.spec.ScenarioSpec` into a
ready-to-run scenario inside a caller-provided
:class:`~repro.kernel.simulator.Simulator`.  All builders honour the same
contract:

* ``mode="reference"`` builds the regular-FIFO, non-decoupled twin and
  ``mode="smart"`` the Smart-FIFO, temporally decoupled one;
* every randomized knob derives from ``spec.seed`` only;
* the ``extras`` hook returns *deterministic* JSON-serializable values
  (dates, checksums, counters — never wall-clock), because the campaign
  guarantees byte-identical aggregated results regardless of worker count.

Workload ``key`` is built by ``build_<key>``.  Each workload's accepted
``params`` keys are listed in the static registry of
:mod:`repro.campaign.spec`, which
:func:`~repro.campaign.spec.build_scenario` checks before calling a
builder.
"""

from __future__ import annotations

from ..kernel.simtime import TimeUnit
from ..kernel.simulator import Simulator
from ..soc.platform import FifoPolicy, SocConfig, SocPlatform
from ..td.quantum import GlobalQuantum
from ..workloads.bursty import BurstyConfig, BurstyScenario
from ..workloads.contention import ArbiterContentionScenario, ContentionConfig
from ..workloads.fault_drop import FaultDropConfig, FaultDropScenario
from ..workloads.mixed import MixedTopologyConfig, MixedTopologyScenario
from ..workloads.noc_stress import NocStressConfig, NocStressScenario
from ..workloads.packet_stream import PacketStreamConfig, PacketStreamScenario
from ..workloads.random_traffic import RandomTrafficConfig, RandomTrafficScenario
from ..workloads.streaming import (
    ExampleMode,
    PipelineModel,
    StreamingConfig,
    StreamingPipeline,
    WriterReaderExample,
)
from ..workloads.video import VideoConfig, VideoPipeline
from .spec import MODE_SMART, BuiltScenario, ScenarioSpec


def _ns(time) -> float:
    return time.to(TimeUnit.NS) if time is not None else -1.0


def _reject_timing_override(spec: ScenarioSpec) -> None:
    if spec.timing is not None:
        raise ValueError(
            f"spec {spec.name}: workload {spec.workload!r} does not support "
            f"the timing override {spec.timing!r}"
        )


def _config_from_spec(config_cls, spec: ScenarioSpec):
    """Build a seed/depth-carrying workload config from the spec params
    (which :func:`~repro.campaign.spec.build_scenario` has checked against
    the workload's ``param_keys``)."""
    fields = {key: int(value) for key, value in spec.params.items()}
    return config_cls(seed=spec.seed, fifo_depth=spec.depth, **fields)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def build_writer_reader(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    mode = ExampleMode.SMART if spec.mode == MODE_SMART else ExampleMode.REFERENCE
    count = int(spec.params.get("values", 3))
    example = WriterReaderExample(
        sim, mode=mode, fifo_depth=spec.depth, values=tuple(range(1, count + 1))
    )
    return BuiltScenario(
        scenario=example,
        extras=lambda: {
            "dates_ns": [list(row) for row in example.dates_ns()],
        },
    )


def build_streaming(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    config = StreamingConfig(
        n_blocks=int(spec.params.get("n_blocks", 10)),
        words_per_block=int(spec.params.get("words_per_block", 25)),
        fifo_depth=spec.depth,
    )
    if spec.timing == "untimed":
        model = PipelineModel.UNTIMED
    elif spec.timing == "quantum":
        GlobalQuantum.instance(sim).set(spec.quantum_ns, TimeUnit.NS)
        model = PipelineModel.QUANTUM
    elif spec.mode == MODE_SMART:
        model = PipelineModel.TDFULL
    else:
        model = PipelineModel.TDLESS
    pipeline = StreamingPipeline(sim, model, config, burst=spec.burst)
    return BuiltScenario(
        scenario=pipeline,
        verify=pipeline.verify,
        extras=lambda: {
            "completion_ns": _ns(pipeline.completion_time),
            "checksum": pipeline.checksum,
        },
    )


def build_video(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = VideoConfig(
        n_frames=int(spec.params.get("n_frames", 2)),
        macroblocks_per_frame=int(spec.params.get("macroblocks_per_frame", 12)),
        fifo_depth=spec.depth,
    )
    pipeline = VideoPipeline(
        sim, decoupled=spec.mode == MODE_SMART, config=config, burst=spec.burst
    )

    def verify() -> None:
        assert pipeline.display.items_processed == config.total_items

    return BuiltScenario(
        scenario=pipeline,
        verify=verify,
        extras=lambda: {
            "completion_ns": _ns(pipeline.completion_time),
            "frame_dates_ns": [_ns(date) for date in pipeline.frame_dates],
        },
    )


def build_random_traffic(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(RandomTrafficConfig, spec)
    scenario = RandomTrafficScenario(
        sim, decoupled=spec.mode == MODE_SMART, config=config, burst=spec.burst
    )

    def verify() -> None:
        assert len(scenario.consumed_values) == config.item_count

    return BuiltScenario(
        scenario=scenario,
        verify=verify,
        extras=lambda: {
            "consumed_checksum": sum(scenario.consumed_values),
            "monitor_samples": [
                [_ns(date), size] for date, size in scenario.monitor_samples
            ],
        },
    )


def build_bursty(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(BurstyConfig, spec)
    scenario = BurstyScenario(
        sim, decoupled=spec.mode == MODE_SMART, config=config, burst=spec.burst
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "total_items": config.total_items,
            "consumed_checksum": sum(scenario.consumed_values),
        },
    )


def build_contention(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    if spec.mode != MODE_SMART:
        raise ValueError(
            f"spec {spec.name}: the contention scenario has no reference twin "
            "(arbitration delays are a property of the decoupled schedule); "
            "its oracle is ArbiterContentionScenario.verify"
        )
    config = _config_from_spec(ContentionConfig, spec)
    scenario = ArbiterContentionScenario(sim, config, burst=spec.burst)

    def verify() -> None:
        scenario.verify()
        assert scenario.arbitration_happened

    return BuiltScenario(
        scenario=scenario,
        verify=verify,
        extras=lambda: {
            "write_arbitrated": scenario.write_arbiter.arbitrated_accesses,
            "read_arbitrated": scenario.read_arbiter.arbitrated_accesses,
            "last_write_grant_fs": scenario.write_arbiter.last_grant_fs,
            "last_read_grant_fs": scenario.read_arbiter.last_grant_fs,
        },
    )


def build_fault_drop(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    """Negative-path coverage for the Section IV-A methodology.

    Pairable on purpose: the smart run drops one seeded value, so a paired
    campaign containing a ``fault_drop`` spec must come back with
    ``equivalent=False`` for it (trace diff *and* checksum extras) — if it
    ever reports equivalence, the validation pipeline itself is broken.
    Not part of :func:`default_campaign` for exactly that reason.
    """
    _reject_timing_override(spec)
    config = _config_from_spec(FaultDropConfig, spec)
    scenario = FaultDropScenario(
        sim, decoupled=spec.mode == MODE_SMART, config=config,
        burst=spec.burst,
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "consumed_checksum": scenario.checksum(),
            "consumed_count": len(scenario.consumer.values),
        },
    )


def build_noc_stress(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(NocStressConfig, spec)
    scenario = NocStressScenario(
        sim, config, sync_on_access=spec.mode != MODE_SMART, burst=spec.burst
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "packets_routed": scenario.total_packets_routed,
            "router_packets": {
                f"{x}_{y}": router.packets_routed
                for (x, y), router in sorted(scenario.mesh.routers.items())
            },
            "checksums": scenario.checksums(),
            "finish_dates_ns": scenario.consumer_finish_dates_ns(),
        },
    )


def build_packet_stream(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(PacketStreamConfig, spec)
    scenario = PacketStreamScenario(
        sim, config, sync_on_access=spec.mode != MODE_SMART,
        burst=spec.burst,
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "checksum": scenario.checksum(),
            "packet_dates_ns": list(scenario.consumer.packet_dates_ns),
            "packets_relayed": scenario.relay.packets_relayed,
        },
    )


def build_mixed(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(MixedTopologyConfig, spec)
    scenario = MixedTopologyScenario(
        sim, decoupled=spec.mode == MODE_SMART, config=config,
        burst=spec.burst,
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "checksum": scenario.checksum(),
            "completion_ns": scenario.completion_ns(),
        },
    )


def build_soc(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = SocConfig(
        n_chains=int(spec.params.get("n_chains", 2)),
        workers_per_chain=int(spec.params.get("workers_per_chain", 2)),
        items_per_chain=int(spec.params.get("items_per_chain", 64)),
        packet_size=int(spec.params.get("packet_size", 4)),
        fifo_depth=spec.depth,
        monitor_repetitions=2,
        monitor_period_ns=1500,
    )
    config.validate()
    policy = FifoPolicy.SMART if spec.mode == MODE_SMART else FifoPolicy.SYNC_PER_ACCESS
    platform = SocPlatform(sim, policy=policy, config=config)
    return BuiltScenario(
        scenario=platform,
        verify=platform.verify,
        extras=lambda: {
            "consumer_finish_ns": {
                name: _ns(date)
                for name, date in sorted(platform.consumer_finish_times().items())
            },
            "noc_packets": platform.mesh.total_packets_routed,
            "fifo_blocking_waits": platform.fifo_blocking_waits(),
        },
    )

