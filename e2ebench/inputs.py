"""Seeded input generator of the end-to-end benchmark.

Every input the program receives is built here from the ``--seed``
argument alone: the same seed yields the same ``ScenarioSpec`` lists,
sweep grids and CLI spec order, a different seed yields different ones.
Where sizes are drawn, they come from narrow ranges around fixed bases,
so that two seeds cost about the same host time and throughput stays
comparable across seeds while the simulated schedules differ.

Documented config constraints are respected where the configs reject
inputs (``packet_size <= fifo_depth`` raises ``ValueError``; the SoC needs
``items_per_chain`` to be a multiple of ``packet_size``).  One constraint
the configs do *not* enforce is kept visible on purpose: ``packet_stream``
loses packets when ``fifo_depth`` is not a multiple of ``packet_size``.
The depth sweep's dense grid includes those depths, so that group fails
and its points are counted as failed; the paired campaign draws
``packet_stream`` depths as multiples of ``packet_size``, because one
failing spec aborts a whole ``CampaignRunner.run``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.campaign import MODE_SMART, ScenarioSpec, default_campaign, sweep_point_specs

#: The eleven registry workloads, in campaign order.
WORKLOADS = (
    "writer_reader", "streaming", "video", "random_traffic", "bursty",
    "contention", "fault_drop", "noc_stress", "packet_stream", "mixed", "soc",
)

#: Workloads with a packet-granularity constraint on the FIFO depth.
_PACKET_WORKLOADS = ("noc_stress", "packet_stream", "soc")

#: Base size parameters of the paired campaign: each simulation takes tens
#: of milliseconds on a 2-core x86 container, so simulation dominates the
#: fixed costs of the runner.
PAIRED_BASE: Dict[str, Dict[str, int]] = {
    "writer_reader": {"values": 1200},
    "streaming": {"n_blocks": 60, "words_per_block": 50},
    "video": {"n_frames": 16, "macroblocks_per_frame": 48},
    "random_traffic": {"item_count": 1500},
    "bursty": {"n_bursts": 300},
    "contention": {"items_per_writer": 600},
    "fault_drop": {"item_count": 1200},
    "noc_stress": {"packets_per_stream": 100},
    "packet_stream": {"n_packets": 500},
    "mixed": {"item_count": 900},
    "soc": {"n_chains": 2, "items_per_chain": 384},
}

#: Sizes of the depth-sweep anchors, the same for every seed (see
#: :func:`depth_sweep_groups`).
SWEEP_BASE: Dict[str, Dict[str, int]] = {
    "writer_reader": {"values": 1500},
    "streaming": {"n_blocks": 40, "words_per_block": 40},
    "video": {"n_frames": 8, "macroblocks_per_frame": 32},
    "random_traffic": {"item_count": 600},
    "bursty": {"n_bursts": 80},
    "contention": {"items_per_writer": 150},
    "fault_drop": {"item_count": 600},
    "noc_stress": {"packets_per_stream": 40},
    "packet_stream": {"n_packets": 200},
    "mixed": {"item_count": 400},
    "soc": {"n_chains": 2, "items_per_chain": 256},
}

#: Keys never scaled by the seed (structural, not a size).
_FIXED_KEYS = ("n_chains", "words_per_block")

#: FIFO depths the paired campaign draws from.
PAIRED_DEPTHS = (2, 3, 4, 6, 8, 12, 16)
#: Specs per workload in the paired campaign (22 specs, 40 runner jobs).
PAIRED_SPECS_PER_WORKLOAD = 2

#: The dense depth axis of the sweep: every depth up to 16, then a
#: geometric-ish tail to the paper's 1024 (40 points).
DENSE_DEPTHS: Tuple[int, ...] = tuple(sorted(set(
    list(range(1, 17))
    + [20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128,
       160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024]
)))
#: Quantum axis of the ``timing="quantum"`` streaming anchor, in ns.
QUANTA_NS: Tuple[int, ...] = (
    50, 100, 200, 300, 500, 750, 1000, 1500, 2000, 3000, 5000, 10000,
)
#: Depth of every sweep anchor (a multiple of every packet size below).
SWEEP_ANCHOR_DEPTH = 8
#: Quantum of the ``timing="quantum"`` anchor, in ns.
SWEEP_ANCHOR_QUANTUM_NS = 1000
#: Packet sizes of the sweep anchors.  ``packet_stream`` at 4 fails at
#: depths 5-7, 9-11, 13-15, ... (the known depth defect).
SWEEP_PACKET_SIZE = {"noc_stress": 2, "packet_stream": 4, "soc": 4}


def _scaled(rng: random.Random, base: Dict[str, int]) -> Dict[str, int]:
    """``base`` with every size key scaled by a factor in [0.85, 1.15]."""
    params = {}
    for key, value in base.items():
        if key in _FIXED_KEYS:
            params[key] = value
        else:
            params[key] = max(1, round(value * rng.uniform(0.85, 1.15)))
    return params


def _packet_size(rng: random.Random, workload: str) -> int:
    return 4 if workload == "soc" else rng.choice((2, 4))


def _apply_packet(workload: str, params: Dict[str, int], packet_size: int) -> None:
    params["packet_size"] = packet_size
    if workload == "soc":
        # SocConfig.validate: items_per_chain % packet_size == 0.
        params["items_per_chain"] -= params["items_per_chain"] % packet_size


def paired_campaign_specs(seed: int) -> List[ScenarioSpec]:
    """The seeded paired campaign: two specs per registry workload.

    Depth, workload seed and size are drawn from ``seed``.  Every spec
    runs with burst transfers on, in the default ``smart`` mode; the
    runner pairs each pairable spec with its reference twin.
    """
    rng = random.Random(seed)
    specs = []
    for workload in WORKLOADS:
        for index in range(PAIRED_SPECS_PER_WORKLOAD):
            params = _scaled(rng, PAIRED_BASE[workload])
            depth = rng.choice(PAIRED_DEPTHS)
            if workload in _PACKET_WORKLOADS:
                packet_size = _packet_size(rng, workload)
                _apply_packet(workload, params, packet_size)
                if workload == "packet_stream":
                    # A multiple of packet_size: the depth defect stays out
                    # of the paired campaign (it would abort the run).
                    depth = packet_size * rng.choice((1, 2, 3, 4))
                else:
                    depth = max(depth, packet_size)
            specs.append(ScenarioSpec(
                name=f"{workload}_{index}",
                workload=workload,
                mode=MODE_SMART,
                depth=depth,
                seed=rng.randrange(1, 1_000_000),
                params=params,
                burst=True,
            ))
    return specs


def accepted_depths(params: Dict[str, int]) -> List[int]:
    """The dense depths a workload config with these params accepts."""
    floor = params.get("packet_size", 1)
    return [depth for depth in DENSE_DEPTHS if depth >= floor]


@dataclass
class SweepGroup:
    """One anchor and its grid: the unit of one ``CampaignRunner.run``."""

    anchor: ScenarioSpec
    specs: List[ScenarioSpec]  # anchor first, then the sweep points


def depth_sweep_groups(seed: int) -> List[SweepGroup]:
    """One anchor per workload family plus a quantum streaming anchor.

    Each anchor is expanded with ``sweep_point_specs`` over every dense
    depth its config accepts; the quantum anchor also gets the quantum
    axis.  The seed draws the workload seed of every anchor — its traffic,
    delays and fault position.  Sizes, anchor depths and packet sizes are
    fixed, because the routing mix (which groups replay, which fall back
    to simulation) is what this workload measures, and drawing them would
    make one seed's sweep several times the cost of another's.
    """
    rng = random.Random(seed)
    anchors = []
    for workload in WORKLOADS:
        params = dict(SWEEP_BASE[workload])
        if workload in _PACKET_WORKLOADS:
            _apply_packet(workload, params, SWEEP_PACKET_SIZE[workload])
        anchors.append(ScenarioSpec(
            name=f"{workload}_sweep",
            workload=workload,
            mode=MODE_SMART,
            depth=SWEEP_ANCHOR_DEPTH,
            seed=rng.randrange(1, 1_000_000),
            params=params,
            burst=True,
        ))
    quantum = ScenarioSpec(
        name="streaming_quantum_sweep",
        workload="streaming",
        mode=MODE_SMART,
        depth=SWEEP_ANCHOR_DEPTH,
        seed=rng.randrange(1, 1_000_000),
        timing="quantum",
        quantum_ns=SWEEP_ANCHOR_QUANTUM_NS,
        params=dict(SWEEP_BASE["streaming"]),
        burst=True,
    )
    groups = [
        SweepGroup(anchor, [anchor] + sweep_point_specs(
            anchor, depths=accepted_depths(anchor.params)
        ))
        for anchor in anchors
    ]
    groups.append(SweepGroup(quantum, [quantum] + sweep_point_specs(
        quantum, depths=DENSE_DEPTHS, quanta_ns=QUANTA_NS
    )))
    return groups


def cli_spec_order(seed: int) -> List[str]:
    """The default campaign's spec names in a seeded order.

    The CLI round trip always runs the whole default campaign; the seed
    permutes the ``--specs`` order, which changes the round-robin shard
    membership while the merged fingerprint must stay the same.
    """
    names = [spec.name for spec in default_campaign()]
    random.Random(seed).shuffle(names)
    return names
