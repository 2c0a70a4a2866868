"""Seeded fault-injection workload: a dropped packet the pair diff must catch.

Every other pairable workload demonstrates *equivalence* — the Smart FIFO
run reproduces the reference traces exactly.  This one demonstrates the
other half of the Section IV-A methodology: that the reorder-and-compare
check actually **detects** a behavioural divergence when one exists.  A
faulty relay sits between producer and consumer; in the decoupled (smart)
run it silently drops one value — which one is derived from the seed — so
the consumer trace loses a line and shifts the dates of every later one.
The paired campaign must therefore report the pair as *not* equivalent,
with the dropped value visible in the full line-level diff, and the
consumed-checksum extras must disagree as well.

The per-run oracle (:meth:`FaultDropScenario.verify`) deliberately passes
in both modes — each run is internally consistent — because the fault is
only observable *across* the pair, exactly like a real model bug that
temporal decoupling would introduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..fifo.interfaces import FifoInterface
from ..fifo.regular_fifo import RegularFifo
from ..fifo.smart_fifo import SmartFifo
from ..kernel.simulator import Simulator
from .base import TimingMode, WorkloadModule


@dataclass
class FaultDropConfig:
    """Parameters of the fault-injection scenario."""

    seed: int = 1
    item_count: int = 24
    fifo_depth: int = 4
    producer_period_ns: int = 10
    consumer_period_ns: int = 15

    @property
    def dropped_index(self) -> int:
        """Index of the value the faulty relay swallows (seed-derived)."""
        return random.Random(self.seed * 6151 + 3).randrange(self.item_count)


class FaultProducer(WorkloadModule):
    """Writes ``item_count`` sequential values at a fixed cadence."""

    def __init__(self, parent, name, fifo, config: FaultDropConfig, timing: TimingMode,
                 burst: bool = False):
        super().__init__(parent, name, timing, burst)
        self.fifo = fifo
        self.config = config
        self.create_thread(self.run)

    def run(self):
        cfg = self.config
        yield from self.burst_write(
            self.fifo,
            list(range(cfg.item_count)),
            cfg.producer_period_ns,
            message_fn=lambda index, _word: f"sent {index}",
        )
        self.mark_finished()
        self.checkpoint("producer done")


class FaultyRelay(WorkloadModule):
    """Forwards values downstream; drops one when the fault is armed.

    The relay is trace-silent (it adds no lines of its own), so the only
    observable difference between the healthy and the faulty run is the
    consumer behaviour — the shape of a genuine model bug.
    """

    def __init__(
        self,
        parent,
        name,
        fifo_in,
        fifo_out,
        config: FaultDropConfig,
        timing: TimingMode,
        faulty: bool,
    ):
        super().__init__(parent, name, timing)
        self.fifo_in = fifo_in
        self.fifo_out = fifo_out
        self.config = config
        self.faulty = faulty
        self.dropped_value: Optional[int] = None
        self.create_thread(self.run)

    def run(self):
        drop_at = self.config.dropped_index if self.faulty else -1
        for index in range(self.config.item_count):
            value = yield from self.fifo_in.read()
            if index == drop_at:
                self.dropped_value = value
                continue
            yield from self.fifo_out.write(value)
        self.mark_finished()


class FaultConsumer(WorkloadModule):
    """Reads the forwarded values and checkpoints every one."""

    def __init__(self, parent, name, fifo, expected: int, config: FaultDropConfig, timing: TimingMode,
                 burst: bool = False):
        super().__init__(parent, name, timing, burst)
        self.fifo = fifo
        self.expected = expected
        self.config = config
        self.values: List[int] = []
        self.create_thread(self.run)

    def run(self):
        words = yield from self.burst_read(
            self.fifo,
            self.expected,
            self.config.consumer_period_ns,
            message_fn=lambda _index, word: f"received {word}",
        )
        self.values.extend(words)
        self.mark_finished()
        self.checkpoint("consumer done")


class FaultDropScenario:
    """Producer -> (faulty in smart mode) relay -> consumer."""

    def __init__(
        self,
        sim: Simulator,
        decoupled: bool,
        config: Optional[FaultDropConfig] = None,
        burst: bool = False,
    ):
        self.sim = sim
        self.config = config or FaultDropConfig()
        self.decoupled = decoupled
        depth = self.config.fifo_depth
        if decoupled:
            self.fifo_in: FifoInterface = SmartFifo(sim, "fifo_in", depth=depth)
            self.fifo_out: FifoInterface = SmartFifo(sim, "fifo_out", depth=depth)
            timing = TimingMode.DECOUPLED
        else:
            self.fifo_in = RegularFifo(sim, "fifo_in", depth=depth)
            self.fifo_out = RegularFifo(sim, "fifo_out", depth=depth)
            timing = TimingMode.TIMED_WAIT
        expected = self.config.item_count - (1 if decoupled else 0)
        self.producer = FaultProducer(
            sim, "producer", self.fifo_in, self.config, timing, burst=burst
        )
        # The relay drops a value mid-stream, so it moves one word at a
        # time: bursts are for the uninterrupted endpoint transfers.
        self.relay = FaultyRelay(
            sim, "relay", self.fifo_in, self.fifo_out, self.config, timing,
            faulty=decoupled,
        )
        self.consumer = FaultConsumer(
            sim, "consumer", self.fifo_out, expected, self.config, timing,
            burst=burst,
        )

    def run(self) -> None:
        self.sim.run()

    def verify(self) -> None:
        """Per-run consistency only: the fault is a *cross-pair* observable.

        Each run delivers exactly what its relay forwarded, so this oracle
        passes in both modes; the paired trace diff (and the checksum
        extras) are what must flag the divergence.
        """
        expected = self.config.item_count - (1 if self.decoupled else 0)
        assert len(self.consumer.values) == expected, (
            f"consumer received {len(self.consumer.values)} of {expected} values"
        )
        if self.decoupled:
            assert self.relay.dropped_value is not None
            assert self.relay.dropped_value not in self.consumer.values

    def checksum(self) -> int:
        return sum(self.consumer.values)
