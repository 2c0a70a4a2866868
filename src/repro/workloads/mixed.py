"""Mixed smart/regular FIFO topology.

Real platforms are never uniformly decoupled: the case-study SoC couples
temporally decoupled accelerators (Smart FIFOs) to a non-decoupled NoC
(regular FIFOs) inside one simulation.  This workload distils that mix to
its smallest interesting shape — one pipeline crossing the domain
boundary::

    FrontProducer ──front fifo──> Bridge ──RegularFifo──> BackConsumer
      (decoupled)    (Smart)    (decoupled)  (regular)    (non-decoupled,
                                                           both modes)

* In ``smart`` mode the front half is temporally decoupled over a
  :class:`~repro.fifo.smart_fifo.SmartFifo` and the bridge **synchronizes**
  (``sync()``) before every write into the regular domain — the canonical
  way to hand data from a decoupled producer to non-decoupled logic without
  changing any date (after ``sync()`` the local and global dates coincide).
* In ``reference`` mode the front half runs non-decoupled over a
  :class:`~repro.fifo.regular_fifo.RegularFifo` (timing annotations are
  plain waits, so the process is always synchronized and the same bridge
  code performs a no-op ``sync``).

The back half — a regular FIFO drained by a ``TIMED_WAIT`` consumer — is
built identically in both modes.  Dates are therefore bit-identical across
modes and the locally-timestamped traces diff empty after reordering,
making the spec pairable while genuinely scheduling decoupled and
non-decoupled processes around both FIFO kinds in the same simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..fifo.interfaces import FifoInterface
from ..fifo.regular_fifo import RegularFifo
from ..fifo.smart_fifo import SmartFifo
from ..kernel.simtime import TimeUnit
from ..kernel.simulator import Simulator
from .base import TimingMode, WorkloadModule


@dataclass
class MixedTopologyConfig:
    """Parameters of one mixed-topology scenario (timing in integer ns)."""

    seed: int = 1
    item_count: int = 30
    fifo_depth: int = 4
    #: Depth of the regular FIFO of the non-decoupled back half.
    back_depth: int = 2
    max_producer_gap_ns: int = 16
    max_bridge_gap_ns: int = 7
    max_consumer_gap_ns: int = 12

    def __post_init__(self) -> None:
        for name in ("item_count", "fifo_depth", "back_depth",
                     "max_producer_gap_ns", "max_bridge_gap_ns",
                     "max_consumer_gap_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"MixedTopologyConfig.{name} must be positive, "
                    f"got {getattr(self, name)}"
                )

    def values(self) -> List[int]:
        rng = random.Random(self.seed * 423307)
        return [rng.randrange(0, 1 << 16) for _ in range(self.item_count)]


class FrontProducer(WorkloadModule):
    """Feeds the decoupled (or reference) front half of the pipeline."""

    def __init__(self, parent, name, fifo, config: MixedTopologyConfig,
                 timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing, burst)
        self.fifo = fifo
        self.config = config
        self.create_thread(self.run)

    def run(self):
        cfg = self.config
        # One rng draw per word, drawn upfront in word order.
        rng = random.Random(cfg.seed * 54013 + 1)
        values = cfg.values()
        gaps = [rng.randint(1, cfg.max_producer_gap_ns) for _ in values]
        yield from self.burst_write(
            self.fifo,
            values,
            gaps,
            message_fn=lambda index, _word: f"fed {index}",
        )
        self.mark_finished()


class DomainBridge(WorkloadModule):
    """Crosses from the (possibly decoupled) front into the regular domain.

    The bridge reads the front FIFO, spends a seeded processing delay, then
    ``sync()``-s and forwards into the regular FIFO: a regular FIFO carries
    no per-item dates, so the handoff must happen at the global date —
    synchronizing first guarantees the decoupled and the reference build
    write at exactly the same dates.
    """

    def __init__(self, parent, name, fifo_in, fifo_out, config, timing):
        super().__init__(parent, name, timing)
        self.fifo_in = fifo_in
        self.fifo_out = fifo_out
        self.config = config
        self.rng = random.Random(config.seed * 28001 + 2)
        self.create_thread(self.run)

    def run(self):
        for index in range(self.config.item_count):
            value = yield from self.fifo_in.read()
            self.items_processed += 1
            yield from self.advance(
                self.rng.randint(1, self.config.max_bridge_gap_ns)
            )
            yield from self.sync()
            yield from self.fifo_out.write(value)
            self.checkpoint(f"bridged {index}")
        self.mark_finished()


class BackConsumer(WorkloadModule):
    """Non-decoupled consumer of the regular back half (both modes)."""

    def __init__(self, parent, name, fifo, config: MixedTopologyConfig):
        super().__init__(parent, name, TimingMode.TIMED_WAIT)
        self.fifo = fifo
        self.config = config
        self.rng = random.Random(config.seed * 69061 + 3)
        self.values: List[int] = []
        self.create_thread(self.run)

    def run(self):
        for index in range(self.config.item_count):
            value = yield from self.fifo.read()
            self.values.append(value)
            self.items_processed += 1
            self.checkpoint(f"delivered {index} (value {value})")
            yield from self.advance(
                self.rng.randint(1, self.config.max_consumer_gap_ns)
            )
        self.mark_finished()


class MixedTopologyScenario:
    """Decoupled front half, regular back half, one domain boundary."""

    def __init__(self, sim: Simulator, decoupled: bool,
                 config: MixedTopologyConfig = None, burst: bool = False):
        self.sim = sim
        self.config = config or MixedTopologyConfig()
        self.decoupled = decoupled
        cfg = self.config
        if decoupled:
            self.front_fifo: FifoInterface = SmartFifo(
                sim, "front", depth=cfg.fifo_depth
            )
            timing = TimingMode.DECOUPLED
        else:
            self.front_fifo = RegularFifo(sim, "front", depth=cfg.fifo_depth)
            timing = TimingMode.TIMED_WAIT
        #: The regular back half is identical in both modes.
        self.back_fifo = RegularFifo(sim, "back", depth=cfg.back_depth)
        # Only the front producer can burst: the bridge syncs per item at
        # the domain boundary and the back half is a regular FIFO.
        self.producer = FrontProducer(
            sim, "producer", self.front_fifo, cfg, timing, burst=burst
        )
        self.bridge = DomainBridge(
            sim, "bridge", self.front_fifo, self.back_fifo, cfg, timing
        )
        self.consumer = BackConsumer(sim, "consumer", self.back_fifo, cfg)

    def run(self) -> None:
        self.sim.run()

    # ------------------------------------------------------------------
    def verify(self) -> None:
        cfg = self.config
        assert self.consumer.values == cfg.values(), (
            "the mixed pipeline reordered or corrupted the stream"
        )
        assert self.producer.items_processed == cfg.item_count
        assert self.bridge.items_processed == cfg.item_count

    def checksum(self) -> int:
        return sum(self.consumer.values)

    def completion_ns(self) -> float:
        finish = self.consumer.finish_time
        return finish.to(TimeUnit.NS) if finish is not None else -1.0
