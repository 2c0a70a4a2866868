"""Bursty producer/consumer traffic.

Stream-processing hardware rarely produces data at a constant rate: a DMA
engine or a bitstream refill produces a *burst* of back-to-back words, then
stays idle while the next buffer is fetched.  This workload models that
pattern around a single FIFO — a producer emitting seeded random bursts
separated by long seeded idle gaps, and a consumer draining at a steady
per-item rate — and exists in the two modes of the paper's validation
methodology (Section IV-A): regular FIFO without temporal decoupling, and
Smart FIFO with temporal decoupling.  Burst sizes and gaps are derived from
the seed only, so the reference and decoupled runs replay exactly the same
traffic and their locally-timestamped traces must be identical after
reordering.

The burst shape stresses the Smart FIFO differently from
:mod:`repro.workloads.random_traffic`: the FIFO swings between full (during
a burst, the producer runs far ahead) and empty (during a refill, the
consumer catches up and blocks), so both back-pressure paths are exercised
within one run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..fifo.interfaces import FifoInterface
from ..fifo.regular_fifo import RegularFifo
from ..fifo.smart_fifo import SmartFifo
from ..kernel.simulator import Simulator
from .base import TimingMode, WorkloadModule


@dataclass
class BurstyConfig:
    """Parameters of one bursty scenario (all timing in integer ns)."""

    seed: int = 1
    n_bursts: int = 8
    max_burst: int = 10
    fifo_depth: int = 4
    word_time_ns: int = 5
    min_idle_ns: int = 40
    max_idle_ns: int = 200
    consumer_time_ns: int = 12
    #: Host-CPU busy-wait (milliseconds of *wall clock*) the producer burns
    #: per burst.  Simulated time, traces and extras are untouched, so a
    #: slow-spin spec produces rows byte-identical to its spin-free twin —
    #: the knob exists to make a spec deterministically exceed a wall-clock
    #: budget (``--spec-timeout``) in tests and demos.
    slow_spin_ms: int = 0

    def __post_init__(self) -> None:
        for name in ("n_bursts", "max_burst", "fifo_depth"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"BurstyConfig.{name} must be positive, "
                    f"got {getattr(self, name)}"
                )
        if not 0 <= self.min_idle_ns <= self.max_idle_ns:
            raise ValueError(
                f"BurstyConfig idle range invalid: "
                f"[{self.min_idle_ns}, {self.max_idle_ns}]"
            )
        if self.slow_spin_ms < 0:
            raise ValueError(
                f"BurstyConfig.slow_spin_ms must be >= 0, "
                f"got {self.slow_spin_ms}"
            )

    def burst_sizes(self) -> List[int]:
        """Seeded burst sizes; producer and consumer agree on the total."""
        rng = random.Random(self.seed * 6151 + 3)
        return [rng.randint(1, self.max_burst) for _ in range(self.n_bursts)]

    @property
    def total_items(self) -> int:
        return sum(self.burst_sizes())


class BurstyProducer(WorkloadModule):
    """Writes seeded bursts of consecutive values with long idle gaps."""

    def __init__(self, parent, name, fifo, config: BurstyConfig, timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing, burst)
        self.fifo = fifo
        self.config = config
        self.rng = random.Random(config.seed * 9973 + 7)
        self.create_thread(self.run)

    def run(self):
        cfg = self.config
        value = 0
        for burst in cfg.burst_sizes():
            if cfg.slow_spin_ms:
                _spin_wall_clock(cfg.slow_spin_ms)
            words = list(range(value, value + burst))
            value += burst
            yield from self.burst_write(
                self.fifo,
                words,
                cfg.word_time_ns,
                message_fn=lambda _index, word: f"burst wr {word}",
            )
            idle = self.rng.randint(cfg.min_idle_ns, cfg.max_idle_ns)
            yield from self.advance(idle)
        self.mark_finished()
        self.checkpoint("producer done")


def _spin_wall_clock(milliseconds: int) -> None:
    """Busy-wait on the host CPU without touching simulated time.

    A busy loop rather than ``time.sleep`` so the spin models a
    *computing* (unpreemptable) slow spec, the case a ``--spec-timeout``
    kill exists for.
    """
    deadline = time.perf_counter() + milliseconds / 1000.0
    while time.perf_counter() < deadline:
        pass


class BurstyConsumer(WorkloadModule):
    """Drains the FIFO at a steady per-item rate, checking the order."""

    def __init__(self, parent, name, fifo, config: BurstyConfig, timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing, burst)
        self.fifo = fifo
        self.config = config
        self.values: List[int] = []
        self.create_thread(self.run)

    def run(self):
        cfg = self.config
        words = yield from self.burst_read(
            self.fifo,
            cfg.total_items,
            cfg.consumer_time_ns,
            message_fn=lambda _index, word: f"burst rd {word}",
        )
        self.values.extend(words)
        self.mark_finished()
        self.checkpoint("consumer done")


class BurstyScenario:
    """One bursty producer and one steady consumer around a single FIFO."""

    def __init__(
        self,
        sim: Simulator,
        decoupled: bool,
        config: Optional[BurstyConfig] = None,
        burst: bool = False,
    ):
        self.sim = sim
        self.config = config or BurstyConfig()
        self.decoupled = decoupled
        if decoupled:
            self.fifo: FifoInterface = SmartFifo(
                sim, "fifo", depth=self.config.fifo_depth
            )
            timing = TimingMode.DECOUPLED
        else:
            self.fifo = RegularFifo(sim, "fifo", depth=self.config.fifo_depth)
            timing = TimingMode.TIMED_WAIT
        self.producer = BurstyProducer(sim, "producer", self.fifo, self.config, timing, burst=burst)
        self.consumer = BurstyConsumer(sim, "consumer", self.fifo, self.config, timing, burst=burst)

    def run(self) -> None:
        self.sim.run()

    @property
    def consumed_values(self) -> Sequence[int]:
        return tuple(self.consumer.values)

    def verify(self) -> None:
        """Every produced value arrived, in order."""
        expected = list(range(self.config.total_items))
        assert list(self.consumer.values) == expected, (
            len(self.consumer.values),
            self.config.total_items,
        )


def run_bursty_pair(config: Optional[BurstyConfig] = None):
    """Run the reference and decoupled scenario with the same seed.

    Returns ``(reference_sim, decoupled_sim, reference_scn, decoupled_scn)``
    like :func:`repro.workloads.random_traffic.run_pair`.
    """
    config = config or BurstyConfig()
    ref_sim = Simulator("reference")
    ref = BurstyScenario(ref_sim, decoupled=False, config=config)
    ref.run()
    dec_sim = Simulator("decoupled")
    dec = BurstyScenario(dec_sim, decoupled=True, config=config)
    dec.run()
    return ref_sim, dec_sim, ref, dec
