"""Multi-writer / multi-reader arbiter contention scenario.

Section III of the paper: the Smart FIFO assumes each side is accessed by a
single process; when several processes share a side, an arbiter must keep
the per-side access dates monotonic.  This workload builds exactly that
design: ``n_writers`` decoupled writers funnel into one Smart FIFO through
a :class:`~repro.fifo.arbiter.WriteArbiter`, and ``n_readers`` decoupled
readers drain it through a :class:`~repro.fifo.arbiter.ReadArbiter`.

Because temporal decoupling runs each writer far ahead before the next one
gets scheduled, later writers arrive at the arbiter with *earlier* local
dates and must be delayed — so the scenario genuinely exercises the
arbitration path (``arbitrated_accesses > 0``), unlike the single-process
workloads.

The arbitration delays are a property of the decoupled schedule, so this
scenario has no regular-FIFO twin producing identical traces; its oracle is
:meth:`ArbiterContentionScenario.verify` — the same invariants checked by
``tests/unit/fifo/test_arbiter_ports.py`` — namely:

* per-side date monotonicity (``grant_dates_fs`` never decreases);
* complete accounting (``total_accesses`` equals the item count on each
  side);
* conservation: every written ``(writer, sequence)`` token is read exactly
  once and each writer's tokens are seen in order.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..fifo.arbiter import ReadArbiter, WriteArbiter
from ..fifo.smart_fifo import SmartFifo
from ..kernel.simtime import ns
from ..kernel.simulator import Simulator
from .base import TimingMode, WorkloadModule


@dataclass
class ContentionConfig:
    """Parameters of one contention scenario (all timing in integer ns)."""

    seed: int = 1
    n_writers: int = 3
    n_readers: int = 3
    items_per_writer: int = 20
    fifo_depth: int = 8
    #: Arbitration/transfer cycle of the shared port (see _SideArbiter).
    access_time_ns: int = 2
    max_writer_gap_ns: int = 15
    max_reader_gap_ns: int = 9

    def __post_init__(self) -> None:
        for name in ("n_writers", "n_readers", "items_per_writer",
                     "fifo_depth", "max_writer_gap_ns", "max_reader_gap_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"ContentionConfig.{name} must be positive, "
                    f"got {getattr(self, name)}"
                )
        if self.access_time_ns < 0:
            raise ValueError("ContentionConfig.access_time_ns must be >= 0")

    @property
    def total_items(self) -> int:
        return self.n_writers * self.items_per_writer

    def reader_shares(self) -> List[int]:
        """How many items each reader drains (they sum to total_items)."""
        base, remainder = divmod(self.total_items, self.n_readers)
        return [base + (1 if i < remainder else 0) for i in range(self.n_readers)]


class ContentionWriter(WorkloadModule):
    """Writes ``(writer_id, seq)`` tokens through the shared write arbiter."""

    def __init__(self, parent, name, arbiter, writer_id: int,
                 config: ContentionConfig, burst: bool = False):
        super().__init__(parent, name, TimingMode.DECOUPLED, burst)
        self.arbiter = arbiter
        self.writer_id = writer_id
        self.config = config
        self.rng = random.Random(config.seed * 31337 + writer_id)
        self.create_thread(self.run)

    def run(self):
        cfg = self.config
        n = cfg.items_per_writer
        # Gaps drawn upfront in word order (the rng serves nothing else).
        gaps = [self.rng.randint(1, cfg.max_writer_gap_ns) for _ in range(n)]
        words = [(self.writer_id, seq) for seq in range(n)]
        yield from self.burst_write(self.arbiter, words, gaps)
        self.mark_finished()


class ContentionReader(WorkloadModule):
    """Reads its share of tokens through the shared read arbiter."""

    def __init__(self, parent, name, arbiter, count: int,
                 reader_id: int, config: ContentionConfig,
                 burst: bool = False):
        super().__init__(parent, name, TimingMode.DECOUPLED, burst)
        self.arbiter = arbiter
        self.count = count
        self.config = config
        self.rng = random.Random(config.seed * 27644437 + reader_id)
        self.tokens: List[Tuple[int, int]] = []
        self.create_thread(self.run)

    def run(self):
        cfg = self.config
        gaps = [
            self.rng.randint(1, cfg.max_reader_gap_ns)
            for _ in range(self.count)
        ]
        tokens = yield from self.burst_read(self.arbiter, self.count, gaps)
        self.tokens.extend(tokens)
        self.mark_finished()


class ArbiterContentionScenario:
    """N writers -> WriteArbiter -> Smart FIFO -> ReadArbiter -> M readers."""

    def __init__(self, sim: Simulator, config: Optional[ContentionConfig] = None,
                 burst: bool = False):
        self.sim = sim
        self.config = config or ContentionConfig()
        cfg = self.config
        self.fifo = SmartFifo(sim, "fifo", depth=cfg.fifo_depth)
        # record_grants: this scenario IS the grant-date oracle, so it keeps
        # the (bounded) full history for the monotonicity assertions.
        self.write_arbiter = WriteArbiter(
            sim, "write_arbiter", self.fifo,
            access_duration=ns(cfg.access_time_ns), record_grants=True,
        )
        self.read_arbiter = ReadArbiter(
            sim, "read_arbiter", self.fifo,
            access_duration=ns(cfg.access_time_ns), record_grants=True,
        )
        self.writers = [
            ContentionWriter(sim, f"writer{i}", self.write_arbiter, i, cfg,
                             burst=burst)
            for i in range(cfg.n_writers)
        ]
        self.readers = [
            ContentionReader(sim, f"reader{i}", self.read_arbiter, share, i,
                             cfg, burst=burst)
            for i, share in enumerate(cfg.reader_shares())
        ]

    def run(self) -> None:
        self.sim.run()

    # ------------------------------------------------------------------
    def all_tokens(self) -> List[Tuple[int, int]]:
        return [token for reader in self.readers for token in reader.tokens]

    def verify(self) -> None:
        """The arbiter-contention oracle (see the module docstring)."""
        cfg = self.config
        total = cfg.total_items
        # Complete accounting on both shared ports.
        assert self.write_arbiter.total_accesses == total
        assert self.read_arbiter.total_accesses == total
        assert self.fifo.total_written == total and self.fifo.total_read == total
        # Per-side date monotonicity — the invariant the arbiter enforces.
        assert self.write_arbiter.grants_monotonic(), "write dates went backwards"
        assert self.read_arbiter.grants_monotonic(), "read dates went backwards"
        # Conservation: every token read exactly once (this also implies
        # each writer contributed exactly items_per_writer tokens)...
        tokens = self.all_tokens()
        expected = Counter(
            (writer, seq)
            for writer in range(cfg.n_writers)
            for seq in range(cfg.items_per_writer)
        )
        assert Counter(tokens) == expected
        # ... and per-writer FIFO order as observed by each reader: tokens
        # interleave across readers, so the strongest order guarantee is
        # that within one reader's stream every writer's sequence numbers
        # increase (the FIFO preserves each writer's order globally, and a
        # single reader drains a subsequence of that global order).
        for reader in self.readers:
            seen: Dict[int, int] = {}
            for writer, seq in reader.tokens:
                assert seen.get(writer, -1) < seq, (
                    f"reader saw writer {writer} tokens out of order"
                )
                seen[writer] = seq

    @property
    def arbitration_happened(self) -> bool:
        """True when at least one access was actually delayed (the scenario
        is only interesting when contention really occurred)."""
        return (
            self.write_arbiter.arbitrated_accesses > 0
            or self.read_arbiter.arbitrated_accesses > 0
        )
