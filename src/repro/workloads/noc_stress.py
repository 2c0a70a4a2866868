"""NoC-only router stress scenario (Section IV-C infrastructure, isolated).

The campaign engine exercised every word-level workload but never the NoC
half of the case study.  This scenario builds *only* the NoC machinery: a
``mesh_width x mesh_height`` mesh of :class:`~repro.soc.noc.router.Router`
modules (one non-decoupled ``SC_METHOD`` each, regular packet FIFOs on the
input ports), fed through :class:`~repro.soc.noc.network_interface
.SourceNetworkInterface` method processes that packetize one seeded word
stream per router, and drained through
:class:`~repro.soc.noc.network_interface.DestNetworkInterface` into
per-stream egress Smart FIFOs read by decoupled consumer threads.

Stream ``i`` originates at router ``i`` and terminates at router
``(i + stride) mod n`` (stride derived from the seed, never 0), so XY
routes overlap and the routers genuinely arbitrate between input ports.

Pairability: the producers and consumers are decoupled threads in both
modes; ``reference`` mode builds every accelerator-facing
:class:`~repro.fifo.packet_fifo.PacketSmartFifo` with ``sync_on_access``
(the case-study reference policy), ``smart`` mode without.  Both policies
produce bit-identical dates — only the context-switch count changes — so
the locally-timestamped traces diff empty after reordering.

Oracle (:meth:`NocStressScenario.verify`):

* **conservation** — every consumer receives exactly its stream's seeded
  word sequence, in order;
* **per-router arbitration accounting** — each router forwarded exactly
  ``packets_per_stream`` packets per stream whose XY route crosses it
  (computed statically from the routing function), and the flit counts
  match ``packet_size + 1`` header+payload flits per packet;
* **in-order delivery** — each destination interface saw every stream's
  sequence numbers strictly increasing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..fifo.packet_fifo import PacketSmartFifo
from ..kernel.simtime import TimeUnit, ns
from ..kernel.simulator import Simulator
from ..soc.noc import DestNetworkInterface, Mesh, SourceNetworkInterface
from .base import TimingMode, WorkloadModule


@dataclass
class NocStressConfig:
    """Parameters of one NoC stress scenario (timing in integer ns)."""

    seed: int = 1
    mesh_width: int = 2
    mesh_height: int = 2
    packets_per_stream: int = 6
    packet_size: int = 2
    fifo_depth: int = 4
    noc_cycle_ns: int = 2
    max_producer_gap_ns: int = 12
    max_consumer_gap_ns: int = 9

    def __post_init__(self) -> None:
        for name in ("mesh_width", "mesh_height", "packets_per_stream",
                     "packet_size", "fifo_depth", "noc_cycle_ns",
                     "max_producer_gap_ns", "max_consumer_gap_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"NocStressConfig.{name} must be positive, "
                    f"got {getattr(self, name)}"
                )
        if self.packet_size > self.fifo_depth:
            raise ValueError("packet_size cannot exceed fifo_depth")
        if self.mesh_width * self.mesh_height < 2:
            raise ValueError("the mesh needs at least two routers")

    @property
    def n_streams(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def words_per_stream(self) -> int:
        return self.packets_per_stream * self.packet_size

    def router_coords(self) -> List[Tuple[int, int]]:
        """Router coordinates in stream-index order (row-major)."""
        return [
            (x, y)
            for y in range(self.mesh_height)
            for x in range(self.mesh_width)
        ]

    def stream_stride(self) -> int:
        """Seeded, non-zero rotation mapping source to destination router."""
        return 1 + random.Random(self.seed * 65537).randrange(self.n_streams - 1)

    def stream_words(self, stream: int) -> List[int]:
        rng = random.Random(self.seed * 92821 + stream)
        return [rng.randrange(0, 1 << 16) for _ in range(self.words_per_stream)]


def xy_route(src: Tuple[int, int], dst: Tuple[int, int]) -> List[Tuple[int, int]]:
    """Router coordinates an XY-routed packet crosses, endpoints included."""
    x, y = src
    path = [(x, y)]
    while x != dst[0]:
        x += 1 if dst[0] > x else -1
        path.append((x, y))
    while y != dst[1]:
        y += 1 if dst[1] > y else -1
        path.append((x, y))
    return path


class StreamProducer(WorkloadModule):
    """Decoupled thread feeding one stream's ingress packet FIFO."""

    def __init__(self, parent, name, fifo, words, stream: int,
                 config: NocStressConfig, burst: bool = False):
        super().__init__(parent, name, TimingMode.DECOUPLED, burst)
        self.fifo = fifo
        self.words = list(words)
        self.config = config
        self.rng = random.Random(config.seed * 15485863 + stream)
        self.create_thread(self.run)

    def run(self):
        size = self.config.packet_size
        # Drawn upfront in word order: one randint after each write.
        gaps = [
            self.rng.randint(1, self.config.max_producer_gap_ns)
            for _ in self.words
        ]

        def message(index, _word):
            if (index + 1) % size == 0:
                return f"packet {(index + 1) // size - 1} fed"
            return None

        yield from self.burst_write(
            self.fifo, self.words, gaps, message_fn=message
        )
        self.mark_finished()


class StreamConsumer(WorkloadModule):
    """Decoupled thread draining one stream's egress Smart FIFO."""

    def __init__(self, parent, name, fifo, count: int, stream: int,
                 config: NocStressConfig, burst: bool = False):
        super().__init__(parent, name, TimingMode.DECOUPLED, burst)
        self.fifo = fifo
        self.count = count
        self.config = config
        self.rng = random.Random(config.seed * 49979687 + stream)
        self.values: List[int] = []
        self.create_thread(self.run)

    def run(self):
        size = self.config.packet_size
        gaps = [
            self.rng.randint(1, self.config.max_consumer_gap_ns)
            for _ in range(self.count)
        ]

        def message(index, word):
            if (index + 1) % size == 0:
                return (
                    f"packet {(index + 1) // size - 1} drained "
                    f"(word {word})"
                )
            return None

        words = yield from self.burst_read(
            self.fifo, self.count, gaps, message_fn=message
        )
        self.values.extend(words)
        self.mark_finished()


class NocStressScenario:
    """Mesh of method routers under cross-traffic from every local port."""

    def __init__(self, sim: Simulator, config: NocStressConfig = None,
                 sync_on_access: bool = False, burst: bool = False):
        self.sim = sim
        self.config = config or NocStressConfig()
        self.sync_on_access = sync_on_access
        cfg = self.config

        self.mesh = Mesh(
            sim,
            "mesh",
            width=cfg.mesh_width,
            height=cfg.mesh_height,
            queue_depth=max(cfg.fifo_depth, 2),
            cycle_time=ns(cfg.noc_cycle_ns),
        )
        coords = cfg.router_coords()
        stride = cfg.stream_stride()
        self.routes: Dict[int, List[Tuple[int, int]]] = {}
        self.producers: List[StreamProducer] = []
        self.consumers: List[StreamConsumer] = []
        self._source_nis: Dict[Tuple[int, int], SourceNetworkInterface] = {}
        self._dest_nis: Dict[Tuple[int, int], DestNetworkInterface] = {}

        for stream in range(cfg.n_streams):
            src = coords[stream]
            dst = coords[(stream + stride) % cfg.n_streams]
            self.routes[stream] = xy_route(src, dst)
            stream_id = f"s{stream}"

            ingress = PacketSmartFifo(
                sim,
                f"ingress{stream}",
                depth=cfg.fifo_depth,
                packet_size=cfg.packet_size,
                sync_on_access=sync_on_access,
                burst=burst,
            )
            source_ni = self._source_ni_at(src)
            source_ni.add_stream(stream_id, ingress, dst, stream_id)
            self.producers.append(
                StreamProducer(
                    sim, f"producer{stream}", ingress,
                    cfg.stream_words(stream), stream, cfg, burst=burst,
                )
            )

            egress = PacketSmartFifo(
                sim,
                f"egress{stream}",
                depth=cfg.fifo_depth,
                packet_size=cfg.packet_size,
                sync_on_access=sync_on_access,
                burst=burst,
            )
            dest_ni = self._dest_ni_at(dst)
            dest_ni.connect_egress(stream_id, egress)
            self.consumers.append(
                StreamConsumer(
                    sim, f"consumer{stream}", egress,
                    cfg.words_per_stream, stream, cfg, burst=burst,
                )
            )

    # ------------------------------------------------------------------
    def _source_ni_at(self, coords: Tuple[int, int]) -> SourceNetworkInterface:
        if coords not in self._source_nis:
            ni = SourceNetworkInterface(
                self.sim,
                f"src_ni_{coords[0]}_{coords[1]}",
                packet_size=self.config.packet_size,
                injection_cycle=ns(self.config.noc_cycle_ns),
            )
            ni.connect_router(self.mesh.injection_link(coords))
            self._source_nis[coords] = ni
        return self._source_nis[coords]

    def _dest_ni_at(self, coords: Tuple[int, int]) -> DestNetworkInterface:
        if coords not in self._dest_nis:
            ni = DestNetworkInterface(
                self.sim,
                f"dst_ni_{coords[0]}_{coords[1]}",
                arrival_queue_depth=max(self.config.fifo_depth, 4),
                word_delivery_time=ns(self.config.noc_cycle_ns),
            )
            self.mesh.attach_local_sink(coords, ni.arrival_link())
            self._dest_nis[coords] = ni
        return self._dest_nis[coords]

    # ------------------------------------------------------------------
    def run(self) -> None:
        self.sim.run()

    def expected_router_packets(self) -> Dict[Tuple[int, int], int]:
        """Packets each router must forward, from the static XY routes."""
        expected: Dict[Tuple[int, int], int] = {
            coords: 0 for coords in self.config.router_coords()
        }
        for route in self.routes.values():
            for coords in route:
                expected[coords] += self.config.packets_per_stream
        return expected

    def verify(self) -> None:
        """The NoC stress oracle (see the module docstring)."""
        cfg = self.config
        # Conservation: every stream delivered its exact word sequence.
        for stream, consumer in enumerate(self.consumers):
            expected_words = cfg.stream_words(stream)
            assert consumer.values == expected_words, (
                f"stream {stream} delivered {len(consumer.values)} words, "
                f"mismatch with the seeded sequence"
            )
        # Per-router arbitration accounting against the XY routes.
        expected = self.expected_router_packets()
        flits_per_packet = cfg.packet_size + 1
        for coords, router in self.mesh.routers.items():
            assert router.packets_routed == expected[coords], (
                f"router {coords} forwarded {router.packets_routed} packets, "
                f"expected {expected[coords]}"
            )
            assert router.flits_routed == expected[coords] * flits_per_packet
        # Every source interface injected all of its packets.
        injected = sum(ni.packets_injected for ni in self._source_nis.values())
        assert injected == cfg.n_streams * cfg.packets_per_stream
        # In-order delivery per stream at the destination interfaces.
        for ni in self._dest_nis.values():
            for stream_id, sequences in ni.sequences.items():
                assert sequences == sorted(sequences), (
                    f"stream {stream_id} arrived out of order: {sequences}"
                )

    # ------------------------------------------------------------------
    def consumer_finish_dates_ns(self) -> List[float]:
        return [
            consumer.finish_time.to(TimeUnit.NS)
            if consumer.finish_time is not None
            else -1.0
            for consumer in self.consumers
        ]

    def checksums(self) -> List[int]:
        return [sum(consumer.values) for consumer in self.consumers]

    @property
    def total_packets_routed(self) -> int:
        return self.mesh.total_packets_routed
