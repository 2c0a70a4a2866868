"""Micro-benchmarks of the FIFO primitives.

These quantify the per-access cost differences discussed in the paper:

* the Smart FIFO does more work per access than a regular FIFO (the price
  of the timestamp bookkeeping, visible in the "TDfull vs untimed" gap of
  Fig. 5);
* the non-blocking ``is_empty`` performs two tests instead of one;
* ``get_size`` is O(depth) and intended for low-rate monitor accesses
  (Section III-C).
"""

import pytest

from repro.fifo import RegularFifo, SmartFifo
from repro.kernel import Simulator
from repro.td import DecoupledModule


def drive(sim, generator_func):
    """Run a one-thread simulation executing ``generator_func``."""
    sim.create_thread(generator_func, name="driver")
    sim.run()


class _Stream(DecoupledModule):
    """Writes then reads ``count`` items through a FIFO, fully decoupled."""

    def __init__(self, parent, name, fifo, count):
        super().__init__(parent, name)
        self.fifo = fifo
        self.count = count
        self.create_thread(self.writer)
        self.create_thread(self.reader)

    def writer(self):
        for value in range(self.count):
            yield from self.fifo.write(value)
            self.inc(1)

    def reader(self):
        for _ in range(self.count):
            yield from self.fifo.read()
            self.inc(1)


ITEMS = 2000

#: Words moved per span by the burst micro-benchmarks (< depth, so whole
#: spans land/drain without entering the blocking machinery).
BURST_SPAN = 50

#: 1 ns in femtoseconds — the per-word gap of both streams.
_GAP_FS = 1_000_000


class _BurstStream(DecoupledModule):
    """The :class:`_Stream` twin moving ``count`` items in spans.

    Same FIFO, same 1 ns per-word annotation, same total payload — only the
    access granularity changes (``write_burst``/``read_burst`` spans of
    ``BURST_SPAN`` words), so the ops/sec ratio against the word stream is
    the batch-quantum speedup and nothing else.
    """

    def __init__(self, parent, name, fifo, count, span=BURST_SPAN):
        super().__init__(parent, name)
        self.fifo = fifo
        self.count = count
        self.span = span
        self.create_thread(self.writer)
        self.create_thread(self.reader)

    def writer(self):
        sent = 0
        while sent < self.count:
            span = min(self.span, self.count - sent)
            yield from self.fifo.write_burst(
                list(range(sent, sent + span)), _GAP_FS
            )
            sent += span

    def reader(self):
        got = 0
        while got < self.count:
            span = min(self.span, self.count - got)
            yield from self.fifo.read_burst(span, _GAP_FS)
            got += span


def regular_fifo_nb_ops():
    sim = Simulator("micro_regular")
    fifo = RegularFifo(sim, "fifo", depth=64)
    for _ in range(ITEMS):
        fifo.nb_write(1)
        fifo.nb_read()
    return fifo.total_read


def smart_fifo_nb_ops():
    sim = Simulator("micro_smart_nb")
    fifo = SmartFifo(sim, "fifo", depth=64)
    for _ in range(ITEMS):
        fifo.nb_write(1)
        fifo.nb_read()
    return fifo.total_read


def smart_fifo_decoupled_stream():
    sim = Simulator("micro_smart_stream")
    fifo = SmartFifo(sim, "fifo", depth=64)
    _Stream(sim, "stream", fifo, ITEMS)
    sim.run()
    return fifo.total_read


def smart_fifo_burst_stream():
    sim = Simulator("micro_smart_burst")
    fifo = SmartFifo(sim, "fifo", depth=64)
    _BurstStream(sim, "stream", fifo, ITEMS)
    sim.run()
    return fifo.total_read


def telemetry_bypass_stream():
    """:func:`smart_fifo_decoupled_stream` minus the telemetry guards.

    Drives the scheduler directly instead of going through
    ``Simulator.run`` — the pre-telemetry code path with zero ``enabled``
    attribute checks.  The wall ratio of the production twin over this
    one is the whole cost of disabled telemetry
    (``micro.telemetry_off_overhead``, gated close to 1.0).
    """
    sim = Simulator("micro_telemetry_bypass")
    fifo = SmartFifo(sim, "fifo", depth=64)
    _Stream(sim, "stream", fifo, ITEMS)
    sim.elaborate()
    sim.scheduler.run(None)
    return fifo.total_read


#: Trace lines emitted per trace-path micro-benchmark run.
TRACE_EMITS = 2000


def trace_emit_ops(sink=None):
    """Emit ``TRACE_EMITS`` lines through the campaign-default digest sink.

    Measures the full hot emit path (``Simulator.log`` -> sink) the way a
    checkpoint-heavy workload drives it; the returned count pins the
    number of records that actually reached the sink.
    """
    from repro.kernel.tracing import DigestSink

    sim = Simulator("micro_trace_emit", trace_sink=sink or DigestSink())
    for index in range(TRACE_EMITS):
        sim.log(f"checkpoint {index}")
    count = len(sim.trace)
    sim.trace.close()
    return count


def trace_emit_burst_ops():
    """Emit ``TRACE_EMITS`` lines through ``emit_many`` spans.

    The span twin of :func:`trace_emit_ops`: same line count, same digest
    sink, but one batched sink call per ``BURST_SPAN`` records — the trace
    half of the burst-transfer fast path.
    """
    from repro.kernel.tracing import DigestSink

    sim = Simulator("micro_trace_emit_burst", trace_sink=DigestSink())
    trace = sim.trace
    now_fs = sim.now_fs
    for start in range(0, TRACE_EMITS, BURST_SPAN):
        entries = [
            (now_fs, f"checkpoint {index}")
            for index in range(start, min(start + BURST_SPAN, TRACE_EMITS))
        ]
        trace.emit_many("driver", now_fs, entries)
    count = len(trace)
    trace.close()
    return count


#: Writers of the digest micro-benchmark: records interleave several names.
DIGEST_PROCESSES = ("top.source", "top.stage0", "top.stage1", "top.sink")
#: One femtosecond count per display unit of ``format_fs`` (fs ... sec):
#: the benchmark's dates walk through all of them.
DIGEST_UNITS_FS = (1, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12, 10 ** 15)
#: Sink buffer of the digest micro-benchmark: ``TRACE_EMITS`` records spill
#: several sorted runs, so the digest streams a real external merge.
DIGEST_MAX_BUFFERED = 512


def trace_digest_lines():
    """Emit ``TRACE_EMITS`` records into a spilling digest sink, then
    digest them: the whole trace path of one campaign job (encode, spill,
    merge, format, hash) per line.

    Each group of ``len(DIGEST_PROCESSES)`` records shares one date, as
    processes meeting at a FIFO do; successive dates cycle through every
    display unit.
    """
    from repro.kernel.tracing import DigestSink

    sink = DigestSink(max_buffered=DIGEST_MAX_BUFFERED)
    names = len(DIGEST_PROCESSES)
    for index in range(TRACE_EMITS):
        step = index // names
        local_fs = step * DIGEST_UNITS_FS[step % len(DIGEST_UNITS_FS)]
        sink.emit(DIGEST_PROCESSES[index % names], local_fs, local_fs,
                  f"checkpoint {index}")
    if not sink.spilled_runs:
        raise AssertionError("digest micro-benchmark: the sink never spilled")
    sink.digest()
    count = len(sink)
    sink.close()
    return count


def trace_emit_off_ops():
    """Same loop with tracing off: the one-attribute-check fast path."""
    from repro.kernel.tracing import NullSink

    sim = Simulator("micro_trace_off", trace_sink=NullSink())
    for index in range(TRACE_EMITS):
        sim.log(f"checkpoint {index}")
    return TRACE_EMITS - len(sim.trace)


def test_regular_fifo_nonblocking(benchmark):
    benchmark.group = "word transfer"
    assert benchmark(regular_fifo_nb_ops) == ITEMS


def test_smart_fifo_nonblocking(benchmark):
    benchmark.group = "word transfer"
    assert benchmark(smart_fifo_nb_ops) == ITEMS


def test_smart_fifo_decoupled_blocking_stream(benchmark):
    benchmark.group = "word transfer"
    assert benchmark(smart_fifo_decoupled_stream) == ITEMS


def test_smart_fifo_burst_stream(benchmark):
    benchmark.group = "word transfer"
    assert benchmark(smart_fifo_burst_stream) == ITEMS


def test_trace_emit(benchmark):
    benchmark.group = "trace emit"
    assert benchmark(trace_emit_ops) == TRACE_EMITS


def test_trace_emit_burst(benchmark):
    benchmark.group = "trace emit"
    assert benchmark(trace_emit_burst_ops) == TRACE_EMITS


def test_trace_digest(benchmark):
    benchmark.group = "trace emit"
    assert benchmark(trace_digest_lines) == TRACE_EMITS


def test_trace_emit_off(benchmark):
    benchmark.group = "trace emit"
    assert benchmark(trace_emit_off_ops) == TRACE_EMITS


@pytest.mark.parametrize("depth", (4, 64, 1024))
def test_get_size_cost_scales_with_depth(benchmark, depth):
    benchmark.group = "monitor get_size"
    sim = Simulator(f"micro_getsize_{depth}")
    fifo = SmartFifo(sim, "fifo", depth=depth)
    for value in range(depth // 2):
        fifo.nb_write(value)

    def query():
        return fifo.size_at(sim.now)

    assert benchmark(query) == depth // 2


def test_is_empty_cost(benchmark):
    benchmark.group = "monitor get_size"
    sim = Simulator("micro_isempty")
    fifo = SmartFifo(sim, "fifo", depth=64)
    fifo.nb_write(1)
    assert benchmark(fifo.is_empty) is False
