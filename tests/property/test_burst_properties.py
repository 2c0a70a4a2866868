"""Property tests for burst (span) transfers.

The burst API is a pure speed knob: for *any* word sequence, any span
chunking (including empty spans and spans larger than the FIFO depth),
any per-word or constant gap schedule and both Smart FIFO modes, a
burst-driven run must be indistinguishable from the word-by-word run —
same per-word dates, same final local dates, same kernel counters.  The
trace half holds the same way: ``emit_many`` must be a drop-in for
repeated ``emit`` on every sink kind.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace_diff import compare_spools
from repro.campaign import ScenarioSpec, execute_spec
from repro.fifo import RegularFifo, SmartFifo
from repro.kernel import Simulator
from repro.kernel.process import Timeout, WaitEvent
from repro.kernel.simtime import ns
from repro.kernel.tracing import DigestSink, ListSink, SpoolSink
from repro.td import DecoupledModule

#: 1 ns in femtoseconds (the burst APIs take femtosecond gaps).
NS_FS = 1_000_000


def _chunking(rng, total, depth):
    """Random span sizes summing to ``total``: sometimes empty, sometimes
    larger than the FIFO depth (so spans must split at the blocking
    boundary)."""
    chunks = []
    remaining = total
    while remaining:
        chunk = min(remaining, rng.randrange(0, depth + 4))
        chunks.append(chunk)
        remaining -= chunk
    rng.shuffle(chunks)
    return chunks


class WordWriter(DecoupledModule):
    def __init__(self, parent, name, fifo, words, gaps_ns):
        super().__init__(parent, name)
        self.fifo = fifo
        self.words = words
        self.gaps_ns = gaps_ns
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        for word, gap in zip(self.words, self.gaps_ns):
            yield from self.fifo.write(word)
            self.dates.append(self.local_time_stamp().femtoseconds)
            self.inc(gap)
        self.final_fs = self.local_time_stamp().femtoseconds


class BurstWriter(DecoupledModule):
    def __init__(self, parent, name, fifo, words, gaps_ns, chunks, constant):
        super().__init__(parent, name)
        self.fifo = fifo
        self.words = words
        self.gaps_ns = gaps_ns
        self.chunks = chunks
        self.constant = constant
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        pos = 0
        for chunk in self.chunks:
            sub = self.words[pos:pos + chunk]
            if self.constant:
                gap_fs = (self.gaps_ns[0] if self.gaps_ns else 0) * NS_FS
            else:
                gap_fs = [g * NS_FS for g in self.gaps_ns[pos:pos + chunk]]
            yield from self.fifo.write_burst(sub, gap_fs, self.dates)
            pos += chunk
        self.final_fs = self.local_time_stamp().femtoseconds


class WordReader(DecoupledModule):
    def __init__(self, parent, name, fifo, count, gaps_ns):
        super().__init__(parent, name)
        self.fifo = fifo
        self.count = count
        self.gaps_ns = gaps_ns
        self.words = []
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        for index in range(self.count):
            word = yield from self.fifo.read()
            self.words.append(word)
            self.dates.append(self.local_time_stamp().femtoseconds)
            self.inc(self.gaps_ns[index])
        self.final_fs = self.local_time_stamp().femtoseconds


class BurstReader(DecoupledModule):
    def __init__(self, parent, name, fifo, count, gaps_ns, chunks, constant):
        super().__init__(parent, name)
        self.fifo = fifo
        self.count = count
        self.gaps_ns = gaps_ns
        self.chunks = chunks
        self.constant = constant
        self.words = []
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        pos = 0
        for chunk in self.chunks:
            if self.constant:
                gap_fs = (self.gaps_ns[0] if self.gaps_ns else 0) * NS_FS
            else:
                gap_fs = [g * NS_FS for g in self.gaps_ns[pos:pos + chunk]]
            words = yield from self.fifo.read_burst(chunk, gap_fs, self.dates)
            self.words.extend(words)
            pos += chunk
        self.final_fs = self.local_time_stamp().femtoseconds


def _drive_smart(seed, depth, sync_on_access, constant, use_burst):
    rng = random.Random(seed)
    n = rng.randrange(0, 32)
    words = [rng.randrange(0, 1 << 16) for _ in range(n)]
    if constant:
        gap = rng.randrange(0, 12)
        writer_gaps = [gap] * n
        reader_gaps = [rng.randrange(0, 12)] * n or []
    else:
        writer_gaps = [rng.randrange(0, 12) for _ in range(n)]
        reader_gaps = [rng.randrange(0, 12) for _ in range(n)]
    writer_chunks = _chunking(rng, n, depth)
    reader_chunks = _chunking(rng, n, depth)

    sim = Simulator(f"burst_prop_{use_burst}")
    fifo = SmartFifo(sim, "fifo", depth=depth, sync_on_access=sync_on_access)
    if use_burst:
        writer = BurstWriter(sim, "writer", fifo, words, writer_gaps,
                             writer_chunks, constant)
        reader = BurstReader(sim, "reader", fifo, n, reader_gaps,
                             reader_chunks, constant)
    else:
        writer = WordWriter(sim, "writer", fifo, words, writer_gaps)
        reader = WordReader(sim, "reader", fifo, n, reader_gaps)
    sim.run()
    return sim, fifo, writer, reader, words


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.booleans(),
)
def test_smart_burst_equals_word_loop(seed, depth, sync_on_access, constant):
    """``write_burst``/``read_burst`` are bit-exact with the word loop:
    same words, same per-word insertion/read dates, same final local
    dates, same kernel date and counters — for random chunkings that
    include empty spans, spans of exactly ``depth`` words and spans
    larger than the free/busy space (forcing the blocking split)."""
    word = _drive_smart(seed, depth, sync_on_access, constant, False)
    burst = _drive_smart(seed, depth, sync_on_access, constant, True)
    word_sim, word_fifo, word_writer, word_reader, words = word
    burst_sim, burst_fifo, burst_writer, burst_reader, _ = burst

    assert burst_reader.words == word_reader.words == words
    assert burst_writer.dates == word_writer.dates
    assert burst_reader.dates == word_reader.dates
    assert burst_writer.final_fs == word_writer.final_fs
    assert burst_reader.final_fs == word_reader.final_fs
    assert burst_sim.now_fs == word_sim.now_fs
    assert (
        burst_sim.stats.context_switches == word_sim.stats.context_switches
    )
    assert burst_sim.stats.delta_cycles == word_sim.stats.delta_cycles
    assert burst_fifo.total_written == word_fifo.total_written == len(words)
    assert burst_fifo.total_read == word_fifo.total_read == len(words)
    assert burst_fifo.blocking_waits == word_fifo.blocking_waits


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=5),
)
def test_smart_nb_burst_equals_guarded_nb_loop(seed, depth):
    """``nb_write_burst``/``nb_read_burst`` match the guarded word loops
    on the same prefilled ring state."""
    def build():
        rng = random.Random(seed)
        sim = Simulator("nb_burst_prop")
        # The nb phase below runs post-simulation at the kernel date, which
        # may precede the threads' decoupled dates; ordering enforcement is
        # orthogonal to what this test checks.
        fifo = SmartFifo(sim, "fifo", depth=depth, enforce_side_ordering=False)
        words = [rng.randrange(0, 1 << 16)
                 for _ in range(rng.randrange(0, 2 * depth))]
        gaps = [rng.randrange(0, 6) for _ in words]
        WordWriter(sim, "writer", fifo, words, gaps)
        drain = rng.randrange(0, depth)
        drain_gaps = [rng.randrange(0, 6)] * drain
        WordReader(sim, "reader", fifo, min(drain, len(words)), drain_gaps)
        sim.run()
        return rng, sim, fifo

    rng, _, fifo_a = build()
    _, _, fifo_b = build()
    count = rng.randrange(0, depth + 2)

    burst_words = fifo_a.nb_read_burst(count)
    loop_words = []
    while len(loop_words) < count and not fifo_b.is_empty():
        loop_words.append(fifo_b.nb_read())
    assert burst_words == loop_words
    assert fifo_a.total_read == fifo_b.total_read

    payload = [rng.randrange(0, 1 << 16) for _ in range(count)]
    accepted = fifo_a.nb_write_burst(payload)
    pushed = 0
    for word in payload:
        if not fifo_b.nb_write(word):
            break
        pushed += 1
    assert accepted == pushed
    assert fifo_a.total_written == fifo_b.total_written


def _drive_regular(seed, depth, use_burst):
    rng = random.Random(seed)
    n = rng.randrange(0, 24)
    words = [rng.randrange(0, 1 << 16) for _ in range(n)]
    writer_chunks = _chunking(rng, n, depth)
    reader_chunks = _chunking(rng, n, depth)
    pauses = [rng.randrange(0, 4) for _ in range(len(writer_chunks))]

    sim = Simulator(f"reg_burst_prop_{use_burst}")
    fifo = RegularFifo(sim, "fifo", depth=depth)

    def writer():
        pos = 0
        for index, chunk in enumerate(writer_chunks):
            sub = words[pos:pos + chunk]
            if use_burst:
                yield from fifo.write_burst(sub)
            else:
                for word in sub:
                    yield from fifo.write(word)
            pos += chunk
            if pauses[index]:
                yield Timeout(ns(pauses[index]))

    received = []

    def reader():
        for chunk in reader_chunks:
            if use_burst:
                got = yield from fifo.read_burst(chunk)
                received.extend(got)
            else:
                for _ in range(chunk):
                    word = yield from fifo.read()
                    received.append(word)

    sim.create_thread(writer, name="writer")
    sim.create_thread(reader, name="reader")
    sim.run()
    return sim, fifo, received, words


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
)
def test_regular_burst_equals_word_loop(seed, depth):
    """The regular FIFO's native span transfers preserve the word-loop
    schedule: same data, same kernel date, same context switches."""
    word_sim, word_fifo, word_received, words = _drive_regular(
        seed, depth, False
    )
    burst_sim, burst_fifo, burst_received, _ = _drive_regular(
        seed, depth, True
    )
    assert burst_received == word_received == words
    assert burst_sim.now_fs == word_sim.now_fs
    assert (
        burst_sim.stats.context_switches == word_sim.stats.context_switches
    )
    assert burst_fifo.total_written == word_fifo.total_written
    assert burst_fifo.total_read == word_fifo.total_read


# ---------------------------------------------------------------------------
# Word-vs-burst digest sweep across the burst-capable campaign workloads
# ---------------------------------------------------------------------------
#: Every workload honouring ``ScenarioSpec.burst``, in both modes of a pair
#: (contention has no reference mode).  The whole deterministic row —
#: trace digest included — must be byte-identical word-vs-burst.
BURST_SWEEP_SPECS = [
    ScenarioSpec("wr", "writer_reader", mode="smart", depth=3),
    ScenarioSpec("wr_ref", "writer_reader", mode="reference", depth=3),
    ScenarioSpec("str", "streaming", mode="smart", depth=4,
                 params={"n_blocks": 4, "words_per_block": 12}),
    ScenarioSpec("str_ref", "streaming", mode="reference", depth=4,
                 params={"n_blocks": 4, "words_per_block": 12}),
    ScenarioSpec("video", "video", mode="smart", depth=4,
                 params={"n_frames": 2, "macroblocks_per_frame": 8}),
    ScenarioSpec("video_ref", "video", mode="reference", depth=4,
                 params={"n_frames": 2, "macroblocks_per_frame": 8}),
    ScenarioSpec("bursty", "bursty", mode="smart", depth=4, seed=3,
                 params={"n_bursts": 4, "max_burst": 5}),
    ScenarioSpec("bursty_ref", "bursty", mode="reference", depth=4, seed=3,
                 params={"n_bursts": 4, "max_burst": 5}),
    ScenarioSpec("random", "random_traffic", mode="smart", depth=3, seed=7,
                 params={"item_count": 20, "monitor_samples": 4}),
    ScenarioSpec("random_ref", "random_traffic", mode="reference", depth=3,
                 seed=7, params={"item_count": 20, "monitor_samples": 4}),
    ScenarioSpec("noc", "noc_stress", mode="smart", depth=4,
                 params={"packets_per_stream": 3, "packet_size": 2}),
    ScenarioSpec("noc_ref", "noc_stress", mode="reference", depth=4,
                 params={"packets_per_stream": 3, "packet_size": 2}),
    ScenarioSpec("fault", "fault_drop", mode="smart", depth=4),
    ScenarioSpec("fault_ref", "fault_drop", mode="reference", depth=4),
    ScenarioSpec("mixed", "mixed", mode="smart", depth=4),
    ScenarioSpec("mixed_ref", "mixed", mode="reference", depth=4),
    ScenarioSpec("packet", "packet_stream", mode="smart", depth=4,
                 params={"packet_size": 2}),
    ScenarioSpec("packet_ref", "packet_stream", mode="reference", depth=4,
                 params={"packet_size": 2}),
    ScenarioSpec("cont", "contention", mode="smart", depth=8, seed=5),
]


@pytest.mark.parametrize(
    "spec", BURST_SWEEP_SPECS, ids=lambda spec: spec.label
)
def test_burst_campaign_rows_bit_exact(spec):
    """``burst=True`` is a pure speed knob at the campaign-row level: the
    deterministic row (dates, kernel counters, extras and the reordered
    trace digest) is byte-identical to the word-by-word run."""
    word = execute_spec(spec, "digest").deterministic_row()
    burst_spec = replace(spec, burst=True, params=dict(spec.params))
    burst = execute_spec(burst_spec, "digest").deterministic_row()
    assert burst == word


# ---------------------------------------------------------------------------
# emit_many == repeated emit, for every sink kind
# ---------------------------------------------------------------------------
processes = st.sampled_from(["top.writer", "top.reader", "mon"])
records = st.tuples(
    processes,
    st.integers(min_value=0, max_value=10**15),
    st.sampled_from(["wr 1", "rd 2", "level 3", "done", ""]),
)
traces = st.lists(records, max_size=50)


def _fill_word(sink, trace):
    for process, local_fs, message in trace:
        sink.emit(process, local_fs, 0, message)
    return sink


def _fill_spans(sink, trace, span):
    """Group consecutive same-process records into ``emit_many`` spans."""
    index = 0
    while index < len(trace):
        process = trace[index][0]
        entries = []
        while (
            index < len(trace)
            and trace[index][0] == process
            and len(entries) < span
        ):
            entries.append((trace[index][1], trace[index][2]))
            index += 1
        sink.emit_many(process, 0, entries)
    return sink


@given(
    trace=traces,
    span=st.integers(min_value=1, max_value=8),
    max_buffered=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_emit_many_equals_repeated_emit(trace, span, max_buffered):
    list_word = _fill_word(ListSink(), trace)
    list_span = _fill_spans(ListSink(), trace, span)
    assert list_span.records == list_word.records

    digest_word = _fill_word(DigestSink(max_buffered=max_buffered), trace)
    digest_span = _fill_spans(DigestSink(max_buffered=max_buffered), trace, span)
    assert len(digest_span) == len(digest_word)
    assert digest_span.digest() == digest_word.digest()
    digest_word.close()
    digest_span.close()

    spool_word = _fill_word(SpoolSink(max_buffered=max_buffered), trace)
    spool_span = _fill_spans(SpoolSink(max_buffered=max_buffered), trace, span)
    comparison = compare_spools(spool_word, spool_span)
    assert comparison.equivalent, comparison.report()
    spool_word.close()
    spool_span.close()
