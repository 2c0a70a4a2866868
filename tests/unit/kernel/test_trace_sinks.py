"""Unit tests for the pluggable trace sink pipeline (kernel.tracing)."""

import hashlib
import io

import pytest

from repro.kernel import Simulator
from repro.kernel.tracing import (
    DigestSink,
    EMPTY_TRACE_DIGEST,
    ListSink,
    NullSink,
    SINK_KINDS,
    SpoolSink,
    TraceCollector,
    decode_entry,
    encode_entry,
    format_entry,
    make_sink,
    trace_lines_digest,
)
from repro.kernel.simtime import ns


def fill(sink, records):
    for process, local_fs, message in records:
        sink.emit(process, local_fs, 0, message)


RECORDS = [
    ("b", ns(30).femtoseconds, "late"),
    ("a", ns(10).femtoseconds, "early"),
    ("a", ns(10).femtoseconds, "early"),  # duplicates are part of the multiset
    ("c", 0, "zero"),
    ("a", ns(10).femtoseconds, "also early"),
]


class TestEncoding:
    def test_encoding_round_trips(self):
        entry = encode_entry("top.proc", 1500, "wrote 3")
        assert decode_entry(entry) == (1500, "top.proc", "wrote 3")
        assert format_entry(entry) == "[1500 fs] top.proc: wrote 3"

    def test_encoded_order_equals_sort_key_order(self):
        # Lexicographic order of the encoding must equal tuple order even
        # when one process name is a prefix of another and dates have
        # different magnitudes (SimTime formatting would not sort).
        keys = [
            (0, "a", "z"),
            (9, "ab", "c"),
            (9, "a", "z"),
            (10, "a", "a"),
            (1_000_000, "a", "a"),  # "1 ns" formats shorter than "1000 fs"
            (999_999, "zz", "m"),
        ]
        encoded = [encode_entry(p, fs, m) for fs, p, m in keys]
        assert [decode_entry(e) for e in sorted(encoded)] == sorted(keys)

    def test_reserved_characters_and_range_rejected(self):
        with pytest.raises(ValueError, match="outside the streamable range"):
            encode_entry("p", -1, "m")
        with pytest.raises(ValueError, match="reserved"):
            encode_entry("p", 0, "two\nlines")
        # Any control character in a name, not just the separator: "a\t"
        # would encode before "a", as "\t" sorts below the separator.
        for name in ("p\x1fq", "a\t", "a\x00", "a\n", "\x1e"):
            with pytest.raises(ValueError, match="process name"):
                encode_entry(name, 0, "m")
        encode_entry("a b", 0, "tab\tand\rcarriage return are fine here")


class TestNullSink:
    def test_disabled_and_empty(self):
        sink = NullSink()
        assert not sink.enabled
        sink.emit("p", 0, 0, "dropped")
        assert len(sink) == 0
        assert sink.digest() == EMPTY_TRACE_DIGEST

    def test_simulator_log_is_one_attribute_check(self):
        sim = Simulator("nulled", trace_sink=NullSink())
        sim.log("never stored")
        assert len(sim.trace) == 0


class TestListSink:
    def test_is_the_trace_collector(self):
        assert TraceCollector is ListSink

    def test_digest_matches_helper(self):
        sink = ListSink()
        fill(sink, RECORDS)
        assert sink.digest() == trace_lines_digest(sink.sorted_lines())

    def test_emit_is_record(self):
        sink = ListSink()
        sink.record("p", 5, 7, "m")
        assert sink.records[0].local_fs == 5
        assert sink.records[0].global_fs == 7


class TestStreamingSinks:
    @pytest.mark.parametrize("max_buffered", [1, 2, 100])
    def test_digest_matches_list_sink(self, max_buffered):
        reference = ListSink()
        fill(reference, RECORDS)
        sink = DigestSink(max_buffered=max_buffered)
        fill(sink, RECORDS)
        assert len(sink) == len(reference)
        assert sink.digest() == reference.digest()
        if max_buffered < len(RECORDS):
            assert sink.spilled_runs > 0

    def test_empty_digest(self):
        assert DigestSink().digest() == EMPTY_TRACE_DIGEST == ListSink().digest()

    def test_sorted_lines_stream_in_key_order(self):
        sink = SpoolSink(max_buffered=2)
        fill(sink, RECORDS)
        reference = ListSink()
        fill(reference, RECORDS)
        assert sink.sorted_lines() == reference.sorted_lines()
        # The merge can be consumed more than once (one pass at a time).
        assert sink.sorted_lines() == reference.sorted_lines()

    def test_write_sorted_exports_the_reordered_trace(self):
        sink = SpoolSink(max_buffered=2)
        fill(sink, RECORDS)
        stream = io.StringIO()
        sink.write_sorted(stream)
        reference = ListSink()
        fill(reference, RECORDS)
        assert stream.getvalue() == "".join(
            line + "\n" for line in reference.sorted_lines()
        )

    def test_disabled_streaming_sink_drops_records(self):
        sink = DigestSink()
        sink.enabled = False
        fill(sink, RECORDS)
        assert len(sink) == 0

    def test_close_is_idempotent_and_releases_runs(self):
        sink = SpoolSink(max_buffered=1)
        fill(sink, RECORDS)
        assert sink.spilled_runs > 0
        sink.close()
        assert sink.spilled_runs == 0
        sink.close()

    def test_bad_buffer_size_rejected(self):
        with pytest.raises(ValueError, match="max_buffered"):
            DigestSink(max_buffered=0)


class TestNameCache:
    """A name that passed the reserved-character check once skips only
    that check: every record's date and message are still checked, with
    the exact error of :func:`encode_entry`."""

    BAD_RECORDS = [
        ("p", 0, "a\x1fb"),
        ("p", 0, "two\nlines"),
        ("p", -1, "m"),
        ("p", 10 ** 20, "m"),
        ("new\x1fname", 0, "m"),
    ]

    @pytest.mark.parametrize("sink_type", [DigestSink, SpoolSink])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("bad", BAD_RECORDS)
    def test_cached_name_skips_no_check(self, sink_type, batched, bad):
        process, local_fs, message = bad
        with pytest.raises(ValueError) as defined:
            encode_entry(process, local_fs, message)
        sink = sink_type()
        sink.emit("p", 0, 0, "good")
        sink.emit_many("p", 0, [(1, "good too")])
        with pytest.raises(ValueError) as raised:
            if batched:
                sink.emit_many(process, 0, [(2, "fine"), (local_fs, message)])
            else:
                sink.emit(process, local_fs, 0, message)
        assert str(raised.value) == str(defined.value)
        # The failed record, and in a span every record of it, is dropped:
        # the count still matches the lines the digest covers.
        assert len(sink) == len(sink.sorted_lines()) == 2
        sink.close()

    def test_inline_encoding_equals_encode_entry(self):
        sink = DigestSink()
        sink.emit("p", 7, 0, "first")  # checked, then cached
        sink.emit("p", 1500, 0, "second")
        sink.emit_many("p", 0, [(10 ** 20 - 1, "last"), (0, "")])
        assert list(sink.iter_encoded()) == sorted([
            encode_entry("p", 7, "first"),
            encode_entry("p", 1500, "second"),
            encode_entry("p", 10 ** 20 - 1, "last"),
            encode_entry("p", 0, ""),
        ])


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2048, 2049, 5000])
def test_chunked_digest_across_chunk_boundaries(count):
    lines = [f"[{index} fs] p: m{index}" for index in range(count)]
    expected = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert trace_lines_digest(lines) == expected
    assert trace_lines_digest(line for line in lines) == expected


def test_spilled_runs_keep_carriage_returns_inside_messages():
    records = [("p", 5, "a\rb"), ("p", 3, "c\r"), ("q", 3, "e\x85f")]
    reference = ListSink()
    spilled = DigestSink(max_buffered=1)
    fill(reference, records)
    fill(spilled, records)
    assert spilled.spilled_runs == 3
    assert spilled.sorted_lines() == reference.sorted_lines()
    assert spilled.digest() == reference.digest()
    spilled.close()


class TestMakeSink:
    def test_all_kinds_constructible(self):
        for kind in SINK_KINDS:
            sink = make_sink(kind)
            assert sink.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace sink"):
            make_sink("csv")


class TestSimulatorIntegration:
    def test_default_sink_is_a_list_sink(self):
        assert isinstance(Simulator("plain").trace, ListSink)

    def test_digest_sink_simulation_matches_list_sink_simulation(self):
        def drive(sim):
            sim.log("hello")
            sim.log("world", local_time=ns(5))

        with_list = Simulator("with_list")
        drive(with_list)
        with_digest = Simulator("with_digest", trace_sink=DigestSink())
        drive(with_digest)
        assert with_digest.trace.digest() == with_list.trace.digest()
        assert len(with_digest.trace) == len(with_list.trace) == 2
