"""The trace digest is its definition.

A run's ``trace_digest`` is defined as the SHA-256 of its formatted trace
lines (``[<date>] <process>: <message>``), sorted by
``(local_fs, process, message)`` and joined with ``"\\n"``.  Every fast
path of the trace layer — the inline encoding of known names, the
per-date line prefixes of the streamed merge, the chunked hash, the
spilled runs — must hash exactly those bytes, and ``format_fs`` must print
every date exactly as the unit-enum loop of ``SimTime.__str__`` did.
"""

import hashlib
import io
from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.simtime import SimTime, TimeUnit, format_fs
from repro.kernel.tracing import DigestSink, ListSink, SpoolSink, trace_lines_digest

#: Exclusive upper bound of a streamable trace date (20 decimal digits).
_FS_LIMIT = 10 ** 20
_DISPLAY_UNITS = (TimeUnit.PS, TimeUnit.NS, TimeUnit.US, TimeUnit.MS, TimeUnit.SEC)


def _multiples_of(unit):
    return st.integers(1, (_FS_LIMIT - 1) // unit).map(lambda k: k * unit)


dates = st.one_of(
    st.just(0),
    st.integers(1, _FS_LIMIT - 1),
    *(_multiples_of(int(unit)) for unit in _DISPLAY_UNITS),
)
# Process names stay above the field separator; messages only avoid the
# separator and the newline.  Surrogates cannot be UTF-8 encoded at all.
names = st.text(
    st.characters(min_codepoint=0x20, blacklist_categories=("Cs",)), max_size=6
)
messages = st.text(
    st.characters(blacklist_characters="\x1f\n", blacklist_categories=("Cs",)),
    max_size=10,
)
traces = st.lists(st.tuples(names, dates, messages), max_size=40)


def enum_loop_str(femto):
    """``str(SimTime)`` as it was written before ``format_fs``."""
    for unit in (TimeUnit.SEC, TimeUnit.MS, TimeUnit.US, TimeUnit.NS, TimeUnit.PS):
        if femto != 0 and femto % int(unit) == 0:
            return f"{femto // int(unit)} {unit}"
    return f"{femto} fs"


def defined_lines(trace):
    ordered = sorted(trace, key=lambda record: (record[1], record[0], record[2]))
    return [
        f"[{enum_loop_str(local_fs)}] {process}: {message}"
        for process, local_fs, message in ordered
    ]


def fill(sink, trace, batched):
    if batched:
        for process, group in groupby(trace, key=lambda record: record[0]):
            sink.emit_many(process, 0, [(fs, message) for _, fs, message in group])
    else:
        for process, local_fs, message in trace:
            sink.emit(process, local_fs, 0, message)
    return sink


@given(femto=dates)
@settings(max_examples=300, deadline=None)
def test_format_fs_prints_what_the_enum_loop_printed(femto):
    assert format_fs(femto) == enum_loop_str(femto)
    assert str(SimTime.from_femtoseconds(femto)) == enum_loop_str(femto)


@given(
    trace=traces,
    max_buffered=st.integers(min_value=1, max_value=16),
    batched=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_every_digest_path_hashes_the_defined_bytes(trace, max_buffered, batched):
    lines = defined_lines(trace)
    expected = hashlib.sha256("\n".join(lines).encode()).hexdigest()

    listed = fill(ListSink(), trace, batched)
    digest_sink = fill(DigestSink(max_buffered=max_buffered), trace, batched)
    spool = fill(SpoolSink(max_buffered=max_buffered), trace, batched)
    assert trace_lines_digest(listed.sorted_lines()) == expected
    assert digest_sink.digest() == expected
    assert spool.digest() == expected
    assert len(digest_sink) == len(spool) == len(trace)

    exported = io.StringIO()
    spool.write_sorted(exported)
    assert exported.getvalue() == "".join(line + "\n" for line in lines)
    digest_sink.close()
    spool.close()

