"""Unit tests for the shared workload machinery (TimingMode, advance)."""

import pytest

from repro.fifo.arbiter import ReadArbiter, WriteArbiter
from repro.fifo.regular_fifo import RegularFifo
from repro.fifo.smart_fifo import SmartFifo
from repro.kernel import Simulator
from repro.kernel.simtime import TimeUnit
from repro.kernel.tracing import TraceRecord
from repro.td import GlobalQuantum
from repro.td.local_time import get_local_time_manager
from repro.workloads import TimingMode, WorkloadModule


class Stepper(WorkloadModule):
    """Calls advance() a fixed number of times and records the dates."""

    def __init__(self, parent, name, timing, steps=4, step_ns=10):
        super().__init__(parent, name, timing)
        self.steps = steps
        self.step_ns = step_ns
        self.kernel_dates = []
        self.local_dates = []
        self.create_thread(self.run)

    def run(self):
        for _ in range(self.steps):
            yield from self.advance(self.step_ns)
            self.kernel_dates.append(self.now.to(TimeUnit.NS))
            self.local_dates.append(self.local_time_stamp().to(TimeUnit.NS))
        self.mark_finished()
        self.checkpoint("done")


class TestTimingModeProperties:
    def test_is_timed_and_is_decoupled_flags(self):
        assert not TimingMode.UNTIMED.is_timed
        assert TimingMode.TIMED_WAIT.is_timed
        assert TimingMode.DECOUPLED.is_timed
        assert TimingMode.QUANTUM.is_timed
        assert TimingMode.DECOUPLED.is_decoupled
        assert TimingMode.QUANTUM.is_decoupled
        assert not TimingMode.TIMED_WAIT.is_decoupled
        assert not TimingMode.UNTIMED.is_decoupled


class TestAdvanceSemantics:
    def test_untimed_advance_costs_nothing(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.UNTIMED)
        sim.run()
        assert stepper.kernel_dates == [0.0] * 4
        assert stepper.local_dates == [0.0] * 4
        assert stepper.finish_time.femtoseconds == 0

    def test_timed_wait_advances_the_kernel_clock(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.TIMED_WAIT)
        sim.run()
        assert stepper.kernel_dates == [10.0, 20.0, 30.0, 40.0]
        assert stepper.finish_time.to(TimeUnit.NS) == 40.0
        # One context switch per annotation (plus the initial activation).
        assert sim.stats.context_switches == 5

    def test_decoupled_advance_only_moves_local_time(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.DECOUPLED)
        sim.run()
        assert stepper.kernel_dates == [0.0] * 4
        assert stepper.local_dates == [10.0, 20.0, 30.0, 40.0]
        assert stepper.finish_time.to(TimeUnit.NS) == 40.0
        assert sim.stats.context_switches == 1

    def test_quantum_advance_syncs_at_the_quantum(self, sim):
        GlobalQuantum.instance(sim).set(25, TimeUnit.NS)
        stepper = Stepper(sim, "stepper", TimingMode.QUANTUM, steps=6, step_ns=10)
        sim.run()
        # Synchronizations at 30 ns and 60 ns (offsets of 30 reach the 25 ns
        # quantum); local dates still advance by 10 ns per step.
        assert stepper.local_dates == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        assert stepper.kernel_dates == [0.0, 0.0, 30.0, 30.0, 30.0, 60.0]
        assert stepper.finish_time.to(TimeUnit.NS) == 60.0

    def test_checkpoint_records_local_date_for_decoupled_modules(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.DECOUPLED)
        sim.run()
        record = list(sim.trace)[-1]
        assert record.message == "done"
        assert record.local_fs == stepper.finish_time.femtoseconds
        assert record.global_fs == 0

    def test_checkpoint_records_kernel_date_for_timed_modules(self, sim):
        Stepper(sim, "stepper", TimingMode.TIMED_WAIT)
        sim.run()
        record = list(sim.trace)[-1]
        assert record.local_fs == record.global_fs


class Stamper(WorkloadModule):
    """Checkpoints while elaborating, then from a process whose stored
    local date is unset (-1), ahead of, equal to and behind the kernel
    date.  ``expected`` holds the record the ``log`` route stamps: the
    :class:`LocalTimeManager` local date in a decoupled mode, the kernel
    date otherwise."""

    def __init__(self, parent, name, timing):
        super().__init__(parent, name, timing)
        self.expected = []
        self.cases = []
        self.stamp("elaborating")
        self.create_thread(self.run)

    def stamp(self, message):
        sim = self.sim
        now_fs = sim.now_fs
        process = sim.scheduler.current_process
        if process is None:
            self.cases.append("no process")
        elif process.local_fs == -1:
            self.cases.append("unset")
        else:
            self.cases.append(
                "ahead" if process.local_fs > now_fs
                else "equal" if process.local_fs == now_fs else "behind"
            )
        if self.timing.is_decoupled:
            local_fs = get_local_time_manager(sim).local_fs(process)
        else:
            local_fs = now_fs
        self.expected.append(
            TraceRecord(local_fs, now_fs, sim.current_process_name(), message)
        )
        self.checkpoint(message)

    def run(self):
        ltm = get_local_time_manager(self.sim)
        process = self.sim.scheduler.current_process
        yield self.wait(10)
        self.stamp("never decoupled")
        ltm.advance_fs(process, 5 * TimeUnit.NS)
        self.stamp("ahead")
        ltm.set_synchronized(process)
        self.stamp("equal")
        yield self.wait(20)
        self.stamp("behind")


class TestCheckpointDates:
    @pytest.mark.parametrize("timing", list(TimingMode))
    def test_checkpoint_stamps_what_the_log_route_stamped(self, sim, timing):
        stamper = Stamper(sim, "stamper", timing)
        sim.run()
        assert stamper.cases == ["no process", "unset", "ahead", "equal", "behind"]
        assert sim.trace.records == stamper.expected
        # Only the "ahead" case tells the two stamping rules apart.
        ahead = stamper.expected[2]
        assert (ahead.local_fs > ahead.global_fs) == timing.is_decoupled


class TestQuantumKeeperLaziness:
    def test_quantum_keeper_created_on_demand(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.DECOUPLED)
        assert stepper._quantum_keeper is None
        keeper = stepper.quantum_keeper
        assert stepper.quantum_keeper is keeper


class Mover(WorkloadModule):
    """Writes ``words`` or drains ``count`` words through the burst
    helpers, with per-word checkpoints and read dates."""

    def __init__(self, parent, name, port, timing, burst, words=None,
                 count=0):
        super().__init__(parent, name, timing, burst)
        self.port = port
        self.words = words
        self.count = count
        self.received = []
        self.dates = []
        self.create_thread(self.run)

    def run(self):
        if self.words is not None:
            yield from self.burst_write(
                self.port, self.words, 3,
                message_fn=lambda _index, word: f"wr {word}",
            )
        else:
            self.received = yield from self.burst_read(
                self.port, self.count, [5, 7] * (self.count // 2),
                message_fn=lambda _index, word: f"rd {word}",
                dates_out=self.dates,
            )
        self.mark_finished()


def _spy_spans(monkeypatch, port, method, calls):
    """Append ``method`` to ``calls`` whenever ``port.method`` (a span
    entry point) is called."""
    original = getattr(port, method)

    def spy(*args, **kwargs):
        calls.append(method)
        return original(*args, **kwargs)

    monkeypatch.setattr(port, method, spy)


def _move(sim, monkeypatch, kind, timing, burst):
    """Run a 10-word writer/reader pair over a ``kind`` FIFO; return
    ``(fifo, reader, span_calls)``."""
    if kind == "regular":
        fifo = RegularFifo(sim, "fifo", depth=4)
    else:
        fifo = SmartFifo(sim, "fifo", depth=4)
    write_port, read_port = fifo, fifo
    if kind == "arbiter":
        write_port = WriteArbiter(sim, "write_arbiter", fifo)
        read_port = ReadArbiter(sim, "read_arbiter", fifo)
    calls = []
    _spy_spans(monkeypatch, write_port, "write_burst", calls)
    _spy_spans(monkeypatch, read_port, "read_burst", calls)
    words = list(range(10))
    Mover(sim, "writer", write_port, timing, burst, words=words)
    reader = Mover(sim, "reader", read_port, timing, burst, count=len(words))
    sim.run()
    assert reader.received == words
    assert reader.items_processed == len(words)
    assert len(reader.dates) == len(words)
    return fifo, reader, calls


class TestBurstDispatch:
    """``burst_write``/``burst_read`` are the one place that picks span or
    word: spans only with ``burst`` set, in DECOUPLED mode, on a Smart FIFO
    or an arbiter in front of one."""

    @pytest.mark.parametrize("burst", (True, False))
    @pytest.mark.parametrize("timing", (TimingMode.DECOUPLED, TimingMode.TIMED_WAIT))
    @pytest.mark.parametrize("kind", ("smart", "arbiter", "regular"))
    def test_span_path_only_when_all_conditions_hold(
        self, monkeypatch, kind, timing, burst
    ):
        sim = Simulator("dispatch")
        fifo, _reader, calls = _move(sim, monkeypatch, kind, timing, burst)
        spans = burst and timing is TimingMode.DECOUPLED and kind != "regular"
        assert sorted(calls) == (["read_burst", "write_burst"] if spans else [])
        if kind == "smart":
            # The FIFO's own span counters: every routed access went
            # through write_burst/read_burst, none did in the word loop.
            routed = (fifo.burst_span_writes + fifo.burst_word_writes,
                      fifo.burst_span_reads + fifo.burst_word_reads)
            if spans:
                assert fifo.burst_span_writes > 0 and fifo.burst_span_reads > 0
            else:
                assert routed == (0, 0)
