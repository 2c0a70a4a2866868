"""repro — reproduction of *Fast and Accurate TLM Simulations using
Temporal Decoupling for FIFO-based Communications* (Helmstetter, Cornet,
Galilée, Moy, Vivet — DATE 2013).

The package is organised in layers:

* :mod:`repro.kernel` — a SystemC-like discrete-event simulation kernel
  (simulated time, events, thread/method processes, delta cycles, modules,
  ports, signals, tracing);
* :mod:`repro.td` — the temporal decoupling core (``inc`` / ``sync`` /
  ``local_time_stamp``, per-process local dates, global quantum keeper);
* :mod:`repro.fifo` — the FIFO library, including the paper's contribution,
  the :class:`~repro.fifo.smart_fifo.SmartFifo`;
* :mod:`repro.tlm` — a loosely-timed memory-mapped transport (generic
  payload, sockets, bus, memory, register banks, quantum keeper);
* :mod:`repro.soc` — the heterogeneous many-core case-study platform
  (control core, hardware accelerators, stream NoC, network interfaces);
* :mod:`repro.workloads` — the benchmark workloads (Fig. 5 streaming
  pipeline, video-like accelerator chains, random traffic);
* :mod:`repro.analysis` — the validation and evaluation harness
  (trace equivalence, run statistics, experiment drivers for every table
  and figure of the paper).

Every name this package and its subpackages re-export is imported on first
use (PEP 562 ``__getattr__``), so ``from repro import Simulator`` works as
always while a command that only lists specs never loads the kernel.

Quick start::

    from repro import Simulator, SmartFifo, DecoupledModule, ns

    sim = Simulator()

    class Writer(DecoupledModule):
        def __init__(self, parent, name, fifo):
            super().__init__(parent, name)
            self.fifo = fifo
            self.create_thread(self.run)

        def run(self):
            for value in (1, 2, 3):
                yield from self.fifo.write(value)
                self.inc(20, ns)           # timing annotation, no context switch

    ...
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".kernel": (
        "Event", "Module", "NS", "PS", "SimTime", "Simulator", "US",
        "ZERO_TIME", "fs", "ms", "ns", "ps", "sec", "us",
    ),
    ".kernel.simtime": ("TimeUnit",),
    ".td": (
        "DecoupledMixin", "DecoupledModule", "GlobalQuantum", "QuantumKeeper",
        "inc", "local_time_stamp", "sync",
    ),
    ".fifo": (
        "PacketSmartFifo", "ReadArbiter", "RegularFifo", "SmartFifo",
        "SyncFifo", "WriteArbiter",
    ),
})
__all__.append("__version__")
