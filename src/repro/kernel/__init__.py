"""A SystemC-like discrete-event simulation kernel.

This package is the substrate of the reproduction: it provides simulated
time, events, thread and method processes, the delta-cycle scheduler,
hierarchical modules, ports, primitive channels, signals and tracing.  The
temporal-decoupling layer (:mod:`repro.td`) and the FIFO library
(:mod:`repro.fifo`) are built on top of it.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".channel": ("PrimitiveChannel",),
    ".context": (
        "clear_current_simulator", "current_process", "current_simulator",
        "current_simulator_or_none", "sc_time_stamp", "set_current_simulator",
    ),
    ".errors": (
        "BindingError", "ElaborationError", "FifoError", "ProcessError",
        "SchedulingError", "SimulationError", "TimingError", "TlmError",
    ),
    ".event": ("Event", "EventList", "all_of", "any_of"),
    ".module": ("Module",),
    ".port": ("Port",),
    ".process": (
        "MethodProcess", "ThreadProcess", "Timeout", "WaitDescriptor",
        "WaitEvent", "WaitEventList", "WaitEventOrTimeout",
    ),
    ".signal": ("Signal",),
    ".simtime": (
        "FS", "MS", "NS", "PS", "SEC", "US", "SimTime", "TimeUnit",
        "ZERO_TIME", "as_time", "fs", "ms", "ns", "ps", "sec", "us",
    ),
    ".simulator": ("Simulator", "simulate"),
    ".stats": ("KernelStats",),
    ".tracing": (
        "DigestSink", "ListSink", "NullSink", "SINK_KINDS", "SpoolSink",
        "TraceCollector", "TraceRecord", "TraceSink", "VcdWriter",
        "make_sink", "trace_lines_digest",
    ),
})
