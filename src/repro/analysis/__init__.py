"""Validation and evaluation harness.

* :mod:`repro.analysis.trace_diff` — the reorder-and-compare trace
  equivalence check of Section IV-A;
* :mod:`repro.analysis.stats` — wall-clock + kernel-counter measurement of
  simulation runs;
* :mod:`repro.analysis.reporting` — ASCII tables / CSV / text plots;
* :mod:`repro.analysis.experiments` — one driver per table and figure of
  the paper (Fig. 2/3 traces, Fig. 5 depth sweep, Section IV-C case study,
  plus the quantum and context-switch ablations).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".reporting": (
        "ascii_table", "csv_text", "dict_rows_table", "format_gain",
        "text_plot", "write_csv",
    ),
    ".stats": ("RunResult", "measure_run"),
    ".trace_diff": (
        "TraceComparison", "assert_equivalent", "compare_collectors",
        "compare_sorted_lines", "compare_spools", "compare_traces",
        "emission_order_changed", "sorted_lines",
    ),
})
