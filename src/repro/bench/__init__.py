"""Unified benchmark harness: figure runner, records, regression gate.

``python -m repro bench`` drives every figure/table sweep of the paper
through one harness (:mod:`repro.bench.runner`), writes a fingerprinted
machine-readable record plus a markdown report
(:mod:`repro.bench.record`), and can gate the run against a prior
baseline record (:mod:`repro.bench.regression`).  ``--full`` regenerates
the paper-size tables; the paper-shape assertions live in
``tests/integration/test_paper_shapes.py``.  The resource accounting
smoke checks live in :mod:`repro.bench.invariants`.
"""

from repro.bench.runner import (  # noqa: F401
    FIGURES,
    FIGURE_SCHEMES,
    BenchScale,
    FULL_SCALE,
    QUICK_SCALE,
    run_bench,
)

__all__ = [
    "FIGURES",
    "FIGURE_SCHEMES",
    "BenchScale",
    "FULL_SCALE",
    "QUICK_SCALE",
    "run_bench",
]
