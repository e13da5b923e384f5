"""Benchmark entry point: one workload, one process, one thread.

Run from the repository root::

    python3 simbench/run.py --workload rx16-capture --seed 1 \
        --seconds 30 --trace 0

Human-readable lines (metric spreads, the simulated-output digest,
accuracy beside the paper, error_rate) go to stdout first; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics with the benchmark's tracing off; ``--trace 1`` reports the
per-layer metrics from the traced run and writes its spans under
``simbench/out/``.  The simulator is imported from ``src/`` of the same
checkout; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_simulator():
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""
    sys.path[:0] = [SRC, ROOT]
    try:
        import repro
    except ImportError as exc:
        print(f"simbench: cannot import the simulator from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"simbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    _import_simulator()
    from simbench.measure import end_to_end, per_layer
    from simbench.suite import WORKLOADS, make_workload, run_pass

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    # Untimed warm-up: imports and first-call paths, on a tiny variant.
    run_pass(make_workload(args.workload, args.seed, tiny=True))
    workload = make_workload(args.workload, args.seed)
    if args.trace:
        out_dir = os.path.join(ROOT, "simbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        report = per_layer(workload, args.seconds, spans)
    else:
        report = end_to_end(workload, args.seconds)
    for line in report.lines:
        print(line)
    print(json.dumps(report.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
