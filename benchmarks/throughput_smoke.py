#!/usr/bin/env python3
"""CI throughput smoke: prove the simulator-speed metric is alive.

Builds one quick-scale figure through the same timed-run helper the
bench uses, asserts the gated ``units_per_wall_second`` is present
and nonzero, and writes the entry to ``benchmarks/results/throughput.json``
so it rides along with the bench artifacts.  Pick a different figure
with ``REPRO_THROUGHPUT_FIGURE``.
"""

from __future__ import annotations

import json
import os
import sys

try:
    from repro.bench.runner import (QUICK_SCALE, build_figures,
                                    select_figures)
except ImportError:
    sys.exit("error: the 'repro' package is not importable; run with "
             "PYTHONPATH=src (from the repository root) or install it")

FIGURE = os.environ.get("REPRO_THROUGHPUT_FIGURE", "fig05")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "results", "throughput.json")


def main() -> int:
    specs = select_figures([FIGURE])
    _, throughput = build_figures(specs, QUICK_SCALE, label="throughput")
    entry = throughput.get(FIGURE, {})
    rate = entry.get("units_per_wall_second")
    if not rate:
        print(f"error: units_per_wall_second missing or zero for "
              f"{FIGURE}: {entry!r}", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump({"figure": FIGURE, **entry}, fh, indent=2)
        fh.write("\n")
    print(f"[throughput] {FIGURE}: {entry['units']:,} units "
          f"in {entry['wall_seconds']}s = {rate:,} units/s "
          f"({entry['sim_cycles_per_wall_second']:,} sim cycles/s)")
    print(f"[throughput] written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
