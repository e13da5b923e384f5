"""Diff sides: turning artifacts and live runs into comparable shapes.

A :class:`DiffSide` is the engine's input: an ordered set of *points*
keyed so the two sides align — ``(figure, scheme, workload, cores,
params…)`` for bench records, ``(workload, scheme, cores…)`` for scale
records, ``(fleet, scheme)`` for fleet records, and ``(workload,
cores…)`` (scheme deliberately excluded) for live pairs, so an
``identity-strict`` run lines up against a ``copy`` run of the same
load.  Each point carries its flattenable metric payload and its units
of work; span trees and request tail reports ride alongside when the
source has them (live captures always do; bench records carry spans
per figure × scheme; scale/fleet records carry neither).

Three constructors cover the CLI's modes:

* :func:`load_side` / :func:`side_from_record` — any persisted artifact
  (``BENCH_*.json``, ``scale.json``, ``fleet.json``), dispatched on
  shape;
* :func:`side_from_capture` — one completed instrumented run (how
  ``repro report`` reuses its tail-attribution captures);
* :func:`run_live_pair` — run two schemes under identical load, one
  process each when ``jobs > 1``; results merge in fixed order so the
  built sides are identical at any job count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import SpanNode

#: Live-pair sizings (mirrors the bench/scale quick/full convention).
LIVE_SIZINGS: Dict[str, Dict[str, int]] = {
    "quick": {"cores": 8, "size": 16384, "units": 80, "warmup": 20},
    "full": {"cores": 16, "size": 16384, "units": 300, "warmup": 60},
}

#: Workloads a live diff can drive.
LIVE_WORKLOADS = ("stream", "stream-tx", "rr", "memcached", "storage")

Key = Tuple[str, ...]


@dataclass
class Point:
    """One comparable measurement point of a side."""

    metrics: Dict[str, object]
    units: int = 1
    spans: Optional[SpanNode] = None
    tail: Optional[Dict[str, object]] = None


@dataclass
class DiffSide:
    """One side of a comparison: labeled, keyed points."""

    label: str
    kind: str                                  # bench | scale | fleet | live
    points: Dict[Key, Point] = field(default_factory=dict)

    def keys(self) -> List[Key]:
        return sorted(self.points)


def key_label(key: Key) -> str:
    return " ".join(key)


# ----------------------------------------------------------------------
# Persisted artifacts.
# ----------------------------------------------------------------------
def _bench_row_key(figure: str, row: Dict) -> Key:
    # param_cores would duplicate the explicit cores element.
    params = [f"{k[len('param_'):]}={row[k]}"
              for k in sorted(row)
              if k.startswith("param_") and k != "param_cores"]
    return (figure, str(row.get("scheme")), str(row.get("workload")),
            f"cores={row.get('cores')}", *params)


def _side_from_bench(record: Dict, label: str) -> DiffSide:
    side = DiffSide(label=label, kind="bench")
    for figure, data in record.get("figures", {}).items():
        scheme_units: Dict[str, int] = {}
        for row in data.get("series", ()):
            key = _bench_row_key(figure, row)
            units = int(row.get("units") or 1)
            side.points[key] = Point(metrics=dict(row), units=units)
            scheme = str(row.get("scheme"))
            scheme_units[scheme] = scheme_units.get(scheme, 0) + units
        for scheme, tree in (data.get("spans") or {}).items():
            key = (figure, str(scheme), "spans")
            side.points[key] = Point(
                metrics={}, units=max(1, scheme_units.get(scheme, 1)),
                spans=SpanNode.from_dict(tree))
    return side


def _side_from_scale(record: Dict, label: str) -> DiffSide:
    side = DiffSide(label=label, kind="scale")
    workload = str(record.get("workload", "?"))
    for scheme, points in record.get("points", {}).items():
        for point in points:
            key = (workload, str(scheme), f"cores={point.get('cores')}")
            side.points[key] = Point(metrics=dict(point),
                                     units=int(point.get("units") or 1))
    for scheme, analysis in (record.get("analysis") or {}).items():
        side.points[("analysis", str(scheme))] = Point(
            metrics=dict(analysis))
    return side


def _side_from_fleet(record: Dict, label: str) -> DiffSide:
    side = DiffSide(label=label, kind="fleet")
    for scheme, entry in record.get("capacity", {}).items():
        side.points[("fleet", str(scheme))] = Point(metrics=dict(entry))
    return side


def side_from_record(record: Dict, label: str) -> DiffSide:
    """Build a side from any persisted record, dispatched on shape."""
    if "points" in record:
        return _side_from_scale(record, label)
    if "capacity" in record:
        return _side_from_fleet(record, label)
    return _side_from_bench(record, label)


def load_side(path: str, label: Optional[str] = None) -> DiffSide:
    """Load an artifact (validated like any bench record) as a side."""
    from repro.bench.record import load_record

    return side_from_record(load_record(path), label or path)


# ----------------------------------------------------------------------
# Live runs.
# ----------------------------------------------------------------------
def side_from_capture(result, obs, label: str,
                      key: Optional[Key] = None,
                      tail_percentile: float = 99.0) -> DiffSide:
    """One instrumented run as a side (scheme excluded from the key, so
    different schemes under the same load align point-to-point)."""
    from repro.obs.requests import tail_report
    from repro.stats.export import result_to_row

    metrics: Dict[str, object] = {"row": result_to_row(result)}
    for section in ("metrics", "locks", "exposure"):
        data = result.extras.get(section)
        if isinstance(data, dict):
            metrics[section] = data
    if key is None:
        key = (str(result.workload), f"cores={result.cores}")
    side = DiffSide(label=label, kind="live")
    side.points[key] = Point(
        metrics=metrics, units=int(result.units or 1),
        spans=obs.spans.tree(),
        tail=tail_report(obs.requests, percentile=tail_percentile))
    return side


def _run_live(workload: str, scheme: str, cores: int, size: int,
              units: int, warmup: int):
    """Run one instrumented workload; returns ``(result, obs)``."""
    from repro.bench.runner import _TRACE_CAPACITY
    from repro.obs.context import Observability
    from repro.workloads.memcached import MemcachedConfig, run_memcached
    from repro.workloads.netperf import (RRConfig, StreamConfig,
                                         run_tcp_rr, run_tcp_stream)
    from repro.workloads.storage import StorageConfig, run_storage

    obs = Observability.capture(trace_capacity=_TRACE_CAPACITY)
    if workload in ("stream", "stream-tx"):
        result = run_tcp_stream(StreamConfig(
            scheme=scheme,
            direction="rx" if workload == "stream" else "tx",
            message_size=size, cores=cores, units_per_core=units,
            warmup_units=warmup, obs=obs))
    elif workload == "rr":
        result = run_tcp_rr(RRConfig(
            scheme=scheme, message_size=size, transactions=units,
            warmup_transactions=warmup, obs=obs))
    elif workload == "memcached":
        result = run_memcached(MemcachedConfig(
            scheme=scheme, cores=cores, value_size=size,
            transactions_per_core=units, warmup_transactions=warmup,
            obs=obs))
    elif workload == "storage":
        result = run_storage(StorageConfig(
            scheme=scheme, block_size=size, cores=cores,
            ops_per_core=units, warmup_ops=warmup, obs=obs))
    else:
        raise SystemExit(f"error: unknown diff workload {workload!r}; "
                         f"choices: {', '.join(LIVE_WORKLOADS)}")
    return result, obs


def _live_worker(task: Tuple[str, str, int, int, int, int, float]
                 ) -> Tuple[str, Dict, float]:
    """Top-level (hence picklable) worker: one live side, serialized.

    Everything crossing the process boundary is plain JSON-able data;
    the parent rebuilds the :class:`SpanNode` tree, so the built side
    is identical whether the run happened in-process or in a worker.
    """
    workload, scheme, cores, size, units, warmup, tail_pct = task
    t0 = time.perf_counter()
    result, obs = _run_live(workload, scheme, cores, size, units, warmup)
    side = side_from_capture(result, obs, label=scheme,
                             tail_percentile=tail_pct)
    key, point = next(iter(side.points.items()))
    payload = {
        "key": list(key),
        "metrics": point.metrics,
        "units": point.units,
        "spans": point.spans.to_dict() if point.spans is not None else None,
        "tail": point.tail,
    }
    return scheme, payload, time.perf_counter() - t0


def _rebuild_side(scheme: str, payload: Dict) -> DiffSide:
    side = DiffSide(label=scheme, kind="live")
    spans = (SpanNode.from_dict(payload["spans"])
             if payload.get("spans") is not None else None)
    side.points[tuple(payload["key"])] = Point(
        metrics=payload["metrics"], units=int(payload["units"]),
        spans=spans, tail=payload.get("tail"))
    return side


def run_live_pair(workload: str, scheme_a: str, scheme_b: str,
                  cores: int, size: int, units: int, warmup: int,
                  tail_percentile: float = 99.0, jobs: int = 1,
                  quiet: bool = False) -> Tuple[DiffSide, DiffSide]:
    """Run both schemes under identical load; returns ``(A, B)``.

    ``jobs > 1`` runs the two sides in separate processes; results
    always round-trip through the same serialized form and merge in
    fixed (A, B) order, so the pair is byte-identical at any job count.
    """
    import sys

    from repro.bench.runner import run_tasks

    tasks: Sequence[Tuple] = (
        (workload, scheme_a, cores, size, units, warmup, tail_percentile),
        (workload, scheme_b, cores, size, units, warmup, tail_percentile),
    )
    built: List[Tuple[str, Dict]] = []

    def note(scheme: str, payload: Dict, elapsed: float) -> None:
        built.append((scheme, payload))
        if not quiet:
            print(f"[diff] {scheme:<18} {workload} cores={cores} "
                  f"{elapsed:5.1f}s", file=sys.stderr)

    run_tasks(_live_worker, tasks, jobs, note)
    return (_rebuild_side(*built[0]), _rebuild_side(*built[1]))
