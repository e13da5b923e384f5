"""Core-count sweep orchestration: ``python -m repro scale``.

The scalability observatory's front door.  A *sweep* runs one workload
under each requested scheme at each requested core count — every point
an independent, deterministic simulation under a capturing
:class:`~repro.obs.context.Observability` — and hands the recorded data
to :mod:`repro.obs.scaling` for the post-hoc analysis: speedup curves,
Amdahl/USL serial-fraction fits, the per-lock contention matrix, and
the invalidation-queue decomposition.

Points are independent, so ``--jobs N`` distributes them over worker
processes exactly like the bench fan-out (top-level picklable worker,
results merged in task order) — the written record is byte-identical at
any job count once the host-dependent fields are stripped
(:func:`repro.bench.record.stable_view` applies unchanged, which is
what ``tests/bench/test_scale.py`` asserts).

Artifacts land as fixed-name ``scale.json`` + ``scale.md`` (CI uploads
the JSON next to the bench records; fixed names keep the workflow glob
trivial and repeated sweeps diffable).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.record import SCHEMA_VERSION, build_record
from repro.bench.runner import (
    _throughput_entry,
    _TRACE_CAPACITY,
    default_results_dir,
    run_tasks,
)
from repro.dma.registry import ALL_SCHEMES, PAPER_ALIASES
from repro.obs.context import Observability
from repro.obs.scaling import (
    analyze_scheme,
    contention_matrix,
    queueing_rows,
    render_contention_matrix,
    render_fit_table,
    render_queueing_table,
    render_speedup_table,
    serialized_shares,
)
from repro.obs.spans import SPAN_LOCK_WAIT
from repro.sim.units import cycles_to_us
from repro.stats.results import RunResult
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import StreamConfig, run_tcp_stream
from repro.workloads.storage import StorageConfig, run_storage

#: The ROADMAP's target sweep for the "strict vs per-core vs copy" figure.
DEFAULT_CORES = (1, 2, 4, 8, 16, 32, 64)

#: Workloads the sweep can drive.
SCALE_WORKLOADS = ("stream", "stream-tx", "storage", "memcached")


@dataclass(frozen=True)
class ScaleSizing:
    """Work per sweep point (fixed *per core*, so aggregate throughput
    ratios are speedups)."""

    name: str
    units_per_core: int
    warmup_units: int
    message_size: int
    storage_block_size: int
    memcached_value_size: int


#: CI smoke sizing: a strict-vs-copy 1/2/4 sweep in a few seconds.
QUICK_SIZING = ScaleSizing(
    name="quick", units_per_core=60, warmup_units=15,
    message_size=16384, storage_block_size=4096,
    memcached_value_size=4096)

#: Report sizing: stable curves through 64 cores.
FULL_SIZING = ScaleSizing(
    name="full", units_per_core=200, warmup_units=40,
    message_size=16384, storage_block_size=4096,
    memcached_value_size=4096)

SIZINGS = {"quick": QUICK_SIZING, "full": FULL_SIZING}


# ----------------------------------------------------------------------
# One sweep point.
# ----------------------------------------------------------------------
def _lock_wait_paths(tree) -> List[Dict[str, object]]:
    """Span paths ending in ``lock_wait``, with their inclusive cycles —
    the "where in the stack does the spinning happen" evidence the
    report attaches to the top contended lock."""
    paths: List[Dict[str, object]] = []
    for path, node in tree.walk():
        if path and path[-1] == SPAN_LOCK_WAIT and node.total_cycles:
            # Drop the synthetic "run" root from the display path.
            paths.append({"path": list(path[1:]),
                          "cycles": node.total_cycles,
                          "count": node.count})
    paths.sort(key=lambda p: (-int(p["cycles"]), p["path"]))
    return paths


def _invalidation_section(result: RunResult) -> Dict[str, object]:
    """The queueing-decomposition inputs recorded by the workload."""
    extras = result.extras
    completions = int(extras.get("inv_hw_completions") or 0)
    service = int(extras.get("inv_hw_service_cycles") or 0)
    delay = int(extras.get("inv_hw_queue_delay_cycles") or 0)
    wall_us = cycles_to_us(result.wall_cycles) if result.wall_cycles else 0.0
    depth = {}
    metrics = extras.get("metrics")
    if isinstance(metrics, dict):
        depth = (metrics.get("series") or {}).get(
            "invalidation.queue_depth") or {}
    return {
        "submissions": completions,
        "arrival_rate_per_us": (round(completions / wall_us, 6)
                                if wall_us > 0 else 0.0),
        "mean_service_cycles": (round(service / completions, 2)
                                if completions else 0.0),
        "mean_queue_delay_cycles": (round(delay / completions, 2)
                                    if completions else 0.0),
        "queue_depth_mean": depth.get("mean", 0.0),
        "queue_depth_max": depth.get("max", 0),
    }


def _run_point(workload: str, scheme: str, cores: int,
               sizing: ScaleSizing) -> Dict[str, object]:
    """Run one (scheme, cores) point and flatten it into a point dict."""
    obs = Observability.capture(trace_capacity=_TRACE_CAPACITY)
    if workload in ("stream", "stream-tx"):
        result = run_tcp_stream(StreamConfig(
            scheme=scheme,
            direction="rx" if workload == "stream" else "tx",
            message_size=sizing.message_size, cores=cores,
            units_per_core=sizing.units_per_core,
            warmup_units=sizing.warmup_units, obs=obs))
    elif workload == "storage":
        result = run_storage(StorageConfig(
            scheme=scheme, block_size=sizing.storage_block_size,
            cores=cores, ops_per_core=sizing.units_per_core,
            warmup_ops=sizing.warmup_units, obs=obs))
    elif workload == "memcached":
        result = run_memcached(MemcachedConfig(
            scheme=scheme, cores=cores,
            value_size=sizing.memcached_value_size,
            transactions_per_core=sizing.units_per_core,
            warmup_transactions=sizing.warmup_units, obs=obs))
    else:
        raise SystemExit(f"error: unknown scale workload {workload!r}; "
                         f"choices: {', '.join(SCALE_WORKLOADS)}")
    lock_wait_share, serial_fraction = serialized_shares(
        result.breakdown_cycles, result.busy_cycles)
    return {
        "cores": cores,
        "units": result.units,
        "payload_bytes": result.payload_bytes,
        "wall_cycles": result.wall_cycles,
        "busy_cycles": result.busy_cycles,
        "throughput_gbps": round(result.throughput_gbps, 6),
        "breakdown_cycles": dict(result.breakdown_cycles),
        "lock_wait_share": round(lock_wait_share, 6),
        "scaling_serial_fraction": round(serial_fraction, 6),
        "locks": result.extras.get("locks") or {},
        "invalidation": _invalidation_section(result),
        "lock_wait_paths": _lock_wait_paths(obs.spans.tree()),
    }


def _point_worker(task: Tuple[str, str, int, ScaleSizing]
                  ) -> Tuple[str, int, Dict[str, object], float]:
    """Top-level (hence picklable) per-process worker: one sweep point."""
    workload, scheme, cores, sizing = task
    t0 = time.perf_counter()
    point = _run_point(workload, scheme, cores, sizing)
    return scheme, cores, point, time.perf_counter() - t0


# ----------------------------------------------------------------------
# Sweep orchestration.
# ----------------------------------------------------------------------
def resolve_schemes(schemes: Sequence[str]) -> List[str]:
    """Canonicalize scheme names (paper aliases allowed), fail fast."""
    resolved: List[str] = []
    for name in schemes:
        canonical = PAPER_ALIASES.get(name, name)
        if canonical not in ALL_SCHEMES:
            raise SystemExit(
                f"error: unknown scheme {name!r}; "
                f"choices: {', '.join(sorted(ALL_SCHEMES))}")
        if canonical not in resolved:
            resolved.append(canonical)
    if not resolved:
        raise SystemExit("error: no schemes to sweep")
    return resolved


def resolve_cores(cores: Sequence[int]) -> List[int]:
    """Validated, sorted, de-duplicated core counts."""
    unique = sorted(set(cores))
    if not unique:
        raise SystemExit("error: no core counts to sweep")
    if unique[0] < 1:
        raise SystemExit(f"error: core counts must be positive: {unique[0]}")
    return unique


def build_sweep(workload: str, schemes: Sequence[str],
                cores: Sequence[int], sizing: ScaleSizing,
                jobs: int = 1, label: str = "scale",
                ) -> Tuple[Dict[str, List[Dict]], Dict[str, dict]]:
    """Run every (scheme, cores) point; returns ``(points, throughput)``.

    Points fan out through :func:`repro.bench.runner.run_tasks` and
    merge back **in task order**, so the result is deterministic at any
    ``jobs`` count.  The throughput section sums per-point wall times
    (not makespan), comparable across job counts the way the bench
    section is.
    """
    tasks = [(workload, scheme, n, sizing)
             for scheme in schemes for n in cores]
    built: Dict[Tuple[str, int], Tuple[Dict, float]] = {}

    def note(scheme: str, n: int, point: Dict, elapsed: float) -> None:
        built[(scheme, n)] = (point, elapsed)
        print(f"[{label}] {scheme:<18} cores={n:<3} "
              f"{point['throughput_gbps']:8.2f} Gb/s  {elapsed:5.1f}s",
              file=sys.stderr)

    run_tasks(_point_worker, tasks, jobs, note)

    points: Dict[str, List[Dict]] = {
        scheme: [built[(scheme, n)][0] for n in cores]
        for scheme in schemes}
    every = [point for per_scheme in points.values() for point in per_scheme]
    total_sim = sum(point["wall_cycles"] for point in every)
    total_units = sum(point["units"] for point in every)
    total_wall = sum(elapsed for _, elapsed in built.values())
    throughput = {"overall": _throughput_entry(total_sim, total_units,
                                               total_wall)}
    return points, throughput


def build_scale_record(workload: str, schemes: Sequence[str],
                       cores: Sequence[int], sizing: ScaleSizing,
                       points: Dict[str, List[Dict]],
                       throughput: Dict[str, dict]) -> Dict:
    """Assemble the scale record (same envelope as a bench record, so
    :func:`repro.bench.record.stable_view` strips the same fields)."""
    record = build_record(mode=f"scale-{sizing.name}", figures={},
                          schemes=schemes, throughput=throughput)
    assert record["schema_version"] == SCHEMA_VERSION
    record["workload"] = workload
    record["cores"] = list(cores)
    record["points"] = points
    record["analysis"] = {
        scheme: analyze_scheme(scheme, points[scheme]).to_dict()
        for scheme in schemes}
    record["contention"] = {
        scheme: contention_matrix(points[scheme]) for scheme in schemes}
    record["queueing"] = {
        scheme: queueing_rows(points[scheme]) for scheme in schemes}
    return record


# ----------------------------------------------------------------------
# Markdown report.
# ----------------------------------------------------------------------
def _top_lock_evidence(scheme: str, points: List[Dict]) -> List[str]:
    """Span paths behind the widest point's heaviest lock waiting."""
    if not points:
        return []
    widest = max(points, key=lambda p: int(p["cores"]))
    paths = widest.get("lock_wait_paths") or []
    if not paths:
        return []
    lines = [f"Span paths of the lock waiting at {widest['cores']} cores "
             f"({scheme}):", ""]
    for entry in paths[:4]:
        path = " → ".join(entry["path"])
        lines.append(f"- `{path}` — {entry['cycles']:,} cycles "
                     f"across {entry['count']:,} waits")
    lines.append("")
    return lines


def render_scale_report(record: Dict) -> str:
    """The human-facing scaling report (written as ``scale.md``)."""
    schemes = list(record.get("points", {}))
    analyses = [analyze_scheme(s, record["points"][s]) for s in schemes]
    fp = record.get("fingerprint", {})
    lines = [
        "# Scaling report",
        "",
        f"- workload: `{record.get('workload', '?')}`",
        f"- cores: {', '.join(str(n) for n in record.get('cores', ()))}",
        f"- schemes: {', '.join(schemes)}",
        f"- mode: `{fp.get('mode', '?')}`",
        f"- git SHA: `{fp.get('git_sha', '?')}`",
        "",
        "## Speedup (aggregate throughput vs the smallest core count)",
        "",
        *render_speedup_table(analyses),
        "",
        "## Serial-fraction fits",
        "",
        *render_fit_table(analyses),
        "",
        "Amdahl's ``s`` is the fitted serial fraction; USL's κ > 0 "
        "means the model predicts throughput *degrades* past the peak "
        "core count.  `lock-wait share` is the measured spinlock share "
        "of busy cycles at the widest sweep point.",
        "",
    ]
    for scheme in schemes:
        points = record["points"][scheme]
        lines.extend([
            f"## {scheme}: contention matrix",
            "",
            *render_contention_matrix(
                record.get("contention", {}).get(scheme, ())),
            "",
            *_top_lock_evidence(scheme, points),
            f"### {scheme}: invalidation-queue decomposition",
            "",
            *render_queueing_table(
                record.get("queueing", {}).get(scheme, ())),
            "",
        ])
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# Entry point (the ``repro scale`` subcommand).
# ----------------------------------------------------------------------
def run_scale(workload: str = "stream",
              schemes: Sequence[str] = ("identity-strict", "copy"),
              cores: Sequence[int] = DEFAULT_CORES,
              mode: str = "quick", jobs: int = 1,
              out_dir: Optional[str] = None) -> int:
    """Run the sweep, write ``scale.json`` + ``scale.md``, print the
    ranking verdict.  Returns the process exit status."""
    sizing = SIZINGS.get(mode)
    if sizing is None:
        raise SystemExit(f"error: unknown scale mode {mode!r}; "
                         f"choices: {', '.join(SIZINGS)}")
    if workload not in SCALE_WORKLOADS:
        raise SystemExit(f"error: unknown scale workload {workload!r}; "
                         f"choices: {', '.join(SCALE_WORKLOADS)}")
    scheme_list = resolve_schemes(schemes)
    core_list = resolve_cores(cores)

    started = time.perf_counter()
    points, throughput = build_sweep(workload, scheme_list, core_list,
                                     sizing, jobs=jobs)
    record = build_scale_record(workload, scheme_list, core_list, sizing,
                                points, throughput)

    out = out_dir or default_results_dir()
    os.makedirs(out, exist_ok=True)
    json_path = os.path.join(out, "scale.json")
    with open(json_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
    md_path = os.path.join(out, "scale.md")
    with open(md_path, "w") as fh:
        fh.write(render_scale_report(record))

    ranked = sorted(record["analysis"].items(),
                    key=lambda kv: -(kv[1]["fit"]["serial_fraction"] or 0.0))
    print(f"[scale] {len(scheme_list)}×{len(core_list)} points in "
          f"{time.perf_counter() - started:.1f}s (jobs={jobs})")
    for scheme, analysis in ranked:
        s = analysis["fit"]["serial_fraction"]
        s_text = "-" if s is None else f"{s:.3f}"
        top = analysis["top_lock"] or "-"
        print(f"[scale] {scheme:<18} serial fraction {s_text:<6} "
              f"top lock {top}")
    print(f"[scale] record : {json_path}")
    print(f"[scale] report : {md_path}")
    return 0
