"""The figure registry and runner behind ``python -m repro bench``.

Every figure/table of the paper is a :class:`FigureSpec` that runs at a
selectable scale (:data:`QUICK_SCALE` / :data:`FULL_SCALE`), captures
span-attribution trees per scheme, and feeds one fingerprinted record
(:mod:`repro.bench.record`) plus the optional regression gate
(:mod:`repro.bench.regression`).  :func:`run_tasks` is the one
process fan-out shared by ``bench``, ``report``, ``scale``, ``fleet``
and live ``diff``.  The paper-shape assertions on the same workloads
live in ``tests/integration/test_paper_shapes.py``.

Every run in the registry executes under a capturing
:class:`~repro.obs.context.Observability`; the zero-overhead guarantee
(``tests/obs/test_zero_overhead.py``) means the numbers are identical to
an uninstrumented run, so span capture is unconditionally on here.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.context import Observability
from repro.obs.spans import SpanNode, merge_span_trees
from repro.stats.export import result_to_row
from repro.stats.reporting import (
    render_breakdown_table,
    render_latency_table,
    render_memcached_table,
    render_throughput_table,
)
from repro.stats.results import RunResult
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import (
    PAPER_MESSAGE_SIZES,
    RRConfig,
    StreamConfig,
    run_tcp_rr,
    run_tcp_stream_rx,
    run_tcp_stream_tx,
)
from repro.workloads.storage import StorageConfig, run_storage

#: The four systems of the paper's figures, in the legend's order.
FIGURE_SCHEMES = ("no-iommu", "copy", "identity-deferred", "identity-strict")

#: Ring capacity for bench-mode capture.  Spans and metrics aggregate in
#: place; the event ring is only kept small and warm so record extras
#: stay cheap.
_TRACE_CAPACITY = 256

#: While a registry figure builds, the first point it runs under capture
#: lands here as ``(runner, config)``: the figure's capture-tax twins
#: rerun it with observability off and on.
_first_point: Optional[List[Tuple[Callable, object]]] = None


def default_results_dir() -> str:
    """Where reports/records land: ``$REPRO_BENCH_RESULTS`` or
    ``benchmarks/results`` under the current directory."""
    return (os.environ.get("REPRO_BENCH_RESULTS")
            or os.path.join(os.getcwd(), "benchmarks", "results"))


# ----------------------------------------------------------------------
# Scales: how much work each registry figure does.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchScale:
    """One sizing preset for the figure registry."""

    name: str
    units_single: int
    units_multi: int
    warmup_single: int
    warmup_multi: int
    multi_cores: int
    sizes_single: Tuple[int, ...]
    sizes_multi: Tuple[int, ...]
    breakdown_size: int
    rr_sizes: Tuple[int, ...]
    rr_transactions: int
    rr_warmup: int
    memcached_cores: int
    memcached_tpc: int
    memcached_warmup: int
    storage_block_sizes: Tuple[int, ...]
    storage_ops: int
    storage_warmup: int
    #: Core counts for the scalable-invalidation figure (fig_scalinv).
    scalinv_cores: Tuple[int, ...] = (1, 2)


#: ``--quick``: every figure in miniature; the whole registry plus the
#: invariant checks fits the <60 s smoke budget (``benchmarks/smoke.py``).
QUICK_SCALE = BenchScale(
    name="quick",
    units_single=200, units_multi=50,
    warmup_single=40, warmup_multi=15,
    multi_cores=16,
    sizes_single=(1024, 16384, 65536),
    sizes_multi=(16384,),
    breakdown_size=65536,
    rr_sizes=(1024, 65536),
    rr_transactions=60, rr_warmup=10,
    memcached_cores=8, memcached_tpc=40, memcached_warmup=10,
    storage_block_sizes=(4096, 65536),
    storage_ops=100, storage_warmup=20,
    scalinv_cores=(1, 4, 16),
)

#: ``--full``: paper-table sizes (1200/350 units per core, 120 warm-up).
FULL_SCALE = BenchScale(
    name="full",
    units_single=1200, units_multi=350,
    warmup_single=120, warmup_multi=120,
    multi_cores=16,
    sizes_single=PAPER_MESSAGE_SIZES,
    sizes_multi=PAPER_MESSAGE_SIZES,
    breakdown_size=65536,
    rr_sizes=PAPER_MESSAGE_SIZES,
    rr_transactions=300, rr_warmup=40,
    memcached_cores=16, memcached_tpc=450, memcached_warmup=100,
    storage_block_sizes=(4096, 65536, 262144),
    storage_ops=400, storage_warmup=60,
    scalinv_cores=(1, 2, 4, 8, 16, 32, 64),
)


# ----------------------------------------------------------------------
# Captured runs: every registry run records spans.
# ----------------------------------------------------------------------
def captured_run(runner: Callable, config
                 ) -> Tuple[RunResult, Observability]:
    """Run one registry point under a capturing context."""
    obs = Observability.capture(trace_capacity=_TRACE_CAPACITY)
    config.obs = obs
    if _first_point is not None and not _first_point:
        _first_point.append((runner, config))
    return runner(config), obs


def _captured(runner: Callable, config) -> Tuple[RunResult, SpanNode]:
    result, obs = captured_run(runner, config)
    return result, obs.spans.tree()


def _series_rows(figure: str,
                 results: Dict[str, List[RunResult]]) -> List[dict]:
    rows = []
    for per_scheme in results.values():
        for result in per_scheme:
            row = result_to_row(result)
            row["figure"] = figure
            rows.append(row)
    return rows


@dataclass(frozen=True)
class FigureSpec:
    """One registry entry: a named figure and how to run it."""

    name: str
    title: str
    build: Callable[[BenchScale], dict]


def _figure_data(spec_name: str, title: str,
                 results: Dict[str, List[RunResult]],
                 spans: Dict[str, SpanNode], report: str) -> dict:
    return {
        "title": title,
        "series": _series_rows(spec_name, results),
        "spans": {scheme: tree.to_dict() for scheme, tree in spans.items()},
        "report": report,
    }


def _stream_figure(name: str, title: str, direction: str,
                   multi: bool, breakdown: bool = False) -> FigureSpec:
    def build(scale: BenchScale) -> dict:
        cores = scale.multi_cores if multi else 1
        units = scale.units_multi if multi else scale.units_single
        warmup = scale.warmup_multi if multi else scale.warmup_single
        if breakdown:
            sizes: Tuple[int, ...] = (scale.breakdown_size,)
        else:
            sizes = scale.sizes_multi if multi else scale.sizes_single
        runner = run_tcp_stream_rx if direction == "rx" \
            else run_tcp_stream_tx
        results: Dict[str, List[RunResult]] = {}
        spans: Dict[str, SpanNode] = {}
        for scheme in FIGURE_SCHEMES:
            runs, trees = [], []
            for size in sizes:
                result, tree = _captured(runner, StreamConfig(
                    scheme=scheme, direction=direction, message_size=size,
                    cores=cores, units_per_core=units, warmup_units=warmup))
                runs.append(result)
                trees.append(tree)
            results[scheme] = runs
            spans[scheme] = merge_span_trees(trees)
        if breakdown:
            report = render_breakdown_table(
                {s: rs[0] for s, rs in results.items()}, title=title)
        else:
            report = render_throughput_table(results, title=title)
        return _figure_data(name, title, results, spans, report)

    return FigureSpec(name=name, title=title, build=build)


def _fig01_build(scale: BenchScale) -> dict:
    """Protection cost overview: RX at 16 KB on 1 and N cores."""
    results: Dict[str, List[RunResult]] = {}
    spans: Dict[str, SpanNode] = {}
    for scheme in FIGURE_SCHEMES:
        runs, trees = [], []
        for cores in (1, scale.multi_cores):
            units = scale.units_single if cores == 1 else scale.units_multi
            warmup = (scale.warmup_single if cores == 1
                      else scale.warmup_multi)
            result, tree = _captured(run_tcp_stream_rx, StreamConfig(
                scheme=scheme, message_size=16384, cores=cores,
                units_per_core=units, warmup_units=warmup))
            runs.append(result)
            trees.append(tree)
        results[scheme] = runs
        spans[scheme] = merge_span_trees(trees)
    lines = [_FIG01_TITLE,
             f"  {'scheme':<20}{'cores':>6}{'Gb/s':>10}{'us/unit':>10}"]
    for scheme, runs in results.items():
        for result in runs:
            lines.append(f"  {scheme:<20}{result.cores:>6}"
                         f"{result.throughput_gbps:>10.2f}"
                         f"{result.us_per_unit:>10.3f}")
    return _figure_data("fig01", _FIG01_TITLE, results, spans,
                        "\n".join(lines))


_FIG01_TITLE = "Figure 1: IOMMU protection cost, RX 16KB, 1 vs N cores"


def _fig09_build(scale: BenchScale) -> dict:
    results: Dict[str, List[RunResult]] = {}
    spans: Dict[str, SpanNode] = {}
    for scheme in FIGURE_SCHEMES:
        runs, trees = [], []
        for size in scale.rr_sizes:
            result, tree = _captured(run_tcp_rr, RRConfig(
                scheme=scheme, message_size=size,
                transactions=scale.rr_transactions,
                warmup_transactions=scale.rr_warmup))
            runs.append(result)
            trees.append(tree)
        results[scheme] = runs
        spans[scheme] = merge_span_trees(trees)
    report = render_latency_table(
        results, title="Figure 9: TCP_RR latency (netperf TCP_RR)")
    return _figure_data("fig09", "Figure 9: TCP_RR latency",
                        results, spans, report)


def _fig10_build(scale: BenchScale) -> dict:
    results: Dict[str, List[RunResult]] = {}
    spans: Dict[str, SpanNode] = {}
    for scheme in FIGURE_SCHEMES:
        result, tree = _captured(run_tcp_rr, RRConfig(
            scheme=scheme, message_size=scale.breakdown_size,
            transactions=scale.rr_transactions,
            warmup_transactions=scale.rr_warmup))
        results[scheme] = [result]
        spans[scheme] = tree
    report = render_breakdown_table(
        {s: rs[0] for s, rs in results.items()},
        title="Figure 10: TCP_RR CPU breakdown per transaction [us], 64KB")
    return _figure_data("fig10", "Figure 10: TCP_RR CPU breakdown",
                        results, spans, report)


def _fig11_build(scale: BenchScale) -> dict:
    results: Dict[str, List[RunResult]] = {}
    spans: Dict[str, SpanNode] = {}
    for scheme in FIGURE_SCHEMES:
        result, tree = _captured(run_memcached, MemcachedConfig(
            scheme=scheme, cores=scale.memcached_cores,
            transactions_per_core=scale.memcached_tpc,
            warmup_transactions=scale.memcached_warmup))
        results[scheme] = [result]
        spans[scheme] = tree
    report = render_memcached_table(
        {s: rs[0] for s, rs in results.items()},
        title="Figure 11: memcached + memslap")
    return _figure_data("fig11", "Figure 11: memcached",
                        results, spans, report)


def _storage_build(scale: BenchScale) -> dict:
    results: Dict[str, List[RunResult]] = {}
    spans: Dict[str, SpanNode] = {}
    for scheme in FIGURE_SCHEMES:
        runs, trees = [], []
        for block_size in scale.storage_block_sizes:
            result, tree = _captured(run_storage, StorageConfig(
                scheme=scheme, block_size=block_size,
                ops_per_core=scale.storage_ops,
                warmup_ops=scale.storage_warmup))
            runs.append(result)
            trees.append(tree)
        results[scheme] = runs
        spans[scheme] = merge_span_trees(trees)
    lines = ["Storage (§5.5): block I/O ops/s by block size",
             f"  {'scheme':<20}{'block':>8}{'ops/s':>12}{'Gb/s':>10}"]
    for scheme, runs in results.items():
        for result in runs:
            tps = result.transactions_per_sec or 0.0
            lines.append(
                f"  {scheme:<20}{result.params['block_size']:>8}"
                f"{tps:>12,.0f}{result.throughput_gbps:>10.2f}")
    return _figure_data("storage", "Storage block I/O", results, spans,
                        "\n".join(lines))


#: Schemes of the scalable-invalidation figure: the paper's strict
#: baseline, the three post-2016 remedies, and copy — the contenders in
#: "can smart zero-copy beat copy?".
SCALINV_SCHEMES = ("identity-strict", "identity-strict-percore",
                   "identity-strict-prefetch", "identity-deferred-bounded",
                   "copy")

_FIG_SCALINV_TITLE = ("Scalable invalidation: strict vs per-core queues "
                      "vs copy, RX 16KB core sweep")


def _fig_scalinv_build(scale: BenchScale) -> dict:
    """Strict vs the scalable-invalidation schemes vs copy, across cores.

    Exposure columns ride along in the series rows (the capturing
    observability is on for every registry run), so the record gates
    both sides of the trade: throughput scaling *and* stale-window
    byte·cycles per remedy.
    """
    results: Dict[str, List[RunResult]] = {}
    spans: Dict[str, SpanNode] = {}
    for scheme in SCALINV_SCHEMES:
        runs, trees = [], []
        for cores in scale.scalinv_cores:
            units = scale.units_single if cores == 1 else scale.units_multi
            warmup = (scale.warmup_single if cores == 1
                      else scale.warmup_multi)
            result, tree = _captured(run_tcp_stream_rx, StreamConfig(
                scheme=scheme, message_size=16384, cores=cores,
                units_per_core=units, warmup_units=warmup))
            runs.append(result)
            trees.append(tree)
        results[scheme] = runs
        spans[scheme] = merge_span_trees(trees)
    lines = [_FIG_SCALINV_TITLE,
             f"  {'scheme':<28}{'cores':>6}{'Gb/s':>10}{'us/unit':>10}"
             f"{'stale byte-cycles':>20}"]
    for scheme, runs in results.items():
        for result in runs:
            exposure = result.extras.get("exposure") or {}
            stale = exposure.get("stale_byte_cycles", 0)
            lines.append(f"  {scheme:<28}{result.cores:>6}"
                         f"{result.throughput_gbps:>10.2f}"
                         f"{result.us_per_unit:>10.3f}"
                         f"{stale:>20,}")
    return _figure_data("fig_scalinv", _FIG_SCALINV_TITLE, results, spans,
                        "\n".join(lines))


def _fleet_build(scale: BenchScale) -> dict:
    # Lazy import: repro.bench.fleet imports this module's helpers.
    from repro.bench.fleet import build_fleet_figure
    return build_fleet_figure()


#: The registry, in the paper's figure order.
FIGURES: Tuple[FigureSpec, ...] = (
    FigureSpec("fig01", _FIG01_TITLE, _fig01_build),
    _stream_figure("fig03", "Figure 3: single-core TCP RX",
                   "rx", multi=False),
    _stream_figure("fig04", "Figure 4: single-core TCP TX",
                   "tx", multi=False),
    _stream_figure("fig05", "Figure 5: single-core RX breakdown [us], 64KB",
                   "rx", multi=False, breakdown=True),
    _stream_figure("fig06", "Figure 6: 16-core TCP RX", "rx", multi=True),
    _stream_figure("fig07", "Figure 7: 16-core TCP TX", "tx", multi=True),
    _stream_figure("fig08", "Figure 8: 16-core RX breakdown [us], 64KB",
                   "rx", multi=True, breakdown=True),
    FigureSpec("fig09", "Figure 9: TCP_RR latency", _fig09_build),
    FigureSpec("fig10", "Figure 10: TCP_RR CPU breakdown", _fig10_build),
    FigureSpec("fig11", "Figure 11: memcached", _fig11_build),
    FigureSpec("storage", "Storage block I/O", _storage_build),
    FigureSpec("fleet", "Fleet capacity at the SLO", _fleet_build),
    FigureSpec("fig_scalinv", _FIG_SCALINV_TITLE, _fig_scalinv_build),
)

FIGURE_NAMES = tuple(spec.name for spec in FIGURES)


def select_figures(only: Optional[Sequence[str]]) -> List[FigureSpec]:
    """Resolve ``--only`` selections against the registry (fail fast)."""
    if not only:
        return list(FIGURES)
    by_name = {spec.name: spec for spec in FIGURES}
    unknown = [name for name in only if name not in by_name]
    if unknown:
        raise SystemExit(
            f"error: unknown figure(s) {', '.join(unknown)}; "
            f"choices: {', '.join(FIGURE_NAMES)}")
    return [by_name[name] for name in only]


def _figure_totals(figure: dict) -> Tuple[int, int]:
    """Total simulated cycles and work units behind one figure's rows."""
    rows = figure.get("series", ())
    return (sum(int(row.get("wall_cycles") or 0) for row in rows),
            sum(int(row.get("units") or 0) for row in rows))


def _throughput_entry(sim_cycles: int, units: int,
                      wall_seconds: float,
                      capture_tax: Optional[float] = None) -> dict:
    """One simulator-speed entry.  ``units_per_wall_second`` (simulated
    work units — segments, messages, transactions, I/Os — per host
    second) is the gated speed number; ``sim_cycles_per_wall_second``
    is report-only, because it rises when the *simulated* scheme is
    slower at equal work.  ``capture_tax``, when given, is report-only
    too: captured over uncaptured host seconds of one of the figure's
    points (see :func:`_capture_tax`)."""
    def per_second(count: int) -> int:
        return round(count / wall_seconds) if wall_seconds > 0 else 0

    entry = {
        "sim_cycles": sim_cycles,
        "units": units,
        "wall_seconds": round(wall_seconds, 3),
        "sim_cycles_per_wall_second": per_second(sim_cycles),
        "units_per_wall_second": per_second(units),
    }
    if capture_tax is not None:
        entry["capture_tax"] = capture_tax
    return entry


def run_tasks(worker: Callable[[Any], tuple], tasks: Sequence,
              jobs: int, note: Callable[..., None]) -> None:
    """Run ``worker`` on every task, over ``jobs`` processes, and hand
    each result to ``note`` **in task order** — the one fan-out behind
    ``bench``, ``report``, ``scale``, ``fleet`` and live ``diff``.

    ``worker`` must be a top-level (hence picklable) function returning
    a tuple; ``note(*result)`` runs in the calling process, so merged
    output is deterministic at any job count.  ``jobs == 1`` (or a
    single task) runs in-process.
    """
    if jobs < 1:
        raise SystemExit(f"error: jobs must be positive: {jobs}")
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            for result in pool.map(worker, tasks):
                note(*result)
    else:
        for task in tasks:
            note(*worker(task))


def _capture_tax(runner: Callable, config) -> Tuple[float, float]:
    """Rerun one point with observability off, then under capture, back
    to back; returns ``(captured / uncaptured seconds, both runs'
    seconds)``.  Both twins run after the figure, so neither pays the
    figure's first-use costs (imports, lazy set-up)."""
    t0 = time.perf_counter()
    runner(dataclasses.replace(config, obs=None))
    t1 = time.perf_counter()
    runner(dataclasses.replace(
        config, obs=Observability.capture(trace_capacity=_TRACE_CAPACITY)))
    t2 = time.perf_counter()
    return round((t2 - t1) / (t1 - t0), 3), t2 - t0


def _build_worker(task: Tuple[str, BenchScale]
                  ) -> Tuple[str, dict, float, Optional[float], float]:
    """Top-level (hence picklable) :func:`run_tasks` worker: build one
    figure; returns ``(name, data, build seconds, capture tax, twin
    seconds)``.

    The build is timed inside the worker so per-figure wall seconds mean
    the same thing at any job count.  The capture-tax twins rerun the
    figure's first captured point after the build's clock has stopped,
    so the build seconds and the gated units rate do not include them.
    """
    global _first_point
    name, scale = task
    spec = next(spec for spec in FIGURES if spec.name == name)
    _first_point = first = []
    try:
        t0 = time.perf_counter()
        data = spec.build(scale)
        elapsed = time.perf_counter() - t0
    finally:
        _first_point = None
    if not first:
        return name, data, elapsed, None, 0.0
    return (name, data, elapsed, *_capture_tax(*first[0]))


def build_figures(specs: Sequence[FigureSpec], scale: BenchScale,
                  jobs: int = 1, label: str = "bench",
                  ) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Build every figure, timed — THE shared timed-run helper behind
    ``bench`` and ``report`` (one implementation, so the two progress/
    timing paths cannot drift).

    Figures are independent, so ``jobs > 1`` simply distributes specs
    over worker processes; results are merged back **in spec order**,
    making both return values deterministic regardless of job count.
    Returns ``(figures, throughput)``: the per-figure record data plus a
    :func:`_throughput_entry` per figure and ``"overall"`` (summed
    figure build times, not makespan — comparable across job counts).
    """
    titles = {spec.name: spec.title for spec in specs}
    built: Dict[str, Tuple[dict, float, Optional[float]]] = {}
    twin_seconds = 0.0

    def note(name: str, data: dict, elapsed: float,
             tax: Optional[float], twins: float) -> None:
        nonlocal twin_seconds
        built[name] = (data, elapsed, tax)
        twin_seconds += twins
        print(f"[{label}] {name:<8} {titles[name]:<50} "
              f"{elapsed:6.1f}s", file=sys.stderr)

    run_tasks(_build_worker, [(spec.name, scale) for spec in specs],
              jobs, note)
    print(f"[{label}] capture-tax twins {twin_seconds:.1f}s "
          f"(not in the figure times)", file=sys.stderr)

    figures = {spec.name: built[spec.name][0] for spec in specs}
    throughput: Dict[str, dict] = {}
    total_sim, total_units, total_wall = 0, 0, 0.0
    for spec in specs:
        data, elapsed, tax = built[spec.name]
        sim, units = _figure_totals(data)
        total_sim += sim
        total_units += units
        total_wall += elapsed
        throughput[spec.name] = _throughput_entry(sim, units, elapsed, tax)
    throughput["overall"] = _throughput_entry(total_sim, total_units,
                                              total_wall)
    return figures, throughput


def run_bench(mode: str = "quick", only: Optional[Sequence[str]] = None,
              baseline: Optional[str] = None,
              out_dir: Optional[str] = None, jobs: int = 1) -> int:
    """Run the registry, write the record + report, optionally gate.

    ``jobs`` shards the figure matrix across processes; the merged
    record is byte-stable regardless of job count (modulo the timestamp
    and the wall-clock throughput fields).  Returns the process exit
    status: 0 on success, 1 when the baseline comparison found a
    regression.
    """
    # Imported here to keep the module importable without a cycle once
    # record/regression need runner metadata.
    from repro.bench.record import build_record, write_record
    from repro.bench.regression import gate_against_baseline

    scale = {"quick": QUICK_SCALE, "full": FULL_SCALE}.get(mode)
    if scale is None:
        raise SystemExit(f"error: unknown bench mode {mode!r}")
    if baseline is not None and not os.path.exists(baseline):
        raise SystemExit(f"error: baseline record not found: {baseline}")
    specs = select_figures(only)
    out = out_dir or default_results_dir()

    started = time.perf_counter()
    figures, throughput = build_figures(specs, scale, jobs=jobs,
                                        label="bench")
    record = build_record(mode=scale.name, figures=figures,
                          schemes=FIGURE_SCHEMES, throughput=throughput)
    json_path, md_path = write_record(record, out)
    rate = throughput["overall"]["units_per_wall_second"]
    print(f"[bench] {len(specs)} figures in "
          f"{time.perf_counter() - started:.1f}s (jobs={jobs}, "
          f"{rate:,} units/s)")
    print(f"[bench] record : {json_path}")
    print(f"[bench] report : {md_path}")

    if baseline is not None:
        return gate_against_baseline(baseline, record, out_dir=out)
    return 0

