"""Turn timed passes into the benchmark's end-to-end and per-layer metrics.

Both modes repeat passes until ``seconds`` of host time would be
exceeded (with a floor on the number of passes) and report medians, so
one slow pass on a shared host moves nothing.

* :func:`end_to_end` runs the workload with the benchmark's tracing off.
* :func:`per_layer` runs, per iteration, an untraced pass, a traced pass
  (spans around each layer's calls) and a *twin* pass with the
  workload's observability capture toggled; the traced/untraced ratio is
  ``trace_overhead`` and the capture-on/capture-off ratio is
  ``obs.capture_tax``.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from simbench.suite import PassResult, Workload, accuracy_lines, run_pass
from simbench.tracing import SpanRecorder, SpanSummary

#: Fewest passes one end-to-end run reports a median over.
MIN_PASSES = 3


@dataclass
class Report:
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    lines: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def count(self, passes: List[PassResult]) -> None:
        for p in passes:
            self.attempted += p.attempted
            self.failed += len(p.failures)
            for scheme, problems in p.failures.items():
                for problem in problems:
                    self.lines.append(f"FAILED {scheme}: {problem}")

    def to_json(self) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def repeat(seconds: float, min_runs: int, once: Callable[[], object]
           ) -> list:
    """Call ``once`` until another call would end past ``seconds``."""
    start = time.perf_counter()
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(once())
        now = time.perf_counter()
        if len(out) >= min_runs and (now - start) + (now - t0) > seconds:
            return out


def _spread(name: str, values: List[float], unit: str) -> str:
    return (f"{name} median {statistics.median(values):.6g} {unit} "
            f"(min {min(values):.6g}, max {max(values):.6g}, "
            f"n={len(values)} passes)")


def _common_lines(workload: Workload, first: PassResult,
                  report: Report) -> None:
    report.lines.append(f"digest {workload.name} sha256:{first.digest} "
                        "(simulated rows; report-only)")
    report.lines.extend(accuracy_lines(workload, first.results))
    rate = report.failed / report.attempted
    report.lines.append(f"error_rate {rate:.6g} ratio "
                        f"({report.failed}/{report.attempted} points)")


def end_to_end(workload: Workload, seconds: float) -> Report:
    passes = repeat(seconds, MIN_PASSES, lambda: run_pass(workload))
    for p in passes[1:]:
        p.check_same_output(passes[0])
    report = Report()
    report.count(passes)
    series = {
        "wall_s": ([p.wall_s for p in passes], "s"),
        "setup_s": ([p.setup_s for p in passes], "s"),
        "teardown_s": ([p.teardown_s for p in passes], "s"),
        "units_per_s": ([p.units / p.wall_s for p in passes], "1/s"),
    }
    for name, (values, unit) in series.items():
        report.put(name, statistics.median(values), unit)
        report.lines.append(_spread(name, values, unit))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.put("peak_rss_mb", rss_mb, "MB")
    report.lines.append(f"peak_rss_mb {rss_mb:.6g} MB")
    report.lines.append(f"units {passes[0].units} per pass "
                        "(RX segments or memcached transactions)")
    _common_lines(workload, passes[0], report)
    return report


def per_layer(workload: Workload, seconds: float,
              spans_path: Optional[str] = None) -> Report:
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    twins: List[PassResult] = []
    summaries: List[SpanSummary] = []
    last: List[SpanRecorder] = []

    def iteration() -> None:
        untraced.append(run_pass(workload))
        recorder = SpanRecorder()
        traced.append(run_pass(workload, recorder=recorder))
        summaries.append(SpanSummary(recorder))
        last[:] = [recorder]
        twins.append(run_pass(workload, capture=not workload.capture))

    repeat(seconds, 1, iteration)
    reference = untraced[0]
    for p in untraced[1:] + traced + twins:
        p.check_same_output(reference)
    report = Report()
    report.count(untraced + traced + twins)
    if spans_path is not None:
        last[0].write(spans_path)
        report.lines.append(f"spans written to {spans_path} "
                            f"({last[0].size} spans)")

    def med(fn: Callable[[SpanSummary], float]) -> float:
        return statistics.median(fn(s) for s in summaries)

    s0 = summaries[0]          # counts repeat exactly in every pass
    put = report.put
    put("system.build_s", med(lambda s: s.total("system.build")), "s")
    put("system.setup_queues_s",
        med(lambda s: s.total("system.setup_queues")), "s")
    put("system.teardown_queues_s",
        med(lambda s: s.total("system.teardown_queues")), "s")

    put("net.rx_calls", s0.count("net.receive_one"), "count")
    put("net.tx_calls", s0.count("net.transmit_one"), "count")
    put("net.self_s", med(lambda s: s.layer_self_s("net")), "s")
    put("net.setup_queue_s",
        med(lambda s: s.total("net.setup_queue")), "s")
    put("net.teardown_queue_s",
        med(lambda s: s.total("net.teardown_queue")), "s")

    maps = s0.count("dma.dma_map")
    put("dma.map_calls", maps, "count")
    put("dma.unmap_calls", s0.count("dma.dma_unmap"), "count")
    put("dma.self_s", med(lambda s: s.layer_self_s("dma")), "s")
    put("dma.map_fill_share", s0.fill_maps / maps if maps else 0.0,
        "ratio")

    pools = [r.extras["pool"] for r in reference.results.values()
             if "pool" in r.extras]
    acquires = sum(p["acquires"] for p in pools)
    grows = sum(p["grows"] for p in pools)
    put("core.acquire_calls", s0.count("core.acquire_shadow"), "count")
    put("core.self_s", med(lambda s: s.layer_self_s("core")), "s")
    put("core.pool_grows", grows, "count")
    put("core.pool_hit_ratio",
        (acquires - grows) / acquires if acquires else 0.0, "ratio")

    put("iommu.map_range_calls", s0.count("iommu.map_range"), "count")
    put("iommu.unmap_range_calls", s0.count("iommu.unmap_range"), "count")
    put("iommu.translate_calls", s0.count("iommu.translate"), "count")
    put("iommu.inv_calls", s0.count("iommu.invalidate_sync",
                                    "iommu.invalidate_ranges_sync",
                                    "iommu.flush_batch"), "count")
    put("iommu.self_s", med(lambda s: s.layer_self_s("iommu")), "s")
    results = list(reference.results.values())
    hits = sum(r.extras["iotlb"].get("hits", 0) for r in results)
    lookups = hits + sum(r.extras["iotlb"].get("misses", 0)
                         for r in results)
    put("iommu.iotlb_hit_rate", hits / lookups if lookups else 0.0, "ratio")
    put("iommu.inv_lock_wait_cycles",
        sum(r.extras.get("inv_lock_wait_cycles", 0) for r in results),
        "cycles")
    put("iommu.inv_hw_queue_delay_cycles",
        sum(r.extras.get("inv_hw_queue_delay_cycles", 0) for r in results),
        "cycles")

    put("iova.alloc_calls", s0.count("iova.alloc"), "count")
    put("iova.self_s", med(lambda s: s.layer_self_s("iova")), "s")
    put("kalloc.alloc_calls", s0.count("kalloc.kmalloc",
                                       "kalloc.alloc_pages"), "count")
    put("kalloc.self_s", med(lambda s: s.layer_self_s("kalloc")), "s")
    put("hw.lock_acquire_calls", s0.count("hw.lock_acquire"), "count")
    put("hw.self_s", med(lambda s: s.layer_self_s("hw")), "s")

    put("sim.run_calls", s0.count("sim.run"), "count")
    put("sim.self_s", med(lambda s: s.layer_self_s("sim")), "s")
    put("sim.host_us_per_unit",
        med(lambda s: sum(s.measured_run_s)) * 1e6
        / max(reference.units, 1), "us/unit")
    put("workloads.self_s", med(lambda s: s.layer_self_s("workloads")), "s")

    untraced_wall = statistics.median(p.wall_s for p in untraced)
    twin_wall = statistics.median(p.wall_s for p in twins)
    captured, uncaptured = ((untraced_wall, twin_wall) if workload.capture
                            else (twin_wall, untraced_wall))
    put("obs.capture_tax", captured / uncaptured, "ratio")
    put("trace_overhead",
        statistics.median(p.wall_s for p in traced) / untraced_wall, "ratio")
    for name, metric in report.metrics.items():
        report.lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    report.lines.append(f"traced iterations {len(traced)} (untraced, traced "
                        "and capture-toggled pass each)")
    _common_lines(workload, reference, report)
    return report
