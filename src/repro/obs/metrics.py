"""Metrics registry: counters, cycle histograms, and time series.

Where the tracer answers "what happened, in order", the metrics registry
answers "how was it distributed": invalidation-latency percentiles
(Fig. 8a is a *distribution* claim), per-lock wait profiles, and pool
occupancy over time (the §6 memory-consumption claim).  All instruments
are created on demand by name, so instrumented components need no
registration ceremony::

    obs.metrics.histogram("invalidation.latency_cycles").observe(lat)
    obs.metrics.series("pool.bytes_allocated").sample(core.now, nbytes)

Everything here is pure Python bookkeeping in *host* time — recording a
metric never charges simulated cycles, so metric-enabled runs reproduce
the exact cycle counts of bare runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Histogram buckets are powers of two: bucket ``i`` holds observations
#: ``v`` with ``2**(i-1) < v <= 2**i`` (bucket 0 holds ``v <= 1``).
_MAX_BUCKETS = 64


@dataclass
class MetricCounter:
    """A monotonically increasing named counter."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class CycleHistogram:
    """Log2-bucketed histogram of non-negative integer observations.

    Keeps exact count/sum/min/max plus power-of-two buckets — enough for
    meaningful percentile estimates of latency distributions without
    storing samples.  ``percentile`` interpolates linearly *within* the
    bucket holding the requested rank (clamped to the exact observed
    min/max), so estimates stay inside one bucket width of the truth
    without the systematic upper-bound bias coarse log2 buckets would
    otherwise impose on p50/p99.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: List[int] = [0] * _MAX_BUCKETS

    def observe(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name}: negative value {value}")
        self.count += 1
        self.total += value
        # Compare-and-assign: on a tie the old extreme stays, as with
        # ``min``/``max``; a new maximum cannot also be a new minimum.
        if self.max is None:
            self.min = self.max = value
        elif value > self.max:
            self.max = value
        elif value < self.min:
            self.min = value
        bucket = (int(value) - 1).bit_length() if value > 1 else 0
        self.buckets[bucket if bucket < _MAX_BUCKETS
                     else _MAX_BUCKETS - 1] += 1

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Interpolated estimate of the ``p``-th percentile (0 < p <= 100).

        Finds the bucket holding the requested rank, interpolates
        linearly within its ``(lower, upper]`` span, and clamps to the
        exact observed min/max so single-bucket distributions report
        the true value rather than a power of two.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile {p} out of (0, 100]")
        if not self.count:
            return 0
        threshold = self.count * p / 100.0
        cumulative = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if cumulative + n >= threshold:
                lower = 0 if i == 0 else 1 << (i - 1)
                upper = 1 << i
                frac = (threshold - cumulative) / n
                value = lower + frac * (upper - lower)
                lo = self.min if self.min is not None else 0
                hi = self.max if self.max is not None else upper
                return int(min(max(value, lo), hi))
            cumulative += n
        return self.max or 0

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """(bucket upper bound, count) for every populated bucket."""
        return [(1 << i, n) for i, n in enumerate(self.buckets) if n]

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": round(self.mean, 2),
            "min": self.min or 0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max or 0,
        }


class TimeSeries:
    """(timestamp, value) samples, decimated to a bounded reservoir.

    When the sample budget is exhausted every *other* retained sample is
    dropped and the sampling stride doubles — the classic halving scheme
    that keeps a run-length-independent, time-uniform overview (the pool
    occupancy curve needs shape, not every point).
    """

    __slots__ = ("name", "samples", "max_samples", "_stride", "_pending")

    def __init__(self, name: str, max_samples: int = 4096):
        if max_samples < 2:
            raise ValueError("a time series needs at least two samples")
        self.name = name
        self.samples: List[Tuple[int, int]] = []
        self.max_samples = max_samples
        self._stride = 1
        self._pending = 0

    def sample(self, t: int, value: int) -> None:
        self._pending += 1
        if self._pending < self._stride:
            return
        self._pending = 0
        self.samples.append((t, value))
        if len(self.samples) >= self.max_samples:
            self.samples = self.samples[::2]
            self._stride *= 2

    # ------------------------------------------------------------------
    @property
    def last(self) -> Optional[int]:
        return self.samples[-1][1] if self.samples else None

    def summary(self) -> Dict[str, object]:
        if not self.samples:
            return {"samples": 0}
        values = [v for _, v in self.samples]
        return {
            "samples": len(self.samples),
            "min": min(values),
            "mean": round(sum(values) / len(values), 2),
            "max": max(values),
            "last": values[-1],
        }


@dataclass
class MetricsRegistry:
    """Named instruments, created on first use."""

    counters: Dict[str, MetricCounter] = field(default_factory=dict)
    histograms: Dict[str, CycleHistogram] = field(default_factory=dict)
    time_series: Dict[str, TimeSeries] = field(default_factory=dict)

    def counter(self, name: str) -> MetricCounter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = MetricCounter(name)
        return counter

    def histogram(self, name: str) -> CycleHistogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = CycleHistogram(name)
        return hist

    def series(self, name: str, max_samples: int = 4096) -> TimeSeries:
        series = self.time_series.get(name)
        if series is None:
            series = self.time_series[name] = TimeSeries(name, max_samples)
        return series

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly dump of every instrument (for RunResult.extras)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(self.histograms.items())},
            "series": {n: s.summary()
                       for n, s in sorted(self.time_series.items())},
        }


def record_iotlb_stats(metrics: MetricsRegistry, now: int,
                       stats: Dict[str, int], hit_rate: float) -> None:
    """Surface quiesce-time IOTLB accounting into the metrics registry.

    Called once when a workload quiesces (the cache's counters are
    cumulative, so sampling mid-run would double-count): every integer
    counter becomes an ``iotlb.<name>`` counter, and the hit rate is
    sampled into the ``iotlb.hit_rate_ppm`` series in parts per million
    (the series reservoir stores integers).  Pure host-time bookkeeping,
    like every instrument here — no simulated cycles are charged.
    """
    for name, value in sorted(stats.items()):
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        metrics.counter(f"iotlb.{name}").inc(value)
    metrics.series("iotlb.hit_rate_ppm").sample(
        now, int(round(hit_rate * 1_000_000)))
