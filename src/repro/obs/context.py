"""The observability context threaded through the simulation.

One :class:`Observability` object bundles the run's tracer and metrics
registry.  It hangs off :class:`~repro.hw.machine.Machine` and every
instrumented component (locks, the invalidation queue, the shadow pool,
the DMA API, the NIC driver, the scheduler) reaches it from there.

The default is :data:`NULL_OBS` — a disabled context whose only hot-path
cost is the ``if obs.enabled`` guard — so the tier-1 benchmark numbers
are untouched unless a run opts in with ``Observability.capture()`` (the
CLI's ``--trace`` flag does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.exposure import ExposureAccountant
from repro.obs.locks import LockContentionRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.requests import RequestRecorder
from repro.obs.slo import SloRecorder
from repro.obs.spans import SpanRecorder
from repro.obs.trace import EV_PHASE, NullTracer, RingTracer


@dataclass
class PhaseRecord:
    """One workload phase (warmup, measure, drain, …) with its footprint."""

    name: str
    start: int
    end: Optional[int] = None
    busy_cycles: int = 0
    breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_cycles(self) -> int:
        return (self.end - self.start) if self.end is not None else 0


class Observability:
    """Tracer + metrics + spans + phase timeline for one simulated run."""

    def __init__(self, tracer=None, metrics: MetricsRegistry | None = None,
                 enabled: bool = True,
                 spans: SpanRecorder | None = None,
                 exposure: ExposureAccountant | None = None,
                 requests: RequestRecorder | None = None):
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Hierarchical cycle-attribution recorder (see repro.obs.spans).
        self.spans = spans if spans is not None else SpanRecorder()
        #: Exposure accountant (see repro.obs.exposure): stale windows,
        #: granularity excess, mapped surface, fault forensics.
        self.exposure = exposure if exposure is not None \
            else ExposureAccountant(metrics=self.metrics, spans=self.spans)
        #: Request-scoped causal tracing (see repro.obs.requests):
        #: per-request ids, stage timelines, tail-latency attribution.
        self.requests = requests if requests is not None \
            else RequestRecorder()
        #: Per-lock contention matrix (see repro.obs.locks): waiter and
        #: holder cycles by core, waiter→holder hand-off edges.  Feeds
        #: the scalability observatory's contention attribution.
        self.locks = LockContentionRecorder()
        #: Streaming SLO telemetry (see repro.obs.slo): tumbling windows
        #: of request latency judged against an objective, with breach
        #: forensics drawn from the span and lock recorders.  Inert
        #: until a workload calls ``obs.slo.configure(objective)``.
        self.slo = SloRecorder(metrics=self.metrics, spans=self.spans,
                               locks=self.locks)
        #: Master switch instrumented hot paths guard on.  Disabled means
        #: neither events, metrics, spans, nor exposure are recorded.
        self.enabled = enabled and self.tracer.enabled
        self.phases: List[PhaseRecord] = []
        if self.enabled:
            # Wire the request recorder into the rest of the layer:
            # spans feed it stages, the tracer stamps events with the
            # active rid, fault forensics can name in-flight rids, and
            # completed requests stream into the SLO windows.
            self.spans.listener = self.requests
            self.requests.tracer = self.tracer
            if hasattr(self.tracer, "active_requests"):
                self.tracer.active_requests = self.requests.active
            self.exposure.requests = self.requests
            self.requests.listener = self.slo

    # ------------------------------------------------------------------
    @classmethod
    def null(cls) -> "Observability":
        """A disabled context (what every run gets unless it opts in)."""
        return cls(tracer=NullTracer(), enabled=False)

    @classmethod
    def capture(cls, trace_capacity: int = 1 << 16) -> "Observability":
        """An enabled context with a ring tracer of ``trace_capacity``."""
        return cls(tracer=RingTracer(capacity=trace_capacity))

    # ------------------------------------------------------------------
    # Phase timeline (per-phase breakdowns for the timeline renderer).
    # ------------------------------------------------------------------
    def phase_begin(self, name: str, t: int) -> None:
        """Open a workload phase; closes any still-open previous phase."""
        if not self.enabled:
            return
        if self.phases and self.phases[-1].end is None:
            self.phase_end(t)
        self.phases.append(PhaseRecord(name=name, start=t))
        self.tracer.emit(EV_PHASE, t, -1, name=name, edge="begin")

    def phase_end(self, t: int, busy_cycles: int = 0,
                  breakdown: Dict[str, int] | None = None) -> None:
        """Close the open phase, attaching its cycle footprint."""
        if not self.enabled or not self.phases:
            return
        phase = self.phases[-1]
        if phase.end is not None:
            return
        phase.end = t
        phase.busy_cycles = busy_cycles
        if breakdown:
            phase.breakdown = dict(breakdown)
        self.tracer.emit(EV_PHASE, t, -1, name=phase.name, edge="end")


#: Shared disabled context.  Nothing may write through it (every write
#: site guards on ``enabled``), so sharing one instance is safe.
NULL_OBS = Observability.null()
