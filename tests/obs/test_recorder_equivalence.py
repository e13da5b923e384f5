"""Cheap recorder hot paths record exactly what plainly written code records.

Each capture hook made cheaper on the host is compared with a plain
form of the same code on twin objects fed the same inputs:

* the exposure accountant's ``note_map_range``, ``note_unmap_range``,
  ``note_dma_map`` and ``note_dma_unmap`` against the same page loops
  written plainly (``_domain()`` lookups, ``min``/``max``, a dict
  lookup per page), over event soups with page-crossing sizes, shared pages
  (refcount > 1), stale pages and a full fault-forensics history;
* the tracer's raw rows against a ring of :class:`TraceEvent` objects
  built at emit time: eviction at capacity, ``dropped``, ``clear`` and
  the ``rid`` stamped while a request was active;
* ``CycleHistogram.observe`` against the ``min``/``max`` formulation;
* the span recorder's derived ``opened``/``closed`` counts against
  counting every call.

It also pins that metric names built at construction do not put an
instrument in ``snapshot()`` before it is used.
"""

import dataclasses
import json
from collections import Counter, deque
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.dma.api import DmaDirection
from repro.hw.locks import SpinLock
from repro.kalloc.slab import KBuffer
from repro.obs import exposure as exposure_mod
from repro.obs.context import Observability
from repro.obs.exposure import (
    KIND_DEDICATED,
    KIND_OS,
    PAGE_SHIFT,
    PAGE_SIZE,
    ExposureAccountant,
)
from repro.obs.metrics import _MAX_BUCKETS, CycleHistogram, MetricsRegistry
from repro.obs.requests import RequestRecorder
from repro.obs.trace import (
    EV_DMA_MAP,
    EV_LOCK_ACQUIRE,
    EV_POOL_GROW,
    RingTracer,
    TraceEvent,
)
from repro.system import System, SystemConfig

# ----------------------------------------------------------------------
# Exposure: tightened hooks vs. plainly written page loops.
# ----------------------------------------------------------------------
_DOMAIN = 1
_DEVICE = 0x10

_OFFSETS = st.sampled_from([0, 1, 128, PAGE_SIZE - 1])
_SIZES = st.sampled_from([-1, 0, 1, 512, PAGE_SIZE - 1, PAGE_SIZE,
                          PAGE_SIZE + 1, 2 * PAGE_SIZE])

_EVENT = st.tuples(
    st.sampled_from(("map", "unmap", "dma_map", "dma_unmap", "inv_pages",
                     "inv_all")),
    st.integers(0, 3),                                 # page
    _OFFSETS,
    _SIZES,
    st.booleans(),                                     # IOTLB-cached?
    st.sampled_from((KIND_OS, KIND_DEDICATED)),
)


class _ReferenceAccountant(ExposureAccountant):
    """The four page-loop hooks written plainly: ``_domain()`` lookups,
    ``min``/``max`` and a dict lookup per page."""

    def note_map_range(self, t, domain_id, device_id, iova, size,
                       kind=KIND_OS):
        dom = self._domain(domain_id, device_id)
        for page in range(iova >> PAGE_SHIFT,
                          ((iova + size - 1) >> PAGE_SHIFT) + 1):
            sp = dom.stale.pop(page, None)
            if sp is not None:
                self._finalize_stale(dom, sp, t)
            state = dom.pages.get(page)
            if state is None:
                dom.pages[page] = exposure_mod._PageState(
                    kind=kind, refcount=1, installed_at=t)
            else:
                state.refcount += 1
                state.os_released_at = None
            dom.remember(page, map_t=t)
        dom.peak_surface_bytes = max(dom.peak_surface_bytes,
                                     dom.surface_bytes)
        self._sample_surface(t)

    def note_unmap_range(self, t, domain_id, iova, size, cached_pages):
        dom = self._domain(domain_id)
        for page in range(iova >> PAGE_SHIFT,
                          ((iova + size - 1) >> PAGE_SHIFT) + 1):
            state = dom.pages.get(page)
            if state is None:
                continue
            state.refcount -= 1
            if state.refcount > 0:
                continue
            del dom.pages[page]
            dom.remember(page, unmap_t=t)
            if page in cached_pages:
                dom.stale[page] = exposure_mod._StalePage(
                    kind=state.kind, unmapped_at=t,
                    released_at=state.os_released_at)
        self._sample_surface(t)

    def note_dma_map(self, t, scheme, domain_id, iova, size):
        if domain_id is None:
            return
        dom = self._domain(domain_id)
        dom.scheme = scheme
        dom.dma_maps += 1
        excess = 0
        for page in range(iova >> PAGE_SHIFT,
                          ((iova + size - 1) >> PAGE_SHIFT) + 1):
            state = dom.pages.get(page)
            if state is None or state.kind != KIND_OS:
                continue
            page_lo = page << PAGE_SHIFT
            overlap = (min(iova + size, page_lo + PAGE_SIZE)
                       - max(iova, page_lo))
            excess += PAGE_SIZE - overlap
        dom.live[iova] = exposure_mod._LiveMap(mapped_at=t, size=size,
                                               excess_bytes=excess)
        dom.current_excess_bytes += excess
        dom.peak_excess_bytes = max(dom.peak_excess_bytes,
                                    dom.current_excess_bytes)
        if self.metrics is not None:
            self.metrics.histogram(
                "exposure.map_excess_bytes").observe(excess)

    def note_dma_unmap(self, t, scheme, domain_id, iova, size):
        if domain_id is None:
            return
        dom = self._domain(domain_id)
        dom.dma_unmaps += 1
        lm = dom.live.pop(iova, None)
        if lm is not None:
            dom.excess_byte_cycles += lm.excess_bytes * (t - lm.mapped_at)
            dom.current_excess_bytes -= lm.excess_bytes
        for page in range(iova >> PAGE_SHIFT,
                          ((iova + size - 1) >> PAGE_SHIFT) + 1):
            sp = dom.stale.get(page)
            if sp is not None:
                if sp.released_at is None:
                    sp.released_at = t
                continue
            state = dom.pages.get(page)
            if state is not None and state.kind == KIND_OS \
                    and state.os_released_at is None:
                state.os_released_at = t


def _apply(acct, event, t):
    """Feed one event to ``acct``."""
    op, page, offset, size, cached, kind = event
    iova = (page << PAGE_SHIFT) + offset
    if op == "map":
        acct.note_map_range(t, _DOMAIN, _DEVICE, iova, size, kind)
    elif op == "unmap":
        pages = set(range(page, page + 3)) if cached else set()
        acct.note_unmap_range(t, _DOMAIN, iova, size, pages)
    elif op == "dma_map":
        acct.note_dma_map(t, "test", _DOMAIN, iova, size)
    elif op == "dma_unmap":
        acct.note_dma_unmap(t, "test", _DOMAIN, iova, size)
    elif op == "inv_pages":
        acct.note_invalidate_pages(t, _DOMAIN, page, 2)
    else:
        acct.note_invalidate_all(t)


def _recorded(acct):
    """Everything the accountant and its metrics hold, order included
    where order is observable (history eviction, series samples)."""
    metrics = acct.metrics
    return (
        {did: (dataclasses.asdict(dom), list(dom.history.items()))
         for did, dom in acct._domains.items()},
        acct.summary(),
        metrics.snapshot(),
        {name: (h.count, h.total, h.min, h.max, list(h.buckets))
         for name, h in metrics.histograms.items()},
        {name: (list(s.samples), s._stride, s._pending)
         for name, s in metrics.time_series.items()},
    )


_REFCOUNT_AND_STALE = [
    ("map", 0, 0, PAGE_SIZE, False, KIND_OS),
    ("map", 0, 128, 512, False, KIND_OS),          # refcount 2
    ("dma_map", 0, 128, 512, False, KIND_OS),
    ("unmap", 0, 0, PAGE_SIZE, True, KIND_OS),     # still mapped once
    ("dma_unmap", 0, 128, 512, False, KIND_OS),
    ("unmap", 0, 128, 512, True, KIND_OS),         # goes stale
    ("dma_unmap", 0, 0, 1, False, KIND_OS),        # stale page released
    ("map", 0, 1, 1, False, KIND_OS),              # remap closes window
]
_PAGE_CROSSING = [
    ("map", 1, PAGE_SIZE - 1, 2, False, KIND_OS),
    ("dma_map", 1, PAGE_SIZE - 1, 2, False, KIND_OS),
    ("map", 2, 1, PAGE_SIZE, True, KIND_OS),
    ("unmap", 1, PAGE_SIZE - 1, 2, True, KIND_OS),
    ("dma_unmap", 1, PAGE_SIZE - 1, 2, False, KIND_OS),
    ("map", 3, 1, 0, False, KIND_OS),              # empty, one page
    ("map", 3, 0, 0, False, KIND_OS),              # empty, no page
    ("dma_map", 3, 0, -1, False, KIND_OS),
]


@example(events=_REFCOUNT_AND_STALE, small_history=False)
@example(events=_REFCOUNT_AND_STALE, small_history=True)
@example(events=_PAGE_CROSSING, small_history=False)
@example(events=_PAGE_CROSSING + _REFCOUNT_AND_STALE, small_history=True)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(events=st.lists(_EVENT, min_size=1, max_size=40),
       small_history=st.booleans())
def test_exposure_hooks_match_plain_page_loops(events, small_history):
    limit = 3 if small_history else exposure_mod._HISTORY_LIMIT
    fast = ExposureAccountant(metrics=MetricsRegistry())
    plain = _ReferenceAccountant(metrics=MetricsRegistry())
    with mock.patch.object(exposure_mod, "_HISTORY_LIMIT", limit):
        for step, event in enumerate(events):
            t = 10 * (step + 1)
            _apply(fast, event, t)
            _apply(plain, event, t)
            assert _recorded(fast) == _recorded(plain), (step, event)


def test_history_keeps_the_other_stamp_for_fault_forensics():
    """A remap keeps the page's last unmap time and an unmap its last
    map time: a fault names both."""
    acct = ExposureAccountant(metrics=MetricsRegistry())
    iova = 5 << PAGE_SHIFT
    acct.note_map_range(10, _DOMAIN, _DEVICE, iova, 512)
    acct.note_unmap_range(20, _DOMAIN, iova, 512, set())
    acct.note_map_range(30, _DOMAIN, _DEVICE, iova + 1024, 512)
    acct.note_unmap_range(40, _DOMAIN, iova + 1024, 512, set())
    assert acct._domains[_DOMAIN].history[5] == (30, 40)
    acct.note_map_range(50, _DOMAIN, _DEVICE, iova, 512)
    acct.note_fault(60, _DOMAIN, _DEVICE, iova, True, "test")
    fault = acct.faults[-1]
    assert (fault.page_state, fault.last_map_t, fault.last_unmap_t) \
        == ("mapped", 50, 40)


def test_exposure_history_full_at_the_default_limit():
    """A full-size history evicts the same oldest page on both twins."""
    twins = [ExposureAccountant(metrics=MetricsRegistry()),
             _ReferenceAccountant(metrics=MetricsRegistry())]
    for acct in twins:
        dom = acct._domain(_DOMAIN, _DEVICE)
        dom.history.update((page, (page, None)) for page in
                           range(100, 100 + exposure_mod._HISTORY_LIMIT))
    fast, plain = twins
    for step, event in enumerate(_REFCOUNT_AND_STALE):
        _apply(fast, event, 10 * (step + 1))
        _apply(plain, event, 10 * (step + 1))
    assert _recorded(fast) == _recorded(plain)
    history = fast._domains[_DOMAIN].history
    assert len(history) == exposure_mod._HISTORY_LIMIT
    assert 100 not in history and 0 in history


# ----------------------------------------------------------------------
# Tracer: raw rows vs. events built at emit time.
# ----------------------------------------------------------------------
class _EventRing:
    """Reference tracer: one :class:`TraceEvent` built per emit."""

    def __init__(self, capacity, requests):
        self.ring = deque(maxlen=capacity)
        self.emitted = 0
        self.requests = requests

    def emit(self, kind, t, core, **data):
        if "rid" not in data:
            rid = self.requests.current_rid(core)
            if rid is not None:
                data["rid"] = rid
        self.ring.append(TraceEvent(t=t, core=core, kind=kind, data=data))
        self.emitted += 1

    def clear(self):
        self.ring.clear()
        self.emitted = 0


class _Core:
    def __init__(self, cid):
        self.cid = cid
        self.now = 0


_TRACE_OP = st.one_of(
    st.tuples(st.just("emit"), st.integers(-1, 2),
              st.sampled_from((EV_DMA_MAP, EV_LOCK_ACQUIRE, EV_POOL_GROW)),
              st.integers(0, 3), st.booleans()),
    st.tuples(st.just("begin"), st.integers(0, 2)),
    st.tuples(st.just("end"), st.integers(0, 2)),
    st.tuples(st.just("clear")),
)

_RID_OUTLIVES_REQUEST = [("begin", 0), ("emit", 0, EV_DMA_MAP, 1, False),
                         ("emit", 1, EV_DMA_MAP, 2, False), ("end", 0),
                         ("emit", 0, EV_LOCK_ACQUIRE, 0, True),
                         ("emit", 0, EV_POOL_GROW, 3, False)]


def _tracer_view(tracer):
    return (tracer.events(), list(tracer),
            {kind: tracer.events(kind)
             for kind in (EV_DMA_MAP, EV_LOCK_ACQUIRE, EV_POOL_GROW)},
            tracer.to_jsonl(), tracer.counts_by_kind(), len(tracer),
            tracer.emitted, tracer.dropped)


def _reference_view(ref):
    events = list(ref.ring)
    return (events, events,
            {kind: [ev for ev in events if ev.kind == kind]
             for kind in (EV_DMA_MAP, EV_LOCK_ACQUIRE, EV_POOL_GROW)},
            "\n".join(json.dumps(ev.to_dict(), sort_keys=True,
                                 separators=(",", ":")) for ev in events),
            Counter(ev.kind for ev in events), len(events),
            ref.emitted, ref.emitted - len(events))


@example(ops=_RID_OUTLIVES_REQUEST, capacity=2)
@example(ops=_RID_OUTLIVES_REQUEST + [("clear",)] + _RID_OUTLIVES_REQUEST,
         capacity=3)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=st.lists(_TRACE_OP, max_size=40), capacity=st.integers(1, 6))
def test_tracer_rows_match_events_built_at_emit(ops, capacity):
    requests = RequestRecorder()
    tracer = RingTracer(capacity=capacity)
    tracer.active_requests = requests.active
    ref = _EventRing(capacity, requests)
    cores = {cid: _Core(cid) for cid in range(3)}
    for step, op in enumerate(ops):
        if op[0] == "emit":
            _, core, kind, seq, explicit_rid = op
            fields = {"seq": seq, "step": step}
            if explicit_rid:
                fields["rid"] = -7
            tracer.emit(kind, step, core, **dict(fields))
            ref.emit(kind, step, core, **dict(fields))
        elif op[0] == "begin":
            requests.begin(cores[op[1]], "rx")
        elif op[0] == "end":
            requests.end(cores[op[1]])
        else:
            tracer.clear()
            ref.clear()
        assert _tracer_view(tracer) == _reference_view(ref), (step, op)


def test_rid_stays_on_an_event_after_its_request_ends():
    obs = Observability.capture(trace_capacity=8)
    core = _Core(0)
    rid = obs.requests.begin(core, "rx")
    obs.tracer.emit(EV_DMA_MAP, 5, 0, iova=1)
    obs.requests.end(core)
    obs.tracer.emit(EV_DMA_MAP, 6, 0, iova=2)
    stamped = [ev.data.get("rid") for ev in obs.tracer.events(EV_DMA_MAP)]
    assert stamped == [rid, None]


# ----------------------------------------------------------------------
# Histogram: compare-and-assign vs. min()/max().
# ----------------------------------------------------------------------
def _reference_histogram(values):
    count = total = 0
    lo = hi = None
    buckets = [0] * _MAX_BUCKETS
    for value in values:
        count += 1
        total += value
        lo = value if lo is None else min(lo, value)
        hi = value if hi is None else max(hi, value)
        buckets[min(max(int(value) - 1, 0).bit_length(),
                    _MAX_BUCKETS - 1)] += 1
    return count, total, lo, hi, buckets


_VALUES = st.one_of(st.integers(0, 1 << 70),
                    st.sampled_from([0, 1, 2, 3, 1 << 62, 1 << 63,
                                     (1 << 63) + 1]),
                    st.floats(0.0, 1e6, allow_nan=False))


@example(values=[0, 0, 1, 1, 2])
@example(values=[1.5, 1, 2.0, 2])
@example(values=[2, 2.0, 3.0, 3])
@example(values=[(1 << 63) + 1, 1 << 64, 0.5])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(_VALUES, max_size=30))
def test_histogram_observe_matches_min_max(values):
    hist = CycleHistogram("h")
    for value in values:
        hist.observe(value)
    got = (hist.count, hist.total, hist.min, hist.max, hist.buckets)
    # repr, not ==: on a tie between 2 and 2.0 the first one seen stays.
    assert repr(got) == repr(_reference_histogram(values))
    assert repr(hist.summary()) == repr(_summary_of(values))


def _summary_of(values):
    hist = CycleHistogram("ref")
    (hist.count, hist.total, hist.min, hist.max,
     hist.buckets) = _reference_histogram(values)
    return hist.summary()


# ----------------------------------------------------------------------
# Spans: derived opened/closed vs. counting every begin and end.
# ----------------------------------------------------------------------
@example(ops=[("begin", 0), ("begin", 0), ("end", 0)])
@example(ops=[("end", 1), ("begin", 1), ("end", 1), ("end", 1),
              ("clear", 0), ("begin", 0)])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=st.lists(st.tuples(st.sampled_from(("begin", "end", "clear")),
                              st.integers(0, 2)), max_size=30))
def test_span_counts_match_counting_every_call(ops):
    spans = Observability.capture().spans
    cores = {cid: _Core(cid) for cid in range(3)}
    opened = closed = 0
    depth = {cid: 0 for cid in cores}
    for step, (op, cid) in enumerate(ops):
        core = cores[cid]
        core.now = step
        if op == "begin":
            spans.begin(f"s{step % 3}", core)
            opened += 1
            depth[cid] += 1
        elif op == "end":
            spans.end(core)
            if depth[cid]:
                closed += 1
                depth[cid] -= 1
        else:
            spans.clear()
            opened = closed = 0
            depth = dict.fromkeys(depth, 0)
        assert (spans.opened, spans.closed) == (opened, closed), step


# ----------------------------------------------------------------------
# Names built at construction stay out of the snapshot until used.
# ----------------------------------------------------------------------
def test_unused_instruments_stay_out_of_snapshot():
    obs = Observability.capture()
    system = System.build(SystemConfig(scheme="identity-strict", cores=2,
                                       obs=obs))
    lock = SpinLock("never-taken", system.machine.cost, obs=obs)
    names = {"counters": {f"dma.maps:{system.dma_api.name}",
                          f"dma.unmaps:{system.dma_api.name}",
                          f"lock.acquisitions:{lock.name}"},
             "histograms": {f"lock.wait_cycles:{lock.name}",
                            f"lock.hold_cycles:{lock.name}"},
             "series": {"exposure.surface_bytes"}}

    def present():
        snap = obs.metrics.snapshot()
        return {kind: names[kind] & set(snap[kind]) for kind in names}

    assert present() == {kind: set() for kind in names}
    core = system.machine.core(0)
    buf = KBuffer(pa=system.allocators.buddies[0].alloc_pages(0, core),
                  size=512, node=0)
    system.dma_api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    assert present() == {"counters": {f"dma.maps:{system.dma_api.name}"},
                         "histograms": set(),
                         "series": {"exposure.surface_bytes"}}
