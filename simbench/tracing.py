"""Host-time spans around calls into each simulator layer.

The simulator is not changed: every span is recorded by a wrapper that
this module installs around a public method, either on a class (for
``System``, ``Scheduler`` and ``SpinLock``) or on the instances one
``System.build`` returns (driver, DMA API, shadow pool, IOMMU,
invalidation queue, IOVA allocator, per-node page and slab allocators).
Instances matter because an untraced ``NicDriver`` binds
``receive_one``/``transmit_one`` to its fast paths as instance
attributes at construction, which a class-level wrapper would miss.

Spans are kept in memory as parallel arrays (name id, start, end,
parent index) and written out once, after the run.  A span's self time
is its duration minus the time covered by its child spans.  All times
here are host seconds from :func:`time.perf_counter`.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Instance methods wrapped on each freshly built ``System``:
#: (span layer, attribute path from the System, method names).
INSTANCE_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("net", "driver", ("receive_one", "transmit_one",
                       "setup_queue", "teardown_queue")),
    ("dma", "dma_api", ("dma_map", "dma_unmap", "dma_map_sg")),
    ("core", "dma_api.pool", ("acquire_shadow", "release_shadow")),
    ("iommu", "iommu", ("map_range", "unmap_range", "translate")),
    ("iommu", "iommu.invalidation_queue",
     ("invalidate_sync", "invalidate_ranges_sync", "flush_batch")),
    ("iova", "dma_api.iova_allocator", ("alloc", "free")),
    ("iova", "dma_api.fallback_iova", ("alloc", "free")),
)


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: List[int] = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends, parents = (self.name, self.start, self.end,
                                        self.parent)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def wrap_instance(self, system) -> None:
        """Wrap the per-instance layer entry points of a built System."""
        seen = set()
        for layer, path, methods in INSTANCE_TARGETS:
            obj = system
            for attr in path.split("."):
                obj = getattr(obj, attr, None)
                if obj is None:
                    break
            if obj is None or (id(obj), methods) in seen:
                continue
            seen.add((id(obj), methods))
            for method in methods:
                setattr(obj, method,
                        self.wrap(f"{layer}.{method}", getattr(obj, method)))
        allocators = system.allocators
        for buddy in allocators.buddies:
            buddy.alloc_pages = self.wrap("kalloc.alloc_pages",
                                          buddy.alloc_pages)
            buddy.free_pages = self.wrap("kalloc.free_pages",
                                         buddy.free_pages)
        for slab in allocators.slabs:
            slab.kmalloc = self.wrap("kalloc.kmalloc", slab.kmalloc)
            slab.kfree = self.wrap("kalloc.kfree", slab.kfree)

    @contextmanager
    def class_wrappers(self) -> Iterator[None]:
        """Wrap ``SpinLock`` and ``Scheduler.run`` for the duration.

        ``Scheduler.run`` also wraps each task's ``run_one`` so that the
        workload's own step code (pacing, stack charges) is attributed to
        ``workloads`` rather than to the scheduler loop.
        """
        from repro.hw.locks import SpinLock
        from repro.sim.engine import Scheduler

        orig_acquire, orig_release = SpinLock.acquire, SpinLock.release
        orig_run = Scheduler.run
        wrap = self.wrap

        def run(sched, *args, **kwargs):
            for task in sched.tasks:
                task.run_one = wrap("workloads.step", task.run_one)
            return orig_run(sched, *args, **kwargs)

        SpinLock.acquire = wrap("hw.lock_acquire", orig_acquire)
        SpinLock.release = wrap("hw.lock_release", orig_release)
        Scheduler.run = wrap("sim.run", run)
        try:
            yield
        finally:
            SpinLock.acquire, SpinLock.release = orig_acquire, orig_release
            Scheduler.run = orig_run

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.name)

    def self_times(self) -> array:
        """Each span's duration minus the time its children cover."""
        n = len(self.name)
        own = array("d", (self.end[i] - self.start[i] for i in range(n)))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent.

        Times are host seconds relative to the first span's start.
        """
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps(
                    [self.names[self.name[i]],
                     round(self.start[i] - base, 9),
                     round(self.end[i] - base, 9), self.parent[i]],
                    separators=(",", ":")) + "\n")


class SpanSummary:
    """Per-name call counts, inclusive and self seconds of one recording."""

    def __init__(self, rec: SpanRecorder):
        own = rec.self_times()
        names = rec.names
        self.calls: Dict[str, int] = {name: 0 for name in names}
        self.total_s: Dict[str, float] = {name: 0.0 for name in names}
        self.self_s: Dict[str, float] = {name: 0.0 for name in names}
        setup_id = rec._ids.get("net.setup_queue", -1)
        map_id = rec._ids.get("dma.dma_map", -1)
        run_id = rec._ids.get("sim.run", -1)
        workload_ids = {rec._ids[n] for n in names
                        if n.startswith("workloads.run_")}
        under_setup = array("b", bytes(len(rec.name)))
        self.fill_maps = 0
        last_run: Dict[int, float] = {}
        for i in range(len(rec.name)):
            nid, p = rec.name[i], rec.parent[i]
            name = names[nid]
            dur = rec.end[i] - rec.start[i]
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += own[i]
            if p >= 0 and (under_setup[p] or rec.name[p] == setup_id):
                under_setup[i] = 1
                if nid == map_id:
                    self.fill_maps += 1
            if nid == run_id:
                root = p
                while root >= 0 and rec.name[root] not in workload_ids:
                    root = rec.parent[root]
                last_run[root] = dur
        #: Duration of the last ``Scheduler.run`` inside each workload
        #: call: the measured phase (the first run is the warm-up).
        self.measured_run_s: List[float] = list(last_run.values())

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def total(self, name: str) -> float:
        return self.total_s.get(name, 0.0)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)
