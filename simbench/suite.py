"""The benchmark's workloads, one measured pass over them, and its checks.

A *workload* is a fixed list of points (one scheme each) run through the
public drivers in :mod:`repro.workloads`.  A *pass* runs every point once
in order, each on a freshly built ``System``, and records:

* host seconds for the whole pass (``wall_s``), and the summed host
  seconds spent in ``System.build`` + ``System.setup_queues``
  (``setup_s``) and in ``System.teardown_queues`` (``teardown_s``);
* the simulated rows behind the report-only digest;
* the output checks that decide whether each point failed.

Clock domains: names ending in ``_s`` are host seconds, names ending in
``_cycles`` are simulated cycles.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.context import Observability
from repro.seeding import derive_seed
from repro.stats.results import RunResult
from repro.system import System
from repro.workloads import (
    MemcachedConfig,
    StreamConfig,
    run_memcached,
    run_tcp_stream_rx,
)

from simbench.tracing import SpanRecorder

WORKLOADS = ("rx16-capture", "rx1-steady", "kv8-mixed")

#: Ring size ``repro bench`` gives every captured registry point.
CAPTURE_TRACE_CAPACITY = 256

#: Schemes whose exposure summary must show no stale window at all.
STALE_FREE_SCHEMES = ("identity-strict", "copy")


@dataclass(frozen=True)
class Point:
    """One scheme run once through one workload driver."""

    scheme: str
    runner: Callable[[object], RunResult]
    config: object                  # StreamConfig or MemcachedConfig
    expected_units: int

    def run(self, capture: bool) -> RunResult:
        obs = (Observability.capture(trace_capacity=CAPTURE_TRACE_CAPACITY)
               if capture else None)
        return self.runner(replace(self.config, obs=obs))


@dataclass(frozen=True)
class Reference:
    """A paper value to print beside a simulated headline (report-only)."""

    text: str                       # e.g. "~38 Gb/s"
    source: str                     # figure and configuration


@dataclass(frozen=True)
class Workload:
    name: str
    points: Tuple[Point, ...]
    capture: bool
    #: ``"gbps"`` (RX points) or ``"tps"`` (memcached transactions/s).
    headline: str
    #: Reference values keyed by scheme; ``relative`` means the
    #: references are ratios to the ``copy`` point of the same pass.
    references: Dict[str, Reference]
    relative: bool = False


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it for tests and warm-up.

    Only ``kv8-mixed`` draws from ``seed`` (its key stream); the two RX
    workloads are fully specified by their sizes, so every seed gives
    them the same inputs.
    """
    if name == "rx16-capture":
        # The `repro bench --quick` multi-core shape: 50 units and 15
        # warm-up units per core on 16 cores.
        cores, units, warmup = (2, 5, 2) if tiny else (16, 50, 15)
        src = "paper Fig. 1, 16 cores"
        refs = {"no-iommu": Reference("~38 Gb/s", src),
                "copy": Reference("~38 Gb/s", src),
                "identity-deferred": Reference("~38 Gb/s", src),
                "identity-strict": Reference("~5 Gb/s", src)}
        points = tuple(
            Point(scheme, run_tcp_stream_rx,
                  StreamConfig(scheme=scheme, message_size=16384,
                               cores=cores, units_per_core=units,
                               warmup_units=warmup),
                  cores * units)
            for scheme in refs)
        return Workload(name, points, capture=True, headline="gbps",
                        references=refs)
    if name == "rx1-steady":
        units, warmup = (30, 5) if tiny else (8000, 200)
        src = "paper Fig. 3, 1 core, 64 KB"
        refs = {"identity-strict": Reference("0.50x copy", src),
                "identity-deferred": Reference("0.91x copy", src),
                "copy": Reference("1.00x copy", src)}
        points = tuple(
            Point(scheme, run_tcp_stream_rx,
                  StreamConfig(scheme=scheme, message_size=65536, cores=1,
                               units_per_core=units, warmup_units=warmup),
                  units)
            for scheme in refs)
        return Workload(name, points, capture=False, headline="gbps",
                        references=refs, relative=True)
    if name == "kv8-mixed":
        cores, tpc, warmup = (2, 10, 2) if tiny else (8, 400, 40)
        src = "paper Fig. 11, 16 cores"
        refs = {"identity-strict": Reference("0.15x copy", src),
                "identity-deferred-bounded": Reference(
                    "none", "not a scheme of the paper"),
                "copy": Reference("1.00x copy", src)}
        key_seed = derive_seed(seed, "kv8-mixed")
        points = tuple(
            Point(scheme, run_memcached,
                  MemcachedConfig(scheme=scheme, cores=cores,
                                  transactions_per_core=tpc,
                                  warmup_transactions=warmup,
                                  value_size=1024, get_fraction=0.9,
                                  seed=key_seed),
                  cores * tpc)
            for scheme in refs)
        return Workload(name, points, capture=False, headline="tps",
                        references=refs, relative=True)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# One pass.
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    wall_s: float = 0.0
    setup_s: float = 0.0
    teardown_s: float = 0.0
    units: int = 0
    attempted: int = 0
    #: Problems found, keyed by the scheme of the point that failed.
    failures: Dict[str, List[str]] = field(default_factory=dict)
    results: Dict[str, RunResult] = field(default_factory=dict)
    rows: Dict[str, list] = field(default_factory=dict)

    def fail(self, scheme: str, problem: str) -> None:
        self.failures.setdefault(scheme, []).append(problem)

    @property
    def digest(self) -> str:
        return digest(self.rows)

    def check_same_output(self, reference: "PassResult") -> None:
        """Fail every point whose simulated row differs from
        ``reference``'s: the simulator is deterministic, and neither
        capture nor the benchmark's spans may change what it computes."""
        for scheme, row in self.rows.items():
            if reference.rows.get(scheme, row) != row:
                self.fail(scheme, "simulated output differs from the "
                          "first pass of this run")


def digest(rows: Dict[str, list]) -> str:
    """sha256 over the canonical simulated rows of one pass."""
    blob = json.dumps(list(rows.values()), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _SystemHooks:
    """Times ``System.build``/``setup_queues``/``teardown_queues`` and
    hands back the instance each ``build`` returns (the workload drivers
    build and tear down internally)."""

    def __init__(self, recorder: Optional[SpanRecorder]):
        self.recorder = recorder
        self.setup_s = 0.0
        self.teardown_s = 0.0
        self.built: List[System] = []

    @contextmanager
    def installed(self) -> Iterator[None]:
        saved = {name: System.__dict__[name]
                 for name in ("build", "setup_queues", "teardown_queues")}
        orig_build = System.build
        orig_setup = System.setup_queues
        orig_teardown = System.teardown_queues
        clock = time.perf_counter
        hooks, rec = self, self.recorder

        def build(cls, config):
            t0 = clock()
            system = orig_build(config)
            hooks.setup_s += clock() - t0
            if rec is not None:
                rec.wrap_instance(system)
            hooks.built.append(system)
            return system

        def setup_queues(system):
            t0 = clock()
            orig_setup(system)
            hooks.setup_s += clock() - t0

        def teardown_queues(system):
            t0 = clock()
            orig_teardown(system)
            hooks.teardown_s += clock() - t0

        if rec is not None:
            build = rec.wrap("system.build", build)
            setup_queues = rec.wrap("system.setup_queues", setup_queues)
            teardown_queues = rec.wrap("system.teardown_queues",
                                       teardown_queues)
        System.build = classmethod(build)
        System.setup_queues = setup_queues
        System.teardown_queues = teardown_queues
        try:
            yield
        finally:
            for name, attr in saved.items():
                setattr(System, name, attr)


def run_pass(workload: Workload, capture: Optional[bool] = None,
             recorder: Optional[SpanRecorder] = None) -> PassResult:
    """Run every point of ``workload`` once and check its outputs.

    ``capture`` overrides the workload's own observability capture (the
    traced run's twin pass); ``recorder`` turns on the benchmark's spans.
    """
    capture = workload.capture if capture is None else capture
    hooks = _SystemHooks(recorder)
    out = PassResult()
    done: List[Tuple[Point, RunResult, Optional[System]]] = []
    gc.collect()
    with hooks.installed(), \
            (recorder.class_wrappers() if recorder is not None
             else nullcontext()):
        start = time.perf_counter()
        for point in workload.points:
            out.attempted += 1
            hooks.built.clear()
            run = point.run
            if recorder is not None:
                run = recorder.wrap(f"workloads.{point.runner.__name__}", run)
            try:
                result = run(capture)
            except Exception:   # a failing point is counted, not fatal
                out.fail(point.scheme, "raised\n" + traceback.format_exc())
                continue
            done.append((point, result,
                         hooks.built[0] if len(hooks.built) == 1 else None))
        out.wall_s = time.perf_counter() - start
    out.setup_s, out.teardown_s = hooks.setup_s, hooks.teardown_s
    for point, result, system in done:
        for problem in check_point(point, result, system, capture):
            out.fail(point.scheme, problem)
        out.units += result.units
        out.results[point.scheme] = result
        out.rows[point.scheme] = simulated_row(result)
    return out


def simulated_row(result: RunResult) -> list:
    """The canonical simulated output of one point, for the digest."""
    return [result.scheme, result.units, result.payload_bytes,
            result.wall_cycles, result.busy_cycles,
            sorted(result.breakdown_cycles.items())]


def check_point(point: Point, result: RunResult, system: Optional[System],
                capture: bool) -> List[str]:
    """Every reason this point's outputs are wrong (empty when correct)."""
    if system is None:
        return ["expected exactly one System.build per point"]
    problems = []
    if result.units != point.expected_units:
        problems.append(f"measured units {result.units} != "
                        f"{point.expected_units}")
    nic = system.nic.stats
    dropped = (nic.rx_drops_no_descriptor + nic.rx_drops_too_big
               + nic.rx_drops_injected + nic.rx_drops_faulted
               + system.driver.stats.tx_dropped_chunks)
    if dropped:
        problems.append(f"{dropped} frames dropped")
    if system.dma_api.live_mappings != 0:
        problems.append(f"{system.dma_api.live_mappings} live mappings "
                        "after teardown_queues")
    if point.scheme == "copy":
        pool = system.dma_api.pool.stats
        if pool.in_flight != 0 or pool.acquires != pool.releases:
            problems.append(f"shadow pool unbalanced: in_flight "
                            f"{pool.in_flight}, acquires {pool.acquires}, "
                            f"releases {pool.releases}")
    if capture and point.scheme in STALE_FREE_SCHEMES:
        exposure = result.extras.get("exposure")
        stale = None if exposure is None else exposure["stale_byte_cycles"]
        if stale != 0:
            problems.append(f"stale_byte_cycles {stale} != 0")
    return problems


# ----------------------------------------------------------------------
# Report-only output: accuracy beside the paper.
# ----------------------------------------------------------------------
def headline(workload: Workload, result: RunResult) -> Tuple[float, str]:
    if workload.headline == "gbps":
        return result.throughput_gbps, "Gb/s"
    return result.transactions_per_sec, "tx/s"


def accuracy_lines(workload: Workload, results: Dict[str, RunResult]
                   ) -> List[str]:
    """Simulated headline values beside the paper's (approximate) ones."""
    lines = []
    base = results.get("copy")
    for scheme, ref in workload.references.items():
        result = results.get(scheme)
        if result is None:
            continue
        value, unit = headline(workload, result)
        text = f"{value:.2f} {unit}" if unit == "Gb/s" \
            else f"{value:.0f} {unit}"
        if workload.relative and base is not None:
            text += f" = {value / headline(workload, base)[0]:.2f}x copy"
        lines.append(f"accuracy {workload.name} {scheme}: simulated {text};"
                     f" paper {ref.text} ({ref.source})")
    lines.append("accuracy note: paper values are approximate readings of "
                 "the paper's figures (EXPERIMENTS.md); report-only")
    return lines
