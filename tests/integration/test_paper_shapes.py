"""Paper-shape integration tests.

The paper's claims are the shapes of its §6 figures and tables: who
wins, by what factor, and where the crossovers fall.  Every such shape
is asserted here, at sizes chosen so each bound holds with margin while
the suite stays fast; ``python -m repro bench --full`` regenerates the
figures themselves at the paper's sizes.  Table 1 is asserted by
``tests/attacks/test_audit.py``.

Runs are bit-deterministic and the tests only read their results, so
the run helpers are memoized: a configuration shared by several tests
runs once per test session.
"""

import functools
from dataclasses import replace

import pytest

from repro.bench.runner import FIGURE_SCHEMES
from repro.dma.api import DmaDirection
from repro.dma.registry import create_dma_api
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.net.driver import NicDriver
from repro.net.nic import Nic
from repro.net.packets import build_frame
from repro.sim.costmodel import CostModel
from repro.sim.units import CYCLES_PER_US, GIB
from repro.stats.analytical import copy_invalidate_breakeven_bytes
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import (
    RRConfig,
    StreamConfig,
    run_tcp_rr,
    run_tcp_stream_rx,
    run_tcp_stream_tx,
)
from repro.workloads.storage import StorageConfig, run_storage


@functools.cache
def rx(scheme, size, cores=1, units=400):
    return run_tcp_stream_rx(StreamConfig(
        scheme=scheme, message_size=size, cores=cores,
        units_per_core=units, warmup_units=80))


@functools.cache
def tx(scheme, size, cores=1, units=300):
    return run_tcp_stream_tx(StreamConfig(
        scheme=scheme, direction="tx", message_size=size, cores=cores,
        units_per_core=units, warmup_units=60))


#: Request/response transactions per Figure 9/10 point.
RR_TRANSACTIONS = 50


@functools.cache
def rr(scheme, size):
    return run_tcp_rr(RRConfig(scheme=scheme, message_size=size,
                               transactions=RR_TRANSACTIONS,
                               warmup_transactions=40))


# ----------------------------------------------------------------------
# Figure 1 shapes — the motivating chart, RX at 16 KB (1500 B frames).
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fig1_strict_schemes_collapse_at_16_cores():
    copy = rx("copy", 16384, cores=16, units=200).throughput_gbps
    for scheme in ("identity-strict", "linux-strict"):
        strict = rx(scheme, 16384, cores=16, units=200).throughput_gbps
        assert copy / strict >= 4.0
    # ...while copy rides with the unprotected system.
    base = rx("no-iommu", 16384, cores=16, units=200).throughput_gbps
    assert copy >= 0.95 * base


def test_fig1_stock_linux_slower_than_identity_single_core():
    """Linux's rbtree IOVA allocator costs more than identity mappings."""
    assert (rx("linux-strict", 16384).throughput_gbps
            <= rx("identity-strict", 16384).throughput_gbps)
    assert (rx("linux-deferred", 16384).throughput_gbps
            <= rx("identity-deferred", 16384).throughput_gbps * 1.02)


# ----------------------------------------------------------------------
# Figure 3 shapes — single-core RX.
# ----------------------------------------------------------------------
def test_fig3_copy_is_076x_of_no_iommu():
    base = rx("no-iommu", 65536)
    copy = rx("copy", 65536)
    assert copy.throughput_gbps / base.throughput_gbps == pytest.approx(
        0.76, abs=0.05)


def test_fig3_copy_beats_deferred_despite_stronger_security():
    copy = rx("copy", 16384)
    deferred = rx("identity-deferred", 16384)
    ratio = copy.throughput_gbps / deferred.throughput_gbps
    assert 1.03 <= ratio <= 1.20  # paper: ≈10%
    assert (rx("copy", 65536).throughput_gbps
            / rx("identity-deferred", 65536).throughput_gbps) >= 1.03


def test_fig3_copy_doubles_strict():
    copy = rx("copy", 65536)
    strict = rx("identity-strict", 65536)
    assert copy.throughput_gbps / strict.throughput_gbps == pytest.approx(
        2.0, abs=0.35)
    assert copy.throughput_gbps / strict.throughput_gbps >= 1.7


def test_fig3_no_iommu_absolute_rate():
    base = rx("no-iommu", 65536)
    assert 15.5 <= base.throughput_gbps <= 19.5  # paper: ≈17.5 Gb/s


def test_fig3_sender_limited_parity_at_64B():
    """Below 512 B every scheme ties on throughput (the sender-syscall
    limit) and differs only in CPU, modestly for copy (paper:
    1.1–1.2×)."""
    base = rx("no-iommu", 64)
    for scheme in FIGURE_SCHEMES:
        ratio = rx(scheme, 64).throughput_gbps / base.throughput_gbps
        assert abs(ratio - 1.0) < 0.02
    assert rx("copy", 64).cpu_utilization / base.cpu_utilization <= 1.35


# ----------------------------------------------------------------------
# Figure 4 shapes — single-core TX.
# ----------------------------------------------------------------------
def test_fig4_copy_worst_at_64KB_but_within_25pct():
    results = {s: tx(s, 65536) for s in
               ("no-iommu", "copy", "identity-deferred", "identity-strict")}
    copy = results["copy"].throughput_gbps
    others = [r.throughput_gbps for s, r in results.items() if s != "copy"]
    assert copy < min(others)                 # copy is the worst...
    assert copy / max(others) > 0.70          # ...by a bounded margin
    assert copy / min(others) > 0.75


def test_fig4_small_messages_comparable():
    """Below 512 B all schemes transmit comparably (socket coalescing)."""
    base = tx("no-iommu", 64)
    strict = tx("identity-strict", 64)
    assert 0.9 < strict.throughput_gbps / base.throughput_gbps < 1.12
    assert abs(tx("copy", 64).throughput_gbps / base.throughput_gbps
               - 1.0) < 0.05


def test_fig4_copy_only_scheme_pegged_at_64KB():
    copy = tx("copy", 65536)
    base = tx("no-iommu", 65536)
    assert copy.cpu_utilization > 0.98
    assert base.cpu_utilization < 0.95


# ----------------------------------------------------------------------
# Figures 6/7 shapes — 16-core collapse of identity+.
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fig6_strict_collapses_at_16_cores():
    strict = rx("identity-strict", 16384, cores=16, units=200)
    copy = rx("copy", 16384, cores=16, units=200)
    assert copy.throughput_gbps / strict.throughput_gbps >= 4.0
    assert strict.cpu_utilization > 0.95   # all cores spin on the lock
    # Spinlock dominates the strict breakdown (Fig. 8a).
    spin = strict.breakdown_cycles.get("spinlock", 0)
    assert spin > 0.5 * strict.busy_cycles


@pytest.mark.slow
def test_fig6_copy_reaches_line_rate_at_16_cores():
    copy = rx("copy", 16384, cores=16, units=200)
    base = rx("no-iommu", 16384, cores=16, units=200)
    assert copy.throughput_gbps == pytest.approx(base.throughput_gbps,
                                                 rel=0.02)
    # §6: bounded CPU overhead versus no-iommu.
    assert copy.cpu_utilization / base.cpu_utilization < 1.7


@pytest.mark.slow
def test_fig7_strict_converges_at_large_tx():
    """identity+ is far behind for small messages (an invalidation per
    MSS chunk); TSO closes the gap until it vanishes at 64 KB."""
    strict = tx("identity-strict", 65536, cores=16, units=150)
    base = tx("no-iommu", 65536, cores=16, units=150)
    assert strict.throughput_gbps == pytest.approx(base.throughput_gbps,
                                                   rel=0.05)
    small_gap = (tx("copy", 64, cores=16, units=150).throughput_gbps
                 / tx("identity-strict", 64, cores=16,
                      units=150).throughput_gbps)
    copy = tx("copy", 65536, cores=16, units=150).throughput_gbps
    large_gap = copy / strict.throughput_gbps
    assert small_gap >= 2.0
    assert large_gap < small_gap
    assert abs(large_gap - 1.0) < 0.05
    assert copy >= 0.97 * base.throughput_gbps


@pytest.mark.slow
@pytest.mark.parametrize("size", (1024, 4096, 65536))
def test_fig6_collapse_at_every_cpu_bound_size(size):
    """The identity+ collapse holds at every CPU-bound size (16 KB is
    asserted above; paper: ≈5×), burning all 16 cores, while copy rides
    at line rate with the unprotected system."""
    strict = rx("identity-strict", size, cores=16, units=50)
    copy = rx("copy", size, cores=16, units=50)
    base = rx("no-iommu", size, cores=16, units=50)
    assert copy.throughput_gbps / strict.throughput_gbps >= 4
    assert strict.cpu_utilization > 0.95
    assert copy.throughput_gbps >= 0.97 * base.throughput_gbps


# ----------------------------------------------------------------------
# Figure 5 shapes — the per-packet breakdown story.
# ----------------------------------------------------------------------
def test_fig5a_invalidation_dominates_strict_rx():
    strict = rx("identity-strict", 65536)
    bd = strict.breakdown_us_per_unit()
    assert bd["invalidate iotlb"] > bd["iommu page table mgmt"]
    # Paper: 0.61 µs of hardware latency; our bucket also carries the
    # descriptor submission and completion-poll overhead (≈0.27 µs).
    assert 0.6 <= bd["invalidate iotlb"] <= 1.1
    # identity± pay ≈0.17 µs of page-table management, and copying an
    # MTU packet is several × cheaper than one invalidation.
    assert 0.13 <= bd["iommu page table mgmt"] <= 0.21
    copy_bd = rx("copy", 65536).breakdown_us_per_unit()
    assert bd["invalidate iotlb"] / copy_bd["memcpy"] >= 4.0


def test_fig5a_copy_overhead_small_rx():
    copy = rx("copy", 65536)
    bd = copy.breakdown_us_per_unit()
    assert bd["memcpy"] == pytest.approx(0.11, abs=0.06)
    assert bd["copy mgmt"] < 0.05
    assert bd["invalidate iotlb"] == 0.0
    assert bd["iommu page table mgmt"] == 0.0


def test_fig5b_tx_memcpy_matches_strict_iommu_cost():
    """Fig. 5b: copy's 64 KB memcpy ≈ identity+'s total IOMMU overhead."""
    copy_bd = tx("copy", 65536).breakdown_us_per_unit()
    strict_bd = tx("identity-strict", 65536).breakdown_us_per_unit()
    iommu_cost = (strict_bd["invalidate iotlb"]
                  + strict_bd["iommu page table mgmt"])
    assert copy_bd["memcpy"] == pytest.approx(iommu_cost, rel=0.7)
    assert 0.5 <= copy_bd["memcpy"] / iommu_cost <= 2.0
    assert 3.8 <= copy_bd["memcpy"] <= 5.5  # ≈4.65 µs per 64 KB chunk
    # Cache pollution shows up as extra "other" time for copy on TX.
    assert copy_bd["other"] > strict_bd["other"]


# ----------------------------------------------------------------------
# Figure 8 shapes — the 16-core breakdown at 64 KB.
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fig8_invalidation_spinlock_dominates_16_core_rx():
    strict = rx("identity-strict", 65536, cores=16,
                units=50).breakdown_us_per_unit()
    copy = rx("copy", 65536, cores=16, units=50).breakdown_us_per_unit()
    tx_strict = tx("identity-strict", 65536, cores=16,
                   units=150).breakdown_us_per_unit()
    # Invalidation latency degraded well past the idle 0.61 µs (≈2.7 µs
    # in the paper; the bucket includes submit+poll).
    assert strict["invalidate iotlb"] >= 1.8
    # The spinlock dominates everything else combined (paper: ≈70 µs of
    # spinning per packet; tens of µs in the model).
    assert strict["spinlock"] >= 20.0
    assert strict["spinlock"] > 5 * strict["invalidate iotlb"]
    # copy is unchanged from the single-core shape — no shared state.
    assert copy["spinlock"] < 0.05
    assert copy["memcpy"] <= 0.17
    # TX strict: spinning exists but is far milder (TSO cuts chunk rate).
    assert tx_strict["spinlock"] < strict["spinlock"]


# ----------------------------------------------------------------------
# Figures 9/10 shapes — single-core TCP_RR latency and its CPU cost.
# ----------------------------------------------------------------------
def test_fig9_latency_comparable_overheads_show_in_cpu():
    base64, base64k = rr("no-iommu", 64), rr("no-iommu", 65536)
    # 1024× the bytes, only a few × the latency (paper: ≈4×).
    assert 2.5 <= base64k.latency_us / base64.latency_us <= 7.0
    protected = ("copy", "identity-deferred", "identity-strict")
    for size in (64, 1024, 16384, 65536):
        base = rr("no-iommu", size).latency_us
        for scheme in protected:
            assert rr(scheme, size).latency_us / base < 1.3
    # The overheads show in CPU instead; identity+ is the most expensive
    # at small messages.
    for scheme in protected:
        assert (rr(scheme, 65536).cpu_utilization
                > base64k.cpu_utilization)
    assert (rr("identity-strict", 64).cpu_utilization
            >= rr("copy", 64).cpu_utilization
            > base64.cpu_utilization)


def test_fig10_rr_cpu_breakdown_at_64KB():
    strict, copy = rr("identity-strict", 65536), rr("copy", 65536)
    strict_bd = strict.breakdown_us_per_unit()
    copy_bd = copy.breakdown_us_per_unit()
    strict_iommu = (strict_bd["invalidate iotlb"]
                    + strict_bd["iommu page table mgmt"]
                    + strict_bd["spinlock"])
    copy_copying = copy_bd["memcpy"] + copy_bd["copy mgmt"]
    # identity+ spends a large share on IOMMU work (paper: "almost
    # half"); copy's copying is a bounded share of busy time (paper:
    # ≈20%) and a small slice of the round trip (paper: <10%; the LRO
    # model copies the full 2×64 KB per transaction, landing ≈11%).
    assert strict_iommu / strict.us_per_unit >= 0.25
    assert copy_copying / copy.us_per_unit <= 0.45
    assert copy_copying / copy.latency_us < 0.15
    # No invalidations at all on copy's hot path.
    assert copy_bd["invalidate iotlb"] == 0.0


# ----------------------------------------------------------------------
# Figure 11 shapes — memcached, 16 instances.
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fig11_memcached_copy_rides_with_no_iommu():
    runs = {scheme: run_memcached(MemcachedConfig(
                scheme=scheme, cores=16, transactions_per_core=60,
                warmup_transactions=40))
            for scheme in FIGURE_SCHEMES}
    tps = {scheme: r.transactions_per_sec for scheme, r in runs.items()}
    assert tps["copy"] / tps["no-iommu"] > 0.95      # paper: <2% overhead
    assert tps["identity-deferred"] / tps["no-iommu"] > 0.9
    assert tps["copy"] / tps["identity-strict"] >= 5.0   # paper: 6.6×
    # identity+ pegs the CPU while achieving the least.
    assert runs["identity-strict"].cpu_utilization > 0.95


# ----------------------------------------------------------------------
# §6 memory consumption — shadow-pool occupancy.
# ----------------------------------------------------------------------
def _fresh(scheme="copy", cores=2, cost=None, **kwargs):
    machine = Machine.build(cores=cores, numa_nodes=min(2, cores),
                            cost=cost)
    ka = KernelAllocators(machine)
    iommu = Iommu(machine)
    api = create_dma_api(scheme, machine, iommu, 1, ka, **kwargs)
    return machine, ka, iommu, api


@pytest.mark.slow
def test_memory_consumption_tracks_in_flight_dmas():
    """The worst-case pool bound is ≈2.1 GB (16 K buffers × two size
    classes × two NUMA domains), but the measured footprint tracks
    in-flight DMAs, far below it."""
    machine, _, _, api = _fresh()
    pool = api.pool
    worst = (pool.max_buffers_per_class * sum(pool.size_classes)
             * machine.num_nodes)
    assert abs(worst - 2.1 * GIB) / (2.1 * GIB) < 0.1
    rx_pool = rx("copy", 16384, cores=16, units=200).extras["pool"]
    tx_pool = tx("copy", 65536, cores=16, units=150).extras["pool"]
    assert (rx_pool["bytes_allocated"] + tx_pool["bytes_allocated"]) * 5 \
        < worst
    # RX occupancy is driven by posted ring buffers: 16 rings × 511.
    assert rx_pool["in_flight"] == 16 * 511


# ----------------------------------------------------------------------
# §5.5 storage extension — block-size sweep.
# ----------------------------------------------------------------------
def test_storage_protection_matters_only_at_nic_like_rates():
    """Small blocks run at NIC-like op rates, where copy beats strict
    zero-copy; huge blocks are device-bound, so every scheme ties at low
    CPU, copy riding the hybrid head/tail path."""
    def run(scheme, block_size):
        return run_storage(StorageConfig(scheme=scheme,
                                         block_size=block_size,
                                         ops_per_core=250, warmup_ops=50))

    small_copy = run("copy", 4096).transactions_per_sec
    small_strict = run("identity-strict", 4096).transactions_per_sec
    assert small_copy > 1.15 * small_strict
    big = {scheme: run(scheme, 1048576) for scheme in FIGURE_SCHEMES}
    base = big["no-iommu"].transactions_per_sec
    for scheme in FIGURE_SCHEMES:
        assert abs(big[scheme].transactions_per_sec - base) / base < 0.02
    assert big["copy"].cpu_utilization < 0.35
    assert big["copy"].extras["hybrid_maps"] >= 300
    # The hybrid keeps copy's CPU within ~3× of zero-copy strict
    # (copying 1 MB outright would be ~10×).
    assert (big["copy"].cpu_utilization
            < 3.0 * big["identity-strict"].cpu_utilization)


# ----------------------------------------------------------------------
# Ablations of the design choices DESIGN.md calls out.
# ----------------------------------------------------------------------
def test_ablation_copy_hints_pay_off_on_partial_buffers():
    """§5.4: copy only the bytes the packet holds (a 154 B frame in a
    2 KB RX buffer)."""
    per_packet = {}
    for hints in (True, False):
        machine, ka, _, api = _fresh()
        nic = Nic(1, api.port())
        driver = NicDriver(machine, ka, api, nic, rx_ring_size=64,
                           tx_ring_size=64, use_copy_hints=hints)
        core = machine.core(0)
        driver.setup_queue(core, 0)
        frame = build_frame(100)
        start = core.busy_cycles
        for _ in range(500):
            driver.receive_one(core, 0, frame)
        per_packet[hints] = core.busy_cycles - start
        driver.teardown_queue(core, 0)
    assert per_packet[True] < per_packet[False]


def test_ablation_sticky_buffers_avoid_remap_on_remote_release():
    """§5.3: a buffer released on a remote node returns to its owner's
    list instead of migrating (a remap + invalidate per release)."""
    per_op = {}
    for sticky in (True, False):
        machine, ka, _, api = _fresh(cores=4, sticky=sticky)
        mapper = machine.core(0)       # node 0
        releaser = machine.core(3)     # node 1 — remote completions
        buf = ka.kmalloc(4096, node=0)
        start = mapper.busy_cycles + releaser.busy_cycles
        for _ in range(300):
            handle = api.dma_map(mapper, buf, DmaDirection.TO_DEVICE)
            meta = api.pool.find_shadow(releaser, handle.iova)
            # Unmap runs on the remote core (e.g. a TX completion IRQ).
            api._live.pop(handle.iova)
            api.pool.release_shadow(releaser, meta)
        per_op[sticky] = (mapper.busy_cycles + releaser.busy_cycles
                          - start)
    assert per_op[False] > 3 * per_op[True]


def test_ablation_hybrid_beats_full_copy_for_huge_buffers():
    """§5.5: copy the sub-page head/tail of a 256 KB buffer and map the
    middle, instead of shadowing every byte through 64 KB buffers."""
    size, rounds = 256 * 1024, 60

    machine, ka, _, api = _fresh()
    core = machine.core(0)
    backing = ka.kmalloc(size + 4096, node=0)
    buf = KBuffer(pa=backing.pa + 100, size=size, node=0)
    start = core.busy_cycles
    for _ in range(rounds):
        api.dma_unmap(core, api.dma_map(core, buf,
                                        DmaDirection.BIDIRECTIONAL))
    hybrid = core.busy_cycles - start

    machine, ka, _, api = _fresh()
    core = machine.core(0)
    backing = ka.kmalloc(size, node=0)
    chunks = [KBuffer(pa=backing.pa + off, size=65536, node=0)
              for off in range(0, size, 65536)]
    start = core.busy_cycles
    for _ in range(rounds):
        api.dma_unmap_sg(core, api.dma_map_sg(core, chunks,
                                              DmaDirection.BIDIRECTIONAL))
    full_copy = core.busy_cycles - start
    assert hybrid < full_copy


def test_ablation_deferred_batch_size_trades_window_for_throughput():
    """§2.2.1: bigger batches amortize invalidations but widen the
    measured vulnerability window."""
    out = {}
    for batch in (1, 10, 250, 1000):
        # Enough unmaps that even the largest batch flushes (and thus
        # reports measured windows) several times.
        r = run_tcp_stream_rx(StreamConfig(
            scheme="identity-deferred", message_size=16384, cores=1,
            units_per_core=2400, warmup_units=100,
            cost=CostModel(deferred_batch_size=batch)))
        out[batch] = (r.throughput_gbps,
                      r.extras.get("window_mean_us", 0.0),
                      r.extras.get("window_max_us", 0.0))
    # Tiny batches converge towards strict cost; 250 already captures
    # nearly all of the gain.
    assert out[250][0] > out[1][0]
    assert out[1000][0] / out[250][0] < 1.05
    # The price: the window grows with the batch, to hundreds of packets
    # at line rate.
    assert out[1000][1] > out[10][1]
    assert out[250][2] > 50


# ----------------------------------------------------------------------
# Sensitivity — how robust is "copy beats strict zero copy"?
# ----------------------------------------------------------------------
INVALIDATION_SCALES = (0.1, 0.25, 0.5, 1.0, 2.0)
MEMCPY_SCALES = (0.25, 0.5, 1.0, 2.0)


def _scaled_cost(invalidation=1.0, memcpy=1.0):
    base = CostModel()
    return replace(
        base,
        iotlb_invalidation_cycles=round(
            base.iotlb_invalidation_cycles * invalidation),
        memcpy_bytes_per_cycle=base.memcpy_bytes_per_cycle * memcpy)


def _copy_over_strict(cost):
    """copy / identity-strict throughput, 1-core RX at 64 KB."""
    gbps = [run_tcp_stream_rx(StreamConfig(
                scheme=scheme, message_size=65536, cores=1,
                units_per_core=400, warmup_units=60,
                cost=cost)).throughput_gbps
            for scheme in ("copy", "identity-strict")]
    return gbps[0] / gbps[1]


def test_sensitivity_to_invalidation_latency():
    costs = [_scaled_cost(invalidation=s) for s in INVALIDATION_SCALES]
    ratios = [_copy_over_strict(cost) for cost in costs]
    # At the paper's hardware copy wins ~2×.
    assert ratios[INVALIDATION_SCALES.index(1.0)] > 1.7
    # Copy's advantage shrinks monotonically as invalidation gets faster,
    # but a 10× faster IOMMU does not erase it: page-table management
    # and queue interaction remain (the §8 point that the cost is
    # "interacting with the IOMMU", not just the latency).
    assert ratios == sorted(ratios)
    assert ratios[0] < 1.45
    # The break-even size scales with invalidation cost.
    breakeven = {s: copy_invalidate_breakeven_bytes(cost)
                 for s, cost in zip(INVALIDATION_SCALES, costs)}
    assert breakeven[0.1] < breakeven[1.0] < breakeven[2.0]


def test_sensitivity_to_memcpy_bandwidth():
    """Slower copies (no ERMS) erode copy's edge; faster ones widen it."""
    assert (_copy_over_strict(_scaled_cost(memcpy=0.25))
            < _copy_over_strict(_scaled_cost(memcpy=2.0)))
