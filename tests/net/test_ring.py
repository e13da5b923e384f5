"""Descriptor-ring tests: driver side, device side, wraparound."""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dma.registry import create_dma_api
from repro.errors import ConfigurationError, SimulationError
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.kalloc.slab import KernelAllocators
from repro.net.ring import DESC_SIZE, FLAG_DONE, FLAG_READY, Descriptor, DescriptorRing


@pytest.fixture
def ring(machine, make_api):
    api = make_api("copy")
    core = machine.core(0)
    r = DescriptorRing(machine, api, core, entries=8, name="t")
    yield r, api, core


def test_ring_lives_in_coherent_memory(ring):
    r, api, core = ring
    assert r.coherent.size == 8 * DESC_SIZE
    assert api.stats.coherent_allocs >= 1


def test_post_and_reap(ring):
    r, api, core = ring
    idx = r.post(Descriptor(addr=0x1000, length=100, flags=FLAG_READY))
    assert r.outstanding == 1
    assert r.reap() is None  # not completed yet
    r.write_descriptor(idx, Descriptor(addr=0x1000, length=100,
                                       flags=FLAG_DONE))
    reaped = r.reap()
    assert reaped is not None
    assert reaped[0] == idx
    assert r.outstanding == 0


def test_reap_empty(ring):
    r, _, _ = ring
    assert r.reap() is None


def test_wraparound(ring):
    r, _, _ = ring
    for round_ in range(3):
        for i in range(8):
            idx = r.post(Descriptor(addr=i, length=1, flags=FLAG_READY))
            r.write_descriptor(idx, Descriptor(addr=i, length=1,
                                               flags=FLAG_DONE))
            got = r.reap()
            assert got[1].addr == i


def test_overflow_rejected(ring):
    r, _, _ = ring
    for i in range(8):
        r.post(Descriptor(addr=i, length=1, flags=FLAG_READY))
    with pytest.raises(SimulationError):
        r.post(Descriptor(addr=9, length=1, flags=FLAG_READY))


def test_device_reads_through_port(ring):
    r, api, core = ring
    idx = r.post(Descriptor(addr=0xabcd000, length=42, flags=FLAG_READY))
    desc = r.device_read(api.port(), idx)
    assert desc.addr == 0xabcd000
    assert desc.length == 42
    assert desc.ready


def test_device_writeback_visible_to_driver(ring):
    r, api, core = ring
    idx = r.post(Descriptor(addr=1, length=2, flags=FLAG_READY))
    r.device_write_back(api.port(), idx,
                        Descriptor(addr=1, length=2, flags=FLAG_DONE))
    reaped = r.reap()
    assert reaped is not None and reaped[1].done


def test_ring_size_validation(machine, make_api):
    api = make_api("copy")
    core = machine.core(0)
    with pytest.raises(ConfigurationError):
        DescriptorRing(machine, api, core, entries=3)
    with pytest.raises(ConfigurationError):
        DescriptorRing(machine, api, core, entries=1)


def test_ring_free(machine, make_api):
    api = make_api("copy")
    core = machine.core(0)
    r = DescriptorRing(machine, api, core, entries=4)
    r.free(core)


def test_descriptor_flags():
    d = Descriptor(addr=0, length=0, flags=FLAG_READY | FLAG_DONE)
    assert d.ready and d.done
    assert not Descriptor(addr=0, length=0, flags=0).ready


# ----------------------------------------------------------------------
# The precompiled descriptor codec must encode exactly what
# ``struct.pack("<QII", ...)`` does and fail the same way.
# ----------------------------------------------------------------------
def _packed(addr, length, flags):
    try:
        return "ok", struct.pack("<QII", addr, length, flags)
    except struct.error as exc:
        return struct.error, str(exc)


def _ring_outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:      # compared by type and message
        return type(exc), str(exc)
    return None


_U64 = st.integers(-1, (1 << 64)) | st.sampled_from([0, (1 << 64) - 1])
_U32 = st.integers(-1, (1 << 32)) | st.sampled_from([0, (1 << 32) - 1])


def _fresh_ring():
    machine = Machine.build(cores=1, numa_nodes=1)
    api = create_dma_api("copy", machine, Iommu(machine), device_id=1,
                         allocators=KernelAllocators(machine))
    return DescriptorRing(machine, api, machine.core(0), entries=8), api


@example(addr=(1 << 64) - 1, length=(1 << 32) - 1, flags=(1 << 32) - 1,
         index=7)
@example(addr=0, length=0, flags=0, index=0)
@example(addr=1 << 64, length=0, flags=0, index=0)
@example(addr=0, length=-1, flags=0, index=3)
@example(addr=0, length=0, flags=1 << 32, index=8)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(addr=_U64, length=_U32, flags=_U32, index=st.integers(0, 20))
def test_descriptor_codec_matches_struct_pack(addr, length, flags, index):
    r, api = _fresh_ring()
    desc = Descriptor(addr=addr, length=length, flags=flags)
    expected = _packed(addr, length, flags)
    slot = r.coherent.kbuf.pa + (index % r.entries) * DESC_SIZE
    before = r.machine.memory.read(slot, DESC_SIZE)
    error = _ring_outcome(r.write_descriptor, index, desc)
    if expected[0] != "ok":
        assert error == expected
        assert r.machine.memory.read(slot, DESC_SIZE) == before
        assert _ring_outcome(r.device_write_back, api.port(), index,
                             desc) == expected
        return
    assert error is None
    assert r.machine.memory.read(slot, DESC_SIZE) == expected[1]
    assert r.read_descriptor(index) == desc
    assert r.device_read(api.port(), index) == desc
    r.device_write_back(api.port(), index + 1, desc)
    assert r.machine.memory.read(
        r.coherent.kbuf.pa + ((index + 1) % r.entries) * DESC_SIZE,
        DESC_SIZE) == expected[1]
