"""Physical memory model tests."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import MemoryAccessError
from repro.hw.memory import NODE_REGION_BYTES, PhysicalMemory
from repro.sim.units import PAGE_SIZE


@pytest.fixture
def mem() -> PhysicalMemory:
    return PhysicalMemory(num_nodes=2)


def test_basic_roundtrip(mem):
    mem.write(0x1000, b"hello")
    assert mem.read(0x1000, 5) == b"hello"


def test_untouched_memory_reads_zero(mem):
    assert mem.read(0x5000, 16) == bytes(16)


def test_write_across_page_boundary(mem):
    data = bytes(range(200)) * 50  # 10 000 bytes, > 2 pages
    addr = PAGE_SIZE - 17
    mem.write(addr, data)
    assert mem.read(addr, len(data)) == data


def test_copy_across_pages(mem):
    src = 3 * PAGE_SIZE - 100
    dst = 7 * PAGE_SIZE - 50
    payload = bytes(range(256)) * 2
    mem.write(src, payload)
    mem.copy(dst, src, len(payload))
    assert mem.read(dst, len(payload)) == payload


def test_fill(mem):
    mem.fill(0x2000, 100, 0xAB)
    assert mem.read(0x2000, 100) == b"\xab" * 100


def test_node_geometry(mem):
    base1 = mem.node_base(1)
    assert base1 == 1 << 36
    assert mem.node_of(0) == 0
    assert mem.node_of(base1) == 1
    assert mem.node_of(base1 + 12345) == 1


def test_node_region(mem):
    base, size = mem.node_region(0)
    assert base == 0 and size == NODE_REGION_BYTES


def test_node_out_of_range(mem):
    with pytest.raises(MemoryAccessError):
        mem.node_base(5)
    with pytest.raises(MemoryAccessError):
        mem.node_of(10 << 36)


def test_write_outside_memory_rejected(mem):
    with pytest.raises(MemoryAccessError):
        mem.write((2 << 36) + 10, b"x")


def test_read_outside_memory_rejected(mem):
    with pytest.raises(MemoryAccessError):
        mem.read(5 << 36, 1)


def test_cross_node_range_check():
    # A range cannot straddle a node boundary with a smaller node size.
    mem = PhysicalMemory(num_nodes=2, node_bytes=1 << 20)
    assert not mem.contains((1 << 20) - 10, 100)
    with pytest.raises(MemoryAccessError):
        mem.read((1 << 20) - 10, 100)


def test_resident_pages_lazy(mem):
    assert mem.resident_pages == 0
    mem.write(0, b"x")
    assert mem.resident_pages == 1
    mem.write(PAGE_SIZE * 10, bytes(PAGE_SIZE + 1))
    assert mem.resident_pages == 3


def test_zero_size_ops(mem):
    mem.write(0, b"")
    assert mem.read(0, 0) == b""
    mem.copy(0, 100, 0)


def test_zero_nodes_rejected():
    with pytest.raises(MemoryAccessError):
        PhysicalMemory(num_nodes=0)


@settings(max_examples=50)
@given(addr=st.integers(min_value=0, max_value=1 << 24),
       data=st.binary(min_size=1, max_size=3 * PAGE_SIZE))
def test_roundtrip_property(addr, data):
    mem = PhysicalMemory(num_nodes=1)
    mem.write(addr, data)
    assert mem.read(addr, len(data)) == data


@settings(max_examples=30)
@given(a=st.integers(min_value=0, max_value=1 << 20),
       b=st.integers(min_value=2 << 20, max_value=3 << 20),
       data=st.binary(min_size=1, max_size=PAGE_SIZE))
def test_disjoint_writes_do_not_interfere(a, b, data):
    mem = PhysicalMemory(num_nodes=1)
    mem.write(a, data)
    mem.write(b, data[::-1])
    assert mem.read(a, len(data)) == data


# ----------------------------------------------------------------------
# Single-frame fast paths: ``read``/``write``/``copy`` take a shortcut
# when the range sits inside one page frame of one node.  Each must be
# indistinguishable from the page-by-page general path: same bytes,
# same materialized frames, same exception type and message.
# ----------------------------------------------------------------------
_NODE = 1 << 20          # small nodes, so node ends are easy to reach
_NODE1 = 1 << 36         # base of node 1's region


def _twins():
    """Two identical two-node memories with recognisable content."""
    mems = [PhysicalMemory(num_nodes=2, node_bytes=_NODE) for _ in range(2)]
    for mem in mems:
        for pa in (0, PAGE_SIZE, _NODE - PAGE_SIZE, _NODE1):
            mem._write_pages(pa, bytes(range(256)) * (PAGE_SIZE // 256))
    return mems


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:      # compared by type and message
        return type(exc), str(exc)


_ADDRS = st.sampled_from([0, PAGE_SIZE, _NODE - PAGE_SIZE, _NODE,
                          _NODE1, _NODE1 + _NODE - PAGE_SIZE, 2 * _NODE1,
                          -PAGE_SIZE])
_EDGES = [(0, PAGE_SIZE), (1, PAGE_SIZE), (PAGE_SIZE - 1, 1),
          (PAGE_SIZE - 1, 2), (_NODE - 1, 1), (_NODE - 1, 2),
          (_NODE - PAGE_SIZE, PAGE_SIZE), (_NODE, 1), (_NODE1 - 1, 1),
          (-1, 1), (0, 0), (PAGE_SIZE - 1, 0), (0, -1), (_NODE, -1)]


def _edge_examples(test):
    for pa, size in _EDGES:
        test = example(base=pa, offset=0, size=size)(test)
    return test


@_edge_examples
@settings(max_examples=150, deadline=None, derandomize=True)
@given(base=_ADDRS, offset=st.integers(-2, 2 * PAGE_SIZE),
       size=st.integers(-2, 2 * PAGE_SIZE + 1))
def test_read_fast_path_matches_general(base, offset, size):
    fast, general = _twins()
    pa = base + offset
    got = _outcome(fast.read, pa, size)
    assert got == _outcome(general._read_pages, pa, size)
    assert got[0] != "ok" or type(got[1]) is bytes
    assert fast._frames == general._frames


@_edge_examples
@settings(max_examples=150, deadline=None, derandomize=True)
@given(base=_ADDRS, offset=st.integers(-2, 2 * PAGE_SIZE),
       size=st.integers(-2, 2 * PAGE_SIZE + 1))
def test_write_fast_path_matches_general(base, offset, size):
    fast, general = _twins()
    pa = base + offset
    data = bytes(i * 7 % 251 for i in range(max(size, 0)))
    assert (_outcome(fast.write, pa, data)
            == _outcome(general._write_pages, pa, data))
    assert fast._frames == general._frames


def _copy_by_pages(mem, dst, src, size):
    """The general copy, built from the page-by-page read and write."""
    if size == 0:
        return
    mem._write_pages(dst, mem._read_pages(src, size))


@example(dst=PAGE_SIZE + 1, src=_NODE - 1, size=1)
@example(dst=PAGE_SIZE, src=0, size=PAGE_SIZE)
@example(dst=_NODE - PAGE_SIZE, src=3, size=PAGE_SIZE)
@example(dst=_NODE, src=0, size=1)
@example(dst=0, src=_NODE, size=1)
@example(dst=5, src=5, size=100)
@example(dst=0, src=0, size=0)
@example(dst=0, src=0, size=-1)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(dst=st.sampled_from([0, 5, PAGE_SIZE - 1, _NODE - 10, _NODE,
                            _NODE1 + 1]),
       src=st.sampled_from([0, 3, PAGE_SIZE + 7, _NODE - 1, _NODE1]),
       size=st.integers(-1, PAGE_SIZE + 1))
def test_copy_fast_path_matches_general(dst, src, size):
    fast, general = _twins()
    assert (_outcome(fast.copy, dst, src, size)
            == _outcome(_copy_by_pages, general, dst, src, size))
    assert fast._frames == general._frames
