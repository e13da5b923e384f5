"""Physical memory model tests."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import MemoryAccessError
from repro.hw.memory import (
    NODE_REGION_BYTES,
    NODE_REGION_SHIFT,
    PhysicalMemory,
)
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE


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


@example(dst=_NODE1 + 1, src=PAGE_SIZE + 7, size=PAGE_SIZE + 1)
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
            == _outcome(general._copy_pages, dst, src, size))
    assert fast._frames == general._frames


# ----------------------------------------------------------------------
# Only writes materialize a frame.  Memory never written reads as zeros
# without a frame, and ``copy`` decides per page chunk: an unwritten
# source leaves an unwritten destination alone and zero-fills a written
# one; a written source materializes the destination.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pa, size", [
    (0x5000, 16),                           # inside one frame
    (PAGE_SIZE - 8, 16),                    # crossing one page boundary
    (3 * PAGE_SIZE + 5, 2 * PAGE_SIZE),     # spanning three frames
    (0x5000, 0),                            # empty
])
def test_untouched_reads_materialize_nothing(mem, pa, size):
    mem.write(1 << 20, b"x")
    assert mem.read(pa, size) == bytes(size)
    assert mem.resident_pages == 1


def test_read_across_written_and_untouched_frames(mem):
    mem.write(PAGE_SIZE - 2, b"ab")
    assert mem.read(PAGE_SIZE - 4, 8) == b"\0\0ab\0\0\0\0"
    assert mem.resident_pages == 1


@pytest.mark.parametrize("dst, src, size", [
    (0x5010, 0x9020, 100),                  # single frame
    (PAGE_SIZE - 10, 7 * PAGE_SIZE - 3, 2 * PAGE_SIZE),
])
def test_copy_untouched_into_untouched_is_a_no_op(mem, dst, src, size):
    mem.copy(dst, src, size)
    assert mem.resident_pages == 0
    assert mem.read(dst, size) == bytes(size)


@pytest.mark.parametrize("dst, src, size", [
    (PAGE_SIZE + 10, 9 * PAGE_SIZE, 100),   # single frame
    (PAGE_SIZE + 10, 9 * PAGE_SIZE - 5, 2 * PAGE_SIZE - 20),
])
def test_copy_untouched_zero_fills_exactly_the_destination(mem, dst, src,
                                                          size):
    mem.write(PAGE_SIZE, b"\xab" * (3 * PAGE_SIZE))
    mem.copy(dst, src, size)
    assert mem.resident_pages == 3
    assert mem.read(PAGE_SIZE, 10) == b"\xab" * 10
    assert mem.read(dst, size) == bytes(size)
    end = 4 * PAGE_SIZE - (dst + size)
    assert mem.read(dst + size, end) == b"\xab" * end


@pytest.mark.parametrize("dst, src, size", [
    (5 * PAGE_SIZE + 3, 40, 200),           # single frame
    (5 * PAGE_SIZE - 3, 40, PAGE_SIZE + 7),
])
def test_copy_written_materializes_the_destination(mem, dst, src, size):
    payload = bytes(range(256)) * (2 * PAGE_SIZE // 256)
    mem.write(0, payload)
    mem.copy(dst, src, size)
    assert mem.read(dst, size) == payload[40:40 + size]
    pages = {(dst + i) // PAGE_SIZE for i in range(size)}
    assert mem.resident_pages == 2 + len(pages)


@pytest.mark.parametrize("dst, src", [(110, 100), (100, 110)])
def test_overlapping_copy_inside_one_frame(mem, dst, src):
    payload = bytes(range(200))
    mem.write(100, payload)
    mem.copy(dst, src, 150)
    expect = bytearray(PAGE_SIZE)
    expect[100:300] = payload
    expect[dst:dst + 150] = expect[src:src + 150]
    assert mem.read(0, PAGE_SIZE) == bytes(expect)
    assert mem.resident_pages == 1


@pytest.mark.parametrize("op, args, message", [
    ("read", (5 << 36, 1), "read of 1 bytes at 0x5000000000"),
    ("read", (0, -1), "read of -1 bytes at 0x0"),
    ("read", ((1 << 36) - 1, 2), "read of 2 bytes at 0xfffffffff"),
    ("write", ((2 << 36) + 10, b"x"), "write of 1 bytes at 0x200000000a"),
    ("write", (-1, b"xy"), "write of 2 bytes at -0x1"),
    ("copy", (0, 5 << 36, 4), "read of 4 bytes at 0x5000000000"),
    ("copy", (5 << 36, 0, 4), "write of 4 bytes at 0x5000000000"),
    ("copy", (0, 0, -1), "read of -1 bytes at 0x0"),
    ("copy", ((2 << 36) - 1, 0, PAGE_SIZE), "write of 4096 bytes at "
                                            "0x1fffffffff"),
])
def test_out_of_range_access_errors(mem, op, args, message):
    with pytest.raises(MemoryAccessError) as info:
        getattr(mem, op)(*args)
    assert str(info.value) == message + " leaves physical memory"
    assert mem.resident_pages == 0


# ----------------------------------------------------------------------
# Written extent: a frame holds its page only up to the highest byte
# offset ever stored into it, and bytes past the extent read as zeros.
# ----------------------------------------------------------------------
def _extent(mem, pa):
    return len(mem._frames[pa >> PAGE_SHIFT])


def test_new_frame_holds_only_up_to_the_written_end(mem):
    mem.write(PAGE_SIZE + 100, b"abc")
    assert _extent(mem, PAGE_SIZE) == 103
    assert mem.resident_pages == 1 and mem.resident_bytes == 103


@pytest.mark.parametrize("pa, size", [
    (98, 10),                               # single frame
    (98, PAGE_SIZE),                        # crossing into an untouched frame
    (103, 5),                               # starting at the extent
    (500, 8),                               # starting past the extent
])
def test_read_across_the_extent_pads_zeros(mem, pa, size):
    mem.write(100, b"abc")
    expect = bytearray(PAGE_SIZE + 200)
    expect[100:103] = b"abc"
    got = mem.read(pa, size)
    assert type(got) is bytes and got == bytes(expect[pa:pa + size])
    assert _extent(mem, 0) == 103 and mem.resident_pages == 1


def test_write_past_the_extent_pads_the_gap(mem):
    mem.write(10, b"ab")
    mem.write(50, b"cd")
    assert _extent(mem, 0) == 52
    assert mem.read(0, 60) == bytes(10) + b"ab" + bytes(38) + b"cd" + bytes(8)


def test_write_inside_the_extent_keeps_the_frame_length(mem):
    mem.write(0, b"x" * 100)
    mem.write(10, b"yy")
    assert _extent(mem, 0) == 100
    assert mem.read(0, 101) == b"x" * 10 + b"yy" + b"x" * 88 + b"\0"


def test_write_over_the_end_of_the_extent_extends_the_frame(mem):
    mem.write(0, b"x" * 100)
    mem.write(90, b"y" * 20)
    assert _extent(mem, 0) == 110
    assert mem.read(0, 111) == b"x" * 90 + b"y" * 20 + b"\0"


@pytest.mark.parametrize("dst_extent", [200, 100])
def test_copy_zero_fills_only_inside_the_destination_extent(mem,
                                                            dst_extent):
    src, dst = 3 * PAGE_SIZE, 5 * PAGE_SIZE
    mem.write(src, bytes(range(1, 51)))               # source extent 50
    mem.write(dst, b"\xab" * dst_extent)
    mem.copy(dst + 20, src, 100)                      # 50 bytes land
    expect = b"\xab" * 20 + bytes(range(1, 51)) + bytes(50)
    expect += b"\xab" * (dst_extent - len(expect))
    assert _extent(mem, dst) == dst_extent
    assert mem.read(dst, PAGE_SIZE) == expect.ljust(PAGE_SIZE, b"\0")


@pytest.mark.parametrize("dst, size", [
    (5 * PAGE_SIZE + 7, 50),                          # single frame
    (5 * PAGE_SIZE - 20, 50),                         # two frames
])
def test_copy_past_a_written_source_extent_makes_empty_frames(mem, dst,
                                                              size):
    mem.write(0, b"z" * 10)
    mem.copy(dst, 100, size)
    pages = {(dst + i) >> PAGE_SHIFT for i in range(size)}
    assert set(mem._frames) == {0} | pages
    assert all(_extent(mem, page << PAGE_SHIFT) == 0 for page in pages)
    assert mem.resident_bytes == 10
    assert mem.read(dst, size) == bytes(size)


@pytest.mark.parametrize("dst, src, extent", [
    (250, 100, 400),        # the copy runs the extent forward
    (100, 250, 300),        # the source runs past the extent: zeros land
])
def test_overlapping_copy_across_the_extent(mem, dst, src, extent):
    payload = bytes(range(1, 201))
    mem.write(100, payload)                           # extent 300
    mem.copy(dst, src, 150)
    expect = bytearray(PAGE_SIZE)
    expect[100:300] = payload
    expect[dst:dst + 150] = expect[src:src + 150]
    assert mem.read(0, PAGE_SIZE) == bytes(expect)
    assert _extent(mem, 0) == extent


class _DenseMemory:
    """Reference model: each node is one flat ``bytearray`` made up front,
    so every access touches real bytes.  ``written`` holds the page-frame
    numbers a write stored into, or a copy moved bytes into from a
    written page: the frames the lazy memory must hold.  ``extents``
    holds, per written page, the highest in-page end of a byte stored
    into it: a written byte, or a copied byte that lay inside its source
    page's extent.  That is the length each frame must have."""

    def __init__(self, num_nodes: int, node_bytes: int):
        self.node_bytes = node_bytes
        self.nodes = [bytearray(node_bytes) for _ in range(num_nodes)]
        self.written: set = set()
        self.extents: dict = {}

    def _store(self, pa: int) -> None:
        pfn, end = pa >> PAGE_SHIFT, (pa & (PAGE_SIZE - 1)) + 1
        self.extents[pfn] = max(self.extents.get(pfn, 0), end)

    def _locate(self, verb: str, pa: int, size: int):
        node, offset = pa >> NODE_REGION_SHIFT, pa & (NODE_REGION_BYTES - 1)
        if (size <= 0 or not 0 <= node < len(self.nodes)
                or offset + size > self.node_bytes):
            raise MemoryAccessError(
                f"{verb} of {size} bytes at {pa:#x} leaves physical memory")
        return self.nodes[node], offset

    def read(self, pa: int, size: int) -> bytes:
        if size == 0:
            return b""
        node, offset = self._locate("read", pa, size)
        return bytes(node[offset:offset + size])

    def write(self, pa: int, data: bytes) -> None:
        if not data:
            return
        node, offset = self._locate("write", pa, len(data))
        node[offset:offset + len(data)] = data
        self.written |= {(pa + i) >> PAGE_SHIFT for i in range(len(data))}
        for i in range(len(data)):
            self._store(pa + i)

    def copy(self, dst: int, src: int, size: int) -> None:
        if size == 0:
            return
        src_node, src_off = self._locate("read", src, size)
        dst_node, dst_off = self._locate("write", dst, size)
        dst_node[dst_off:dst_off + size] = src_node[src_off:src_off + size]
        landed = [i for i in range(size)
                  if (src + i) & (PAGE_SIZE - 1)
                  < self.extents.get((src + i) >> PAGE_SHIFT, 0)]
        self.written |= {(dst + i) >> PAGE_SHIFT for i in range(size)
                         if (src + i) >> PAGE_SHIFT in self.written}
        for i in landed:
            self._store(dst + i)


_TWIN_PA = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from([0, PAGE_SIZE, _NODE - PAGE_SIZE, _NODE1,
                     _NODE1 + _NODE - PAGE_SIZE]),
    st.integers(-2, 2 * PAGE_SIZE))
_TWIN_SIZE = st.integers(-1, 2 * PAGE_SIZE + 1)
_TWIN_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), _TWIN_PA, st.integers(0, 2 * PAGE_SIZE + 1),
              st.integers(0, 255)),
    st.tuples(st.just("read"), _TWIN_PA, _TWIN_SIZE),
    st.tuples(st.just("copy"), _TWIN_PA, _TWIN_PA, _TWIN_SIZE),
), max_size=12)


def _apply(mem, op):
    if op[0] == "write":
        _, pa, size, seed = op
        return _outcome(mem.write, pa,
                        bytes((i + seed) % 256 for i in range(size)))
    return _outcome(getattr(mem, op[0]), *op[1:])


@example(ops=[("write", PAGE_SIZE - 3, 6, 1), ("read", PAGE_SIZE - 5, 10),
              ("copy", 3 * PAGE_SIZE - 2, PAGE_SIZE - 4, 8),
              ("copy", 5 * PAGE_SIZE - 1, 7 * PAGE_SIZE - 1, 2)])
@example(ops=[("write", _NODE - 4, 4, 9), ("read", _NODE - 4, 5),
              ("copy", _NODE - 2, _NODE - 4, 2),
              ("copy", _NODE1 + _NODE - 1, _NODE - 4, 4),
              ("copy", _NODE1, _NODE - 4, 5)])
@example(ops=[("write", 0, 0, 0), ("read", _NODE, 0), ("read", 0, 0),
              ("copy", _NODE, 5 * _NODE1, 0)])
@example(ops=[("write", 100, 2 * PAGE_SIZE, 3),
              ("copy", 300, 100, 2 * PAGE_SIZE),
              ("copy", 50, 300, 2 * PAGE_SIZE),
              ("copy", 2 * PAGE_SIZE, PAGE_SIZE + 9, PAGE_SIZE),
              ("read", 0, 2 * PAGE_SIZE + 1)])
@example(ops=[("write", PAGE_SIZE, PAGE_SIZE, 5),
              ("copy", PAGE_SIZE + 10, 5 * PAGE_SIZE, 100),
              ("copy", PAGE_SIZE - 50, 6 * PAGE_SIZE, 2 * PAGE_SIZE),
              ("write", 3 * PAGE_SIZE, 0, 7)])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(ops=_TWIN_OPS)
def test_lazy_memory_matches_dense_reference(ops):
    mem = PhysicalMemory(num_nodes=2, node_bytes=_NODE)
    ref = _DenseMemory(num_nodes=2, node_bytes=_NODE)
    for op in ops:
        assert _apply(mem, op) == _apply(ref, op), op
    for node, content in enumerate(ref.nodes):
        assert mem.read(node << NODE_REGION_SHIFT, _NODE) == content
    assert set(mem._frames) == ref.written
    assert mem.resident_pages == len(ref.written)
    assert ({pfn: len(frame) for pfn, frame in mem._frames.items()}
            == {pfn: ref.extents.get(pfn, 0) for pfn in ref.written})
    assert mem.resident_bytes == sum(ref.extents.values())
