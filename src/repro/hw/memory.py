"""Simulated physical memory with real byte backing.

All DMA in the simulation moves *actual bytes* through this model: device
writes land in page frames here, the shadow-pool copies read and write
these frames, and the attack framework inspects them.  Frames live in a
``dict`` keyed by page-frame number, and only a write materializes one:
a write into the frame, or a copy that moves bytes out of a written
frame.  Memory never written reads as zeros without a frame, and a copy
of such zeros into another unwritten frame does nothing, so a machine
can expose many gigabytes of address space while only the written pages
cost host memory.  Frames are never dropped: freed pages keep their
bytes for the attack framework.

A frame also holds its page only up to its *written extent*, the highest
byte offset ever stored into it; bytes past the extent read as zeros,
like the bytes of a page never written.  A NIC that writes a 160-byte
request into a page then costs 160 bytes of host memory, not 4 KB.

Each NUMA node owns a disjoint physical address range (64 GiB apart), so
the node of any physical address can be recovered arithmetically — the
shadow pool uses this to keep copies NUMA-local (§5.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import MemoryAccessError
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

#: Physical address stride between NUMA node regions (64 GiB).
NODE_REGION_SHIFT = 36
NODE_REGION_BYTES = 1 << NODE_REGION_SHIFT
_NODE_OFFSET_MASK = NODE_REGION_BYTES - 1
_PAGE_MASK = PAGE_SIZE - 1


class PhysicalMemory:
    """Byte-addressable physical memory split into per-NUMA-node regions."""

    def __init__(self, num_nodes: int, node_bytes: int = NODE_REGION_BYTES):
        if num_nodes < 1:
            raise MemoryAccessError("machine needs at least one NUMA node")
        if node_bytes > NODE_REGION_BYTES:
            raise MemoryAccessError(
                f"node size {node_bytes:#x} exceeds region stride"
            )
        self.num_nodes = num_nodes
        self.node_bytes = node_bytes
        self._frames: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    # Address-space geometry.
    # ------------------------------------------------------------------
    def node_base(self, node: int) -> int:
        """First physical address belonging to NUMA ``node``."""
        self._check_node(node)
        return node << NODE_REGION_SHIFT

    def node_region(self, node: int) -> tuple[int, int]:
        """``(base, size)`` of the physical range owned by ``node``."""
        return self.node_base(node), self.node_bytes

    def node_of(self, pa: int) -> int:
        """NUMA node that owns physical address ``pa``."""
        node = pa >> NODE_REGION_SHIFT
        if not 0 <= node < self.num_nodes or (pa - (node << NODE_REGION_SHIFT)) >= self.node_bytes:
            raise MemoryAccessError(f"physical address {pa:#x} outside any node")
        return node

    def contains(self, pa: int, size: int = 1) -> bool:
        """Whether ``[pa, pa+size)`` lies entirely inside one node's region."""
        if size <= 0:
            return False
        try:
            node = self.node_of(pa)
        except MemoryAccessError:
            return False
        base = self.node_base(node)
        return pa + size <= base + self.node_bytes

    # ------------------------------------------------------------------
    # Byte access.
    # ------------------------------------------------------------------
    def _in_one_frame(self, pa: int, size: int) -> bool:
        """Whether ``[pa, pa+size)`` is non-empty and lies inside one
        page frame of one node's region: the precondition of the
        single-frame fast paths (inlined in :meth:`read`/:meth:`write`,
        which run on every DMA)."""
        return (0 < size <= PAGE_SIZE - (pa & _PAGE_MASK)
                and 0 <= pa >> NODE_REGION_SHIFT < self.num_nodes
                and (pa & _NODE_OFFSET_MASK) + size <= self.node_bytes)

    def write(self, pa: int, data: bytes) -> None:
        """Write ``data`` starting at physical address ``pa``."""
        size = len(data)
        in_page = pa & _PAGE_MASK
        if (0 < size <= PAGE_SIZE - in_page
                and 0 <= pa >> NODE_REGION_SHIFT < self.num_nodes
                and (pa & _NODE_OFFSET_MASK) + size <= self.node_bytes):
            frame = self._frames.get(pa >> PAGE_SHIFT)
            if frame is None:
                self._frames[pa >> PAGE_SHIFT] = bytearray(in_page) + data
            elif in_page <= len(frame):
                frame[in_page:in_page + size] = data
            else:
                frame += bytes(in_page - len(frame))
                frame += data
            return
        self._write_pages(pa, data)

    def _write_pages(self, pa: int, data: bytes) -> None:
        """:meth:`write` for any range: checked, then page by page."""
        if not data:
            return
        if not self.contains(pa, len(data)):
            raise MemoryAccessError(
                f"write of {len(data)} bytes at {pa:#x} leaves physical memory"
            )
        offset = 0
        remaining = len(data)
        view = memoryview(data)
        while remaining:
            chunk = min(remaining, PAGE_SIZE - ((pa + offset) & _PAGE_MASK))
            self._store_chunk(pa + offset, chunk, view[offset:offset + chunk])
            offset += chunk
            remaining -= chunk

    def read(self, pa: int, size: int) -> bytes:
        """Read ``size`` bytes starting at physical address ``pa``."""
        in_page = pa & _PAGE_MASK
        if (0 < size <= PAGE_SIZE - in_page
                and 0 <= pa >> NODE_REGION_SHIFT < self.num_nodes
                and (pa & _NODE_OFFSET_MASK) + size <= self.node_bytes):
            frame = self._frames.get(pa >> PAGE_SHIFT)
            if frame is None:
                return bytes(size)
            if in_page + size <= len(frame):
                return bytes(frame[in_page:in_page + size])
            return bytes(frame[in_page:]).ljust(size, b"\0")
        return self._read_pages(pa, size)

    def _read_pages(self, pa: int, size: int) -> bytes:
        """:meth:`read` for any range: checked, then page by page."""
        if size == 0:
            return b""
        if not self.contains(pa, size):
            raise MemoryAccessError(
                f"read of {size} bytes at {pa:#x} leaves physical memory"
            )
        parts: List[bytes] = []
        offset = 0
        remaining = size
        while remaining:
            pfn = (pa + offset) >> PAGE_SHIFT
            in_page = (pa + offset) & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - in_page)
            frame = self._frames.get(pfn)
            part = b"" if frame is None else frame[in_page:in_page + chunk]
            parts.append(bytes(part).ljust(chunk, b"\0"))
            offset += chunk
            remaining -= chunk
        return b"".join(parts)

    def copy(self, dst_pa: int, src_pa: int, size: int) -> None:
        """Copy ``size`` bytes between physical ranges (the memcpy engine).

        Decided per page chunk: bytes from an unwritten source frame
        zero-fill a written destination and leave an unwritten one
        alone; bytes from a written frame materialize the destination,
        which stores the chunk's bytes inside the source's extent.
        """
        if self._in_one_frame(src_pa, size) and self._in_one_frame(dst_pa,
                                                                   size):
            frame = self._frames.get(src_pa >> PAGE_SHIFT)
            src = src_pa & _PAGE_MASK
            self._store_chunk(dst_pa, size, None if frame is None
                              else frame[src:src + size])
            return
        self._copy_pages(dst_pa, src_pa, size)

    def _copy_pages(self, dst_pa: int, src_pa: int, size: int) -> None:
        """:meth:`copy` for any ranges: checked like a read of the source
        then a write of the destination, then chunk by chunk, each chunk
        inside one source and one destination frame.  Every source chunk
        is taken before any is stored, so overlapping ranges copy like
        ``memmove``."""
        if size == 0:
            return
        if not self.contains(src_pa, size):
            raise MemoryAccessError(
                f"read of {size} bytes at {src_pa:#x} leaves physical memory"
            )
        if not self.contains(dst_pa, size):
            raise MemoryAccessError(
                f"write of {size} bytes at {dst_pa:#x} leaves physical memory"
            )
        chunks = []
        offset = 0
        while offset < size:
            src = (src_pa + offset) & _PAGE_MASK
            chunk = min(size - offset, PAGE_SIZE - src,
                        PAGE_SIZE - ((dst_pa + offset) & _PAGE_MASK))
            frame = self._frames.get((src_pa + offset) >> PAGE_SHIFT)
            chunks.append((offset, chunk, None if frame is None
                           else frame[src:src + chunk]))
            offset += chunk
        for offset, chunk, data in chunks:
            self._store_chunk(dst_pa + offset, chunk, data)

    def _store_chunk(self, pa: int, size: int,
                     data: Optional[bytes]) -> None:
        """Store ``size`` bytes at ``pa``, inside one frame: ``data``,
        then zeros for the rest of the range.  ``data`` is at most
        ``size`` bytes long (a source chunk cut at its frame's extent),
        or ``None`` when it comes from a frame never written.  Bytes of
        ``data`` land like a write: a missing frame is made, and a gap
        past the extent is padded with zeros.  ``None`` makes no frame,
        and an empty ``data`` makes an empty one.  The zeros clear only
        bytes inside the extent, since the rest already read as zeros."""
        pfn = pa >> PAGE_SHIFT
        in_page = pa & _PAGE_MASK
        frame = self._frames.get(pfn)
        if frame is None:
            if data is not None:
                self._frames[pfn] = bytearray(in_page) + data if data \
                    else bytearray()
            return
        if data:
            if len(frame) < in_page:
                frame += bytes(in_page - len(frame))
            stored = len(data)
            frame[in_page:in_page + stored] = data
            if stored == size:
                return
            in_page += stored
            size -= stored
        end = in_page + size
        if end > len(frame):
            end = len(frame)
        if in_page < end:
            frame[in_page:end] = bytes(end - in_page)

    def fill(self, pa: int, size: int, value: int = 0) -> None:
        """Fill ``[pa, pa+size)`` with ``value``."""
        self.write(pa, bytes([value]) * size)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        """Number of frames materialized so far: the pages written."""
        return len(self._frames)

    @property
    def resident_bytes(self) -> int:
        """Bytes the frames hold: the sum of their written extents."""
        return sum(map(len, self._frames.values()))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise MemoryAccessError(f"no such NUMA node: {node}")
