"""Per-device I/O page table (VT-d style 4-level radix tree).

IOVA mappings are kept at 4 KB page granularity in a 4-level table (9 bits
per level, 48-bit IOVA space), mirroring Intel VT-d second-level
translation (§2.1).  The table tracks how many backing pages its interior
nodes consume so experiments can report page-table memory overhead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.errors import DmaApiError
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

IOVA_BITS = 48
_LEVEL_BITS = 9
_LEVELS = 4
_INDEX_MASK = (1 << _LEVEL_BITS) - 1


class Perm(enum.IntFlag):
    """Device access rights for a mapping (read / write / both)."""

    NONE = 0
    READ = 1   # device may read host memory (DMA to device)
    WRITE = 2  # device may write host memory (DMA from device)
    RW = READ | WRITE

    def allows(self, *, is_write: bool) -> bool:
        # On the plain int value: IntFlag's ``&`` builds a new member
        # through ``enum`` machinery on every device access.
        return bool(self._value_ & (_WRITE if is_write else _READ))


_READ = Perm.READ._value_
_WRITE = Perm.WRITE._value_


@dataclass(frozen=True)
class PteEntry:
    """A leaf translation: IOVA page → physical frame + permissions."""

    pfn: int
    perm: Perm

    @property
    def pa(self) -> int:
        return self.pfn << PAGE_SHIFT


def _indices(iova_page: int) -> Tuple[int, int, int, int]:
    return (
        (iova_page >> (3 * _LEVEL_BITS)) & _INDEX_MASK,
        (iova_page >> (2 * _LEVEL_BITS)) & _INDEX_MASK,
        (iova_page >> (1 * _LEVEL_BITS)) & _INDEX_MASK,
        iova_page & _INDEX_MASK,
    )


class IoPageTable:
    """4-level radix tree from IOVA page number to :class:`PteEntry`."""

    def __init__(self) -> None:
        self._root: Dict[int, dict] = {}
        self.mapped_pages = 0
        self.table_nodes = 1  # the root

    # ------------------------------------------------------------------
    def map_page(self, iova_page: int, pfn: int, perm: Perm) -> None:
        """Install a translation; refuses to overwrite a live mapping."""
        if perm == Perm.NONE:
            raise DmaApiError("mapping with no access rights")
        self._check_page(iova_page)
        l1, l2, l3, l4 = _indices(iova_page)
        node = self._root
        for idx in (l1, l2, l3):
            nxt = node.get(idx)
            if nxt is None:
                nxt = {}
                node[idx] = nxt
                self.table_nodes += 1
            node = nxt
        if l4 in node:
            raise DmaApiError(
                f"IOVA page {iova_page:#x} already mapped (would overwrite)"
            )
        node[l4] = PteEntry(pfn=pfn, perm=perm)
        self.mapped_pages += 1

    def unmap_page(self, iova_page: int) -> PteEntry:
        """Remove a translation; returns the entry that was present."""
        self._check_page(iova_page)
        l1, l2, l3, l4 = _indices(iova_page)
        node = self._root
        for idx in (l1, l2, l3):
            node = node.get(idx)  # type: ignore[assignment]
            if node is None:
                raise DmaApiError(f"unmap of unmapped IOVA page {iova_page:#x}")
        entry = node.pop(l4, None)
        if entry is None:
            raise DmaApiError(f"unmap of unmapped IOVA page {iova_page:#x}")
        self.mapped_pages -= 1
        return entry

    def lookup(self, iova_page: int) -> PteEntry | None:
        """Walk the table; ``None`` when no translation exists."""
        l1, l2, l3, l4 = _indices(iova_page)
        node = self._root
        for idx in (l1, l2, l3):
            node = node.get(idx)  # type: ignore[assignment]
            if node is None:
                return None
        return node.get(l4)

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[int, PteEntry]]:
        """Iterate ``(iova_page, entry)`` over all live mappings."""
        for l1, n1 in self._root.items():
            for l2, n2 in n1.items():
                for l3, n3 in n2.items():
                    for l4, entry in n3.items():
                        page = (((l1 << _LEVEL_BITS | l2) << _LEVEL_BITS | l3)
                                << _LEVEL_BITS | l4)
                        yield page, entry

    @property
    def table_bytes(self) -> int:
        """Approximate memory consumed by table nodes (4 KB each, as in HW)."""
        return self.table_nodes * PAGE_SIZE

    @staticmethod
    def _check_page(iova_page: int) -> None:
        if not 0 <= iova_page < (1 << (IOVA_BITS - PAGE_SHIFT)):
            raise DmaApiError(f"IOVA page {iova_page:#x} outside 48-bit space")
