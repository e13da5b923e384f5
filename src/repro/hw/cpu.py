"""Simulated CPU cores with per-category cycle accounting.

Each :class:`Core` carries its own clock (``now``, in cycles) plus a
breakdown of where busy cycles went.  The breakdown categories deliberately
match the stacked bars of the paper's Figures 5, 8 and 10 so the benchmark
harness can print the same rows the paper reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

# Breakdown categories, named exactly as in the paper's figures.
CAT_COPY_MGMT = "copy mgmt"
CAT_SPINLOCK = "spinlock"
CAT_INVALIDATE = "invalidate iotlb"
CAT_PT_MGMT = "iommu page table mgmt"
CAT_MEMCPY = "memcpy"
CAT_RX_PARSE = "rx parsing"
CAT_COPY_USER = "copy_user"
CAT_OTHER = "other"

ALL_CATEGORIES = (
    CAT_COPY_MGMT,
    CAT_SPINLOCK,
    CAT_INVALIDATE,
    CAT_PT_MGMT,
    CAT_MEMCPY,
    CAT_RX_PARSE,
    CAT_COPY_USER,
    CAT_OTHER,
)


@dataclass
class Core:
    """One hardware thread of the simulated machine.

    ``now`` is the core's local clock in cycles.  ``charge`` advances the
    clock *and* attributes the cycles to a breakdown category;
    ``advance_to`` models idle waiting (clock moves, nothing is attributed
    to busy time).
    """

    cid: int
    numa_node: int
    now: int = 0
    busy_cycles: int = 0
    breakdown: Counter = field(default_factory=Counter)

    def charge(self, cycles: int, category: str = CAT_OTHER) -> None:
        """Consume ``cycles`` of busy CPU time in ``category``."""
        if cycles <= 0:
            if cycles < 0:
                raise ValueError(f"negative charge: {cycles}")
            return
        self.now += cycles
        self.busy_cycles += cycles
        self.breakdown[category] += cycles

    def advance_to(self, when: int) -> int:
        """Idle until absolute time ``when``; returns the idle cycles spent."""
        if when <= self.now:
            return 0
        idled = when - self.now
        self.now = when
        return idled

    def spin_until(self, when: int, category: str = CAT_SPINLOCK) -> int:
        """Busy-wait until absolute time ``when`` (cycles count as busy)."""
        if when <= self.now:
            return 0
        waited = when - self.now
        self.charge(waited, category)
        return waited

    def reset_accounting(self) -> None:
        """Zero busy time and breakdown (the clock keeps running)."""
        self.busy_cycles = 0
        self.breakdown.clear()

    def snapshot(self) -> "CoreSnapshot":
        """Freeze the current accounting state (for phase-delta reports)."""
        return CoreSnapshot(now=self.now, busy_cycles=self.busy_cycles,
                            breakdown=Counter(self.breakdown))

    def utilization(self, window_cycles: int) -> float:
        """Fraction of ``window_cycles`` this core spent busy (clamped to 1)."""
        if window_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / window_cycles)


@dataclass
class CoreSnapshot:
    """A point-in-time copy of one core's accounting state."""

    now: int
    busy_cycles: int
    breakdown: Counter

    def delta(self, later: "CoreSnapshot") -> "CoreSnapshot":
        """Accounting accrued between this snapshot and ``later``."""
        diff = Counter(later.breakdown)
        diff.subtract(self.breakdown)
        return CoreSnapshot(now=later.now - self.now,
                            busy_cycles=later.busy_cycles - self.busy_cycles,
                            breakdown=+diff)


def merge_breakdowns(cores: Iterable[Core]) -> Counter:
    """Sum the per-category breakdowns of several cores."""
    total: Counter = Counter()
    for core in cores:
        total.update(core.breakdown)
    return total
