"""Cacheline metadata.

``ready_time`` models in-flight fills: a line inserted by a miss or a
prefetch at time *t* only supplies data from ``ready_time`` onward; an access
arriving earlier merges with the fill and pays the residual latency.  This is
what makes prefetch *timeliness* observable — a PREFENDER prefetch racing the
attacker's probe can still lose if issued too late.

A line exists only while it is resident: a cache set holds its valid lines
and drops a line object when the block leaves, so there is no ``valid`` bit.
"""

from __future__ import annotations


class CacheLine:
    """One resident cache line's tag-array state."""

    __slots__ = (
        "block_addr",
        "dirty",
        "ready_time",
        "prefetched",
        "component",
        "useful_counted",
    )

    def __init__(
        self,
        block_addr: int,
        ready_time: int,
        prefetched: bool,
        component: str | None,
    ) -> None:
        self.fill(block_addr, ready_time, prefetched, component)

    def fill(
        self,
        block_addr: int,
        ready_time: int,
        prefetched: bool,
        component: str | None,
    ) -> None:
        """(Re)populate this line for ``block_addr``."""
        self.block_addr = block_addr
        self.dirty = False
        self.ready_time = ready_time
        self.prefetched = prefetched
        self.component = component
        self.useful_counted = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "D" if self.dirty else "-"
        flags += "P" if self.prefetched else "-"
        return f"CacheLine({self.block_addr:#x} {flags} ready@{self.ready_time})"
