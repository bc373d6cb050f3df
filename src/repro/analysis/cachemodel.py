"""Abstract cache-state domain: per-set must/may residency with LRU ages.

CacheAudit-style abstract interpretation of the simulator's set-associative
LRU caches (:mod:`repro.mem.cache`), parameterised by the *real*
:class:`~repro.mem.hierarchy.HierarchyConfig` geometry so the static
verdicts are about the machine the scenarios actually run.

One :class:`CacheState` abstracts one cache level as, per set:

* **must** — ``block -> upper bound on its LRU age``.  A block present in
  ``must`` is *definitely cached* (its age bound is ``< assoc``, so it
  cannot have been evicted on any path): a demand access is a certain hit.
* **may** — ``block -> lower bound on its LRU age``.  A block absent from
  ``may`` (with :attr:`CacheState.may_universal` off) is *definitely not
  cached* on any path: a certain miss.  ``may_universal`` is the havoc
  top element — after an access whose address the analysis cannot
  resolve, any block may be resident.

The aging rules are the classic LRU must/may updates (Ferdinand-style),
with one refinement: the may analysis uses the must component's upper
bounds to decide when another block's lower bound *provably* increments
(``upper(c) < lower(b)`` means ``c`` is strictly more recent than the
accessed block ``b`` on every path).  On a fully concrete access sequence
from a cold cache the two components stay in lockstep (``lower == upper``
for every block) and the domain degenerates to an exact LRU simulation —
which is what lets :func:`repro.analysis.timing.timing_map` predict a
*point* cycle interval and the differential oracle compare it against the
simulator, cycle for cycle.

Two invariants hold for every reachable state and are preserved by every
transfer and by ``join`` (``tests/test_cachemodel.py`` exercises them):

* ``must ⊆ may`` (a certainly-present block is possibly present), and
* ``may[b] <= must[b]`` for shared blocks (bounds bracket the true age).

:class:`MultiCoreHierarchyState` stacks the levels as the simulator
does — one private L1D per core over a shared inclusive L2 — composes
hit/miss classifications into the three latency classes of
:mod:`repro.mem.cache` (L1 hit, L2 hit, memory), enforces inclusion (a
block can only stay in an L1-must while it is in L2-must, because an L2
eviction back-invalidates every core's L1 copy), and mirrors the
write-invalidate and prefetchw-exclusivity coherence steps of
:class:`repro.mem.hierarchy.MemoryHierarchy` as abstract transfers.  The
single-core timing analyses use it with ``num_cores=1``.  Hardware
prefetcher fills are not modelled concretely — the scenario certifier
(:mod:`repro.analysis.scenario`) walks the undefended machine and applies
each defense as an abstract havoc transformer
(:mod:`repro.analysis.defense`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.mem.hierarchy import HierarchyConfig

#: Classification labels (stable — CLI JSON output uses them).
HIT = "hit"
MISS = "miss"
UNKNOWN = "unknown"

#: Default cacheline geometry (``repro.utils.addr.AddressMap.block_size``).
DEFAULT_BLOCK_SIZE = 64


@dataclass(frozen=True)
class CacheGeometry:
    """Sets/ways/block-bits of one cache level (all powers of two)."""

    num_sets: int
    assoc: int
    block_bits: int

    def __post_init__(self) -> None:
        if self.num_sets <= 0 or self.num_sets & (self.num_sets - 1):
            raise ValueError(f"num_sets must be a power of two: {self.num_sets}")
        if self.assoc < 1:
            raise ValueError(f"assoc must be >= 1: {self.assoc}")
        if self.block_bits < 0:
            raise ValueError(f"block_bits must be >= 0: {self.block_bits}")

    def block_of(self, addr: int) -> int:
        """Block number (block address shifted right) of a byte address."""
        return addr >> self.block_bits

    def set_of(self, block: int) -> int:
        """Set index of a block number."""
        return block & (self.num_sets - 1)


def _level_geometry(size: int, assoc: int, block_size: int) -> CacheGeometry:
    return CacheGeometry(
        num_sets=size // (assoc * block_size),
        assoc=assoc,
        block_bits=block_size.bit_length() - 1,
    )


class CacheState:
    """Abstract residency state of one cache level (mutable, copyable)."""

    __slots__ = ("geometry", "_must", "_may", "may_universal")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        # set index -> {block -> upper age bound}; entries always < assoc.
        self._must: dict[int, dict[int, int]] = {}
        # set index -> {block -> lower age bound}; entries always < assoc.
        self._may: dict[int, dict[int, int]] = {}
        # Top element of the may component: any block may be resident.
        self.may_universal = False

    # -- queries -------------------------------------------------------------

    def classify(self, block: int) -> str:
        """``HIT`` / ``MISS`` / ``UNKNOWN`` for a demand access to ``block``."""
        s = self.geometry.set_of(block)
        must = self._must.get(s)
        if must is not None and block in must:
            return HIT
        if self.may_universal:
            return UNKNOWN
        may = self._may.get(s)
        if may is None or block not in may:
            return MISS
        return UNKNOWN

    def any_hit_possible(self) -> bool:
        """Whether *some* address could hit (an unresolved access's best case)."""
        return self.may_universal or any(self._may.values())

    def must_blocks(self) -> frozenset[int]:
        """Blocks certainly resident (attacker-observable lower bound)."""
        return frozenset(
            block for per_set in self._must.values() for block in per_set
        )

    def may_blocks(self) -> frozenset[int] | None:
        """Blocks possibly resident, or ``None`` for the universal top."""
        if self.may_universal:
            return None
        return frozenset(
            block for per_set in self._may.values() for block in per_set
        )

    # -- transfer functions ----------------------------------------------------

    def access(self, block: int) -> None:
        """Demand access (load or write-allocating store) to ``block``.

        Must aging: blocks provably more recent than ``b`` (upper bound
        below ``b``'s upper bound) may fall behind ``b``, so their upper
        bounds increment; an entry reaching ``assoc`` is no longer provably
        resident and is dropped.  May aging: a block's lower bound
        increments only when the increment is *guaranteed* — when ``b`` is
        a certain miss (a fresh insertion ages every resident line) or when
        the block is provably more recent than ``b``.
        """
        geometry = self.geometry
        assoc = geometry.assoc
        s = geometry.set_of(block)
        must = self._must.get(s)
        if must is None:
            must = self._must[s] = {}
        upper_b = must.get(block, assoc)
        pre_upper = dict(must)  # pre-access bounds: the aging test needs them
        for c, age in list(must.items()):
            if c != block and age < upper_b:
                if age + 1 >= assoc:
                    del must[c]
                else:
                    must[c] = age + 1
        must[block] = 0
        if self.may_universal:
            return
        may = self._may.get(s)
        if may is None:
            may = self._may[s] = {}
        lower_b = may.get(block)
        for c, age in list(may.items()):
            if c == block:
                continue
            upper_c = pre_upper.get(c)
            certainly_ahead = lower_b is not None and (
                upper_c is not None and upper_c < lower_b
            )
            if lower_b is None or certainly_ahead:
                if age + 1 >= assoc:
                    del may[c]
                    must.pop(c, None)  # lower > upper is vacuous: gone
                else:
                    may[c] = age + 1
        may[block] = 0

    def flush(self, block: int) -> None:
        """Invalidate ``block`` (clflush / back-invalidation): certain miss.

        Ages count the more recent *valid* lines of a set (the simulator
        fills invalid ways first), so removing ``block`` makes every line
        older than it one younger.  Upper bounds drop by one only for lines
        certainly older than the flushed line (its upper bound below their
        lower bound); lower bounds retreat by one for every line not
        certainly younger, when the flushed line was possibly resident
        (``tests/test_defense_domain.py`` pins this against a reference LRU
        that fills invalid ways first).
        """
        s = self.geometry.set_of(block)
        must = self._must.get(s, {})
        may = self._may.get(s, {})
        upper_b = must.pop(block, None)
        lower_b = may.pop(block, None)
        if upper_b is not None:
            for c in must:
                if upper_b < may.get(c, -1):
                    must[c] -= 1
        if lower_b is not None or self.may_universal:
            assoc = self.geometry.assoc
            for c in may:
                younger = lower_b is not None and must.get(c, assoc) < lower_b
                if may[c] > 0 and not younger:
                    may[c] -= 1
        if not must:
            self._must.pop(s, None)
        if not may:
            self._may.pop(s, None)

    def forget(self, block: int) -> None:
        """Demote ``block`` from certainly to possibly resident."""
        s = self.geometry.set_of(block)
        must = self._must.get(s)
        if must is not None:
            must.pop(block, None)
            if not must:
                del self._must[s]

    def back_invalidate(
        self, outer: "CacheState", outer_set: int | None = None
    ) -> None:
        """Inclusion under ``outer``: an outer eviction invalidates copies here.

        A block stays certainly resident only while certainly resident in
        ``outer`` (a possible outer eviction may have knocked it out); a
        block certainly absent from ``outer`` is certainly gone here too.
        With ``outer_set``, only the sets holding blocks of that outer set
        are rechecked: an access to one outer set evicts nothing else.
        """
        num_sets = self.geometry.num_sets
        if outer_set is None:
            sets: Iterable[int] = sorted(self._must.keys() | self._may.keys())
        else:
            sets = range(
                outer_set & (num_sets - 1), num_sets, outer.geometry.num_sets
            )
        for s in sets:
            resident = {**self._may.get(s, {}), **self._must.get(s, {})}
            for block in [b for b in resident if outer.classify(b) == MISS]:
                self.flush(block)
            for block in [
                b for b in self._must.get(s, {}) if outer.classify(b) != HIT
            ]:
                self.forget(block)

    def havoc_access(self) -> None:
        """An access whose address is unknown: it may touch any set.

        Every must bound ages by one (the access could land in front of any
        line) and the may component goes universal (the touched block —
        whichever it is — becomes resident).
        """
        assoc = self.geometry.assoc
        for s, must in list(self._must.items()):
            for c, age in list(must.items()):
                if age + 1 >= assoc:
                    del must[c]
                else:
                    must[c] = age + 1
            if not must:
                del self._must[s]
        self._may = {}
        self.may_universal = True

    def havoc_flush(self) -> None:
        """A clflush whose address is unknown: any one line may vanish.

        No line is provably resident afterwards (must empties); the may
        component keeps its entries — a flush never *adds* residency —
        but every lower bound retreats by one, since the flush may have
        removed a more-recent line in that entry's set (see
        :meth:`flush`).
        """
        self._must = {}
        for may in self._may.values():
            for c in may:
                if may[c] > 0:
                    may[c] -= 1

    # -- lattice operations ----------------------------------------------------

    def copy(self) -> "CacheState":
        dup = CacheState(self.geometry)
        dup._must = {s: dict(d) for s, d in self._must.items()}
        dup._may = {s: dict(d) for s, d in self._may.items()}
        dup.may_universal = self.may_universal
        return dup

    def join(self, other: "CacheState") -> "CacheState":
        """Least upper bound: control-flow merge of two predecessor states."""
        if self.geometry != other.geometry:
            raise ValueError("cannot join states of different geometries")
        joined = CacheState(self.geometry)
        for s, must in self._must.items():
            other_must = other._must.get(s)
            if other_must is None:
                continue
            merged = {
                block: max(age, other_must[block])
                for block, age in must.items()
                if block in other_must
            }
            if merged:
                joined._must[s] = merged
        if self.may_universal or other.may_universal:
            joined.may_universal = True
            return joined
        for s in self._may.keys() | other._may.keys():
            a = self._may.get(s, {})
            b = other._may.get(s, {})
            merged = dict(b)
            for block, age in a.items():
                existing = merged.get(block)
                merged[block] = age if existing is None else min(age, existing)
            if merged:
                joined._may[s] = merged
        return joined

    def leq(self, other: "CacheState") -> bool:
        """Partial order: ``self`` is at least as precise as ``other``."""
        if self.geometry != other.geometry:
            return False
        for s, other_must in other._must.items():
            must = self._must.get(s, {})
            for block, age in other_must.items():
                mine = must.get(block)
                if mine is None or mine > age:
                    return False
        if other.may_universal:
            return True
        if self.may_universal:
            return False
        for s, may in self._may.items():
            other_may = other._may.get(s, {})
            for block, age in may.items():
                theirs = other_may.get(block)
                if theirs is None or theirs > age:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheState):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and self.may_universal == other.may_universal
            and self._must == other._must
            and (self.may_universal or self._may == other._may)
        )

    def __repr__(self) -> str:
        may = "universal" if self.may_universal else dict(self._may)
        return f"CacheState(must={self._must!r}, may={may!r})"


@dataclass(frozen=True)
class LatencyInterval:
    """Closed interval of cycles an access may cost."""

    lo: int
    hi: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi




class MultiCoreHierarchyState:
    """N private L1D states over one shared inclusive L2, with coherence.

    The abstract counterpart of :class:`repro.mem.hierarchy.MemoryHierarchy`
    for ``num_cores`` cores (one for the single-core timing analyses).
    Demand timing composes the two levels: an L1 hit pays
    ``l1_hit_latency``; an L1 miss adds the L2 outcome (``l2_hit_latency``
    or ``memory_latency``); ``clflush`` always costs ``flush_latency``.
    The coherence steps are mirrored as transfers on the must/may domain:

    * every L2 update back-invalidates every core's L1 and drops the
      exclusivity record of a line the L2 may have evicted;
    * a demand access by one core to a line another core holds
      *exclusively* (after ``prefetchw``) steals it: the owner's L1 copy
      is invalidated and the exclusivity record dropped;
    * a store write-allocates, invalidates the line in every other core's
      L1 (write-invalidate) and costs one cycle under ``nonblocking_stores``;
    * ``prefetchw`` invalidates other copies (paying
      ``prefetchw_snoop_latency`` when one existed) and records the
      issuing core as exclusive owner;
    * ``clflush`` evicts the line from every cache, everywhere.

    An address of ``None`` is statically unresolved: the access may touch
    any set, so the touched levels are havocked.  A software prefetch is
    either a *completing* fill or, with ``droppable``, one the concrete
    hierarchy may squash at L1-miss time for want of a free prefetch MSHR
    (the result then joins the filled and the untouched state).
    """

    __slots__ = ("config", "num_cores", "l1s", "l2", "exclusive", "block_bits")

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        num_cores: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1: {num_cores}")
        self.config = config or HierarchyConfig()
        self.num_cores = num_cores
        l1_geometry = _level_geometry(
            self.config.l1d_size, self.config.l1d_assoc, block_size
        )
        self.l1s = tuple(CacheState(l1_geometry) for _ in range(num_cores))
        self.l2 = CacheState(
            _level_geometry(
                self.config.l2_size, self.config.l2_assoc, block_size
            )
        )
        #: block -> owning core.  A record whose survival becomes uncertain
        #: (a join, a possible L2 eviction, an unresolved steal) is dropped
        #: and the owner's line demoted out of must: the steal it would
        #: cause may or may not happen.
        self.exclusive: dict[int, int] = {}
        self.block_bits = block_size.bit_length() - 1

    # -- latency classes -------------------------------------------------------

    @property
    def l1_latency(self) -> int:
        return self.config.l1_hit_latency

    @property
    def l2_latency(self) -> int:
        return self.config.l1_hit_latency + self.config.l2_hit_latency

    @property
    def memory_latency(self) -> int:
        return (
            self.config.l1_hit_latency
            + self.config.l2_hit_latency
            + self.config.memory_latency
        )

    def block_of(self, addr: int) -> int:
        return addr >> self.block_bits

    # -- internal helpers ------------------------------------------------------

    def _forget_owner(self, block: int, owner: int) -> None:
        del self.exclusive[block]
        self.l1s[owner].forget(block)

    def _enforce_inclusion(self, block: int | None) -> None:
        """L2 evictions back-invalidate every core's L1 and drop ownership.

        Only ``block``'s L2 set can have lost lines (any set for ``None``).
        """
        l2_set = None if block is None else self.l2.geometry.set_of(block)
        for l1 in self.l1s:
            l1.back_invalidate(self.l2, l2_set)
        for block, owner in list(self.exclusive.items()):
            if self.l2.classify(block) != HIT:
                self._forget_owner(block, owner)

    def _yield_exclusivity(self, core: int, block: int | None) -> None:
        """Steal an exclusively held line when another core touches it."""
        if block is None:
            for other_block, owner in list(self.exclusive.items()):
                if owner != core:
                    self._forget_owner(other_block, owner)
            return
        owner = self.exclusive.get(block)
        if owner is None or owner == core:
            return
        self.l1s[owner].flush(block)
        del self.exclusive[block]

    def _invalidate_others(self, core: int, block: int | None) -> tuple[bool, bool]:
        """Invalidate ``block`` in every other L1: ``(certain, possible)`` copy."""
        certain = possible = False
        for other, l1 in enumerate(self.l1s):
            if other == core:
                continue
            if block is None:
                possible = possible or l1.any_hit_possible()
                l1.havoc_flush()
                continue
            residency = l1.classify(block)
            if residency != MISS:
                l1.flush(block)
                certain = certain or residency == HIT
                possible = True
        return certain, possible

    def _fill_interval(self, core: int, block: int | None) -> LatencyInterval:
        """Demand-fill latency for ``core``, mutating both levels as the
        simulator's demand path does: the L1 is always accessed; the L2 only
        when the L1 misses (joined when the L1 outcome is unknown)."""
        l1 = self.l1s[core]
        if block is None:
            if l1.any_hit_possible():
                lo = self.l1_latency
            elif self.l2.any_hit_possible():
                lo = self.l2_latency
            else:
                lo = self.memory_latency
            l1.havoc_access()
            self.l2.havoc_access()
            self._enforce_inclusion(block)
            return LatencyInterval(lo, self.memory_latency)
        l1_class = l1.classify(block)
        if l1_class == HIT:
            l1.access(block)
            return LatencyInterval(self.l1_latency, self.l1_latency)
        l2_class = self.l2.classify(block)
        if l1_class == MISS:
            self.l2.access(block)
        else:  # unknown at L1: the L2 may or may not see the access
            touched = self.l2.copy()
            touched.access(block)
            self.l2 = self.l2.join(touched)
        # The L2 fill back-invalidates before the L1 picks its victim way.
        self._enforce_inclusion(block)
        l1.access(block)
        if l1_class != MISS:
            lo = self.l1_latency
        elif l2_class == MISS:
            lo = self.memory_latency
        else:
            lo = self.l2_latency
        hi = self.l2_latency if l2_class == HIT else self.memory_latency
        return LatencyInterval(lo, hi)

    # -- demand interface ------------------------------------------------------

    def load(self, core: int, addr: int | None) -> LatencyInterval:
        """Demand load by ``core``: steal exclusivity, then fill."""
        block = None if addr is None else self.block_of(addr)
        self._yield_exclusivity(core, block)
        return self._fill_interval(core, block)

    def store(self, core: int, addr: int | None) -> LatencyInterval:
        """Demand store: write-allocate + write-invalidate other L1 copies."""
        block = None if addr is None else self.block_of(addr)
        self._yield_exclusivity(core, block)
        fill = self._fill_interval(core, block)
        self._invalidate_others(core, block)
        if self.config.nonblocking_stores:
            return LatencyInterval(1, 1)
        return fill

    def prefetch(
        self,
        core: int,
        addr: int | None,
        write: bool = False,
        droppable: bool = False,
    ) -> LatencyInterval:
        """Software prefetch / prefetchw: load-shaped latency.

        ``prefetchw`` pays the snoop penalty when another core's copy was
        invalidated; when a copy's residency is only *possible* the
        penalty widens the upper bound instead.
        """
        block = None if addr is None else self.block_of(addr)
        if droppable and (block is None or self.l1s[core].classify(block) != HIT):
            untouched = self.copy()
            filled = self.prefetch(core, addr, write)
            joined = self.join(untouched)
            self.l1s, self.l2, self.exclusive = joined.l1s, joined.l2, joined.exclusive
            return LatencyInterval(self.l1_latency, filled.hi)
        snoop_lo = snoop_hi = 0
        if write:
            certain, possible = self._invalidate_others(core, block)
            penalty = self.config.prefetchw_snoop_latency
            snoop_lo = penalty if certain else 0
            snoop_hi = penalty if possible else 0
            if block is not None and self.num_cores > 1:
                # One core can never lose the line to a steal: no record.
                self.exclusive[block] = core
        else:
            self._yield_exclusivity(core, block)
        fill = self._fill_interval(core, block)
        return LatencyInterval(fill.lo + snoop_lo, fill.hi + snoop_hi)

    def flush(self, core: int, addr: int | None) -> LatencyInterval:
        """clflush: evict the line from every cache level, everywhere."""
        if addr is None:
            self.exclusive.clear()
            for l1 in self.l1s:
                l1.havoc_flush()
            self.l2.havoc_flush()
        else:
            block = self.block_of(addr)
            self.exclusive.pop(block, None)
            for l1 in self.l1s:
                l1.flush(block)
            self.l2.flush(block)
        latency = self.config.flush_latency
        return LatencyInterval(latency, latency)

    # -- queries ---------------------------------------------------------------

    def observable(self, core: int) -> tuple[object, ...]:
        """``core``'s attacker-observable residency (its L1 + shared L2)."""
        return (
            self.l1s[core].must_blocks(),
            self.l1s[core].may_blocks(),
            self.l2.must_blocks(),
            self.l2.may_blocks(),
        )

    # -- lattice operations ----------------------------------------------------

    def _with(
        self,
        l1s: tuple[CacheState, ...],
        l2: CacheState,
        exclusive: dict[int, int],
    ) -> "MultiCoreHierarchyState":
        dup = MultiCoreHierarchyState.__new__(MultiCoreHierarchyState)
        dup.config = self.config
        dup.num_cores = self.num_cores
        dup.block_bits = self.block_bits
        dup.l1s, dup.l2, dup.exclusive = l1s, l2, exclusive
        return dup

    def copy(self) -> "MultiCoreHierarchyState":
        return self._with(
            tuple(l1.copy() for l1 in self.l1s),
            self.l2.copy(),
            dict(self.exclusive),
        )

    def join(self, other: "MultiCoreHierarchyState") -> "MultiCoreHierarchyState":
        """Least upper bound over both cache states and ownership records.

        Ownership is kept only where both sides agree; any other record is
        uncertain and dropped with its owner's line demoted out of must.
        """
        if self.num_cores != other.num_cores:
            raise ValueError("cannot join states with different core counts")
        joined = self._with(
            tuple(a.join(b) for a, b in zip(self.l1s, other.l1s)),
            self.l2.join(other.l2),
            {
                block: owner
                for block, owner in self.exclusive.items()
                if other.exclusive.get(block) == owner
            },
        )
        uncertain = (
            set(self.exclusive.items()) | set(other.exclusive.items())
        ) - set(joined.exclusive.items())
        for block, owner in sorted(uncertain):
            joined.l1s[owner].forget(block)
        return joined

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiCoreHierarchyState):
            return NotImplemented
        return (
            self.config == other.config
            and self.num_cores == other.num_cores
            and self.l1s == other.l1s
            and self.l2 == other.l2
            and self.exclusive == other.exclusive
        )


#: The single-core hierarchy is the one-core case of the same state.
HierarchyState = MultiCoreHierarchyState
