"""Differential checks of the core's, cache's, MSHR file's and access
buffer's fast paths.

The core runs each straight-line ALU run as one compiled superblock, a
cache set is one LRU-ordered ``{block_addr: line}`` dict,
``MSHRFile._purge`` rebuilds its entry list only once an entry has
expired, the prefetch pool is counted with a plain loop, the access
buffer picks its LRU victim with ``stamps.index(min(stamps))`` and
computes DiffMin with a plain loop.  Each reference model below keeps the
straightforward form those replaced; random programs or operation
sequences at non-decreasing times must give equal return values and equal
state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_buffer import AccessBuffer
from repro.cpu.core import Core, CoreConfig
from repro.isa.decode import (
    K_ADD_RI,
    K_ADD_RR,
    K_AND_RI,
    K_AND_RR,
    K_BRANCH,
    K_JMP,
    K_LI,
    K_MOV,
    K_MUL_RI,
    K_MUL_RR,
    K_NOP,
    K_OR_RI,
    K_OR_RR,
    K_SLL_RI,
    K_SLL_RR,
    K_SRL_RI,
    K_SRL_RR,
    K_SUB_RR,
    K_XOR_RI,
    K_XOR_RR,
)
from repro.isa.instructions import Instruction
from repro.isa.program import DataSegment, Program
from repro.isa.registers import SIGN_BIT, WORD_MASK
from repro.mem.cache import Cache, MemoryPort
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.memory import MainMemory
from repro.mem.mshr import MSHRFile
from repro.utils.addr import AddressMap


class ReferenceLine:
    """A way slot: valid or not, reset in place on invalidation."""

    __slots__ = (
        "block_addr",
        "valid",
        "dirty",
        "ready_time",
        "prefetched",
        "component",
        "useful_counted",
    )

    def __init__(self):
        self.ready_time = 0
        self.invalidate()

    def fill(self, block_addr, ready_time, prefetched, component):
        self.block_addr = block_addr
        self.valid = True
        self.dirty = False
        self.ready_time = ready_time
        self.prefetched = prefetched
        self.component = component
        self.useful_counted = False

    def invalidate(self):
        self.block_addr = -1
        self.valid = False
        self.dirty = False
        self.prefetched = False
        self.component = None
        self.useful_counted = False

    def flags(self):
        return (
            self.dirty,
            self.ready_time,
            self.prefetched,
            self.component,
            self.useful_counted,
        )


class ReferenceCache(Cache):
    """Way arrays, per-way LRU stamps from a clock, a ``{block: way}`` tag
    index, and a victim that is the first invalid way, else the oldest."""

    __slots__ = ("_ways", "_stamps", "_tags", "_clock")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ways = [
            [ReferenceLine() for _ in range(self.assoc)]
            for _ in range(self.num_sets)
        ]
        self._stamps = [[0] * self.assoc for _ in range(self.num_sets)]
        self._tags = [{} for _ in range(self.num_sets)]
        self._clock = 0

    def _set_of(self, block_addr):
        return (block_addr >> self._block_bits) & self._set_mask

    def _touch(self, set_index, way):
        self._clock += 1
        self._stamps[set_index][way] = self._clock

    def contains(self, block_addr):
        block_addr &= self._block_mask
        return block_addr in self._tags[self._set_of(block_addr)]

    def line_for(self, block_addr):
        block_addr &= self._block_mask
        set_index = self._set_of(block_addr)
        way = self._tags[set_index].get(block_addr)
        return None if way is None else self._ways[set_index][way]

    def _insert(self, block_addr, now, ready_time, prefetched, component):
        set_index = self._set_of(block_addr)
        ways = self._ways[set_index]
        tags = self._tags[set_index]
        if len(tags) < self.assoc:
            way = next(w for w, line in enumerate(ways) if not line.valid)
        else:
            stamps = self._stamps[set_index]
            way = stamps.index(min(stamps))
        line = ways[way]
        if line.valid:
            self.stats.evictions += 1
            victim = line.block_addr
            if self.on_evict is not None:
                self.on_evict(victim, now)
            if line.dirty:
                self.stats.writebacks += 1
                self.parent.mark_dirty(victim)
            if tags.get(victim) == way:
                del tags[victim]
            line.invalidate()
        line.fill(block_addr, ready_time, prefetched, component)
        tags[block_addr] = way
        self._touch(set_index, way)
        return line

    def access(self, addr, now, write=False, demand=True):
        block_addr = addr & self._block_mask
        set_index = self._set_of(block_addr)
        stats = self.stats
        if demand:
            stats.demand_accesses += 1
        way = self._tags[set_index].get(block_addr)
        if way is not None:
            line = self._ways[set_index][way]
            self._touch(set_index, way)
            if write:
                line.dirty = True
            if line.ready_time <= now:
                if demand:
                    stats.hits += 1
                    if line.prefetched and not line.useful_counted:
                        stats.useful_prefetches += 1
                        line.useful_counted = True
                return self.hit_latency, self.level_name
            latency = max(self.hit_latency, line.ready_time - now)
            if demand:
                stats.inflight_hits += 1
                stats.miss_latency_total += latency - self.hit_latency
                if line.prefetched:
                    self.mshr.mark_demand_consumed(block_addr, now)
            return latency, "INFLIGHT"
        if demand:
            stats.misses += 1
        merged_ready = self.mshr.merge(block_addr, now, demand=demand)
        if merged_ready is not None:
            latency = max(self.hit_latency, merged_ready - now)
            if demand:
                stats.mshr_merge_hits += 1
                stats.miss_latency_total += latency - self.hit_latency
            return latency, "MSHR"
        below_latency, below_level = self.parent.access(
            block_addr, now + self.hit_latency, write=False, demand=demand
        )
        fill_time = self.hit_latency + below_latency
        if demand:
            start, _ = self.mshr.allocate_demand(block_addr, now, fill_time)
            squashed = self.mshr.last_squashed_block
            if squashed is not None:
                self._cancel_squashed_fill(squashed, now)
        else:
            start = now
            self.mshr.allocate_prefetch_fill(block_addr, now, fill_time)
        total_latency = (start - now) + fill_time
        line = self._insert(
            block_addr, now, now + total_latency, not demand, None
        )
        if write:
            line.dirty = True
        if demand:
            stats.miss_latency_total += total_latency - self.hit_latency
        return total_latency, below_level

    def _cancel_squashed_fill(self, block_addr, now):
        set_index = self._set_of(block_addr)
        way = self._tags[set_index].get(block_addr)
        if way is None:
            return
        line = self._ways[set_index][way]
        if not line.prefetched or line.ready_time <= now:
            return
        if self.on_evict is not None:
            self.on_evict(block_addr, now)
        if line.dirty:
            self.stats.writebacks += 1
            self.parent.mark_dirty(block_addr)
        del self._tags[set_index][block_addr]
        line.invalidate()
        self.stats.prefetch_squashed += 1

    def prefetch(self, addr, now, component):
        block_addr = addr & self._block_mask
        if block_addr in self._tags[self._set_of(block_addr)]:
            return None
        if not self.mshr.prefetch_available(now):
            self.mshr.prefetch_drops += 1
            self.stats.prefetch_dropped += 1
            return None
        below_latency, _ = self.parent.access(
            block_addr, now + self.hit_latency, write=False, demand=False
        )
        fill_time = self.hit_latency + below_latency
        ready_time = self.mshr.allocate_prefetch(block_addr, now, fill_time)
        self._insert(block_addr, now, ready_time, True, component)
        self.stats.prefetch_issued += 1
        return ready_time

    def invalidate_block(self, block_addr):
        block_addr &= self._block_mask
        set_index = self._set_of(block_addr)
        way = self._tags[set_index].pop(block_addr, None)
        if way is None:
            return False
        line = self._ways[set_index][way]
        if line.dirty:
            self.stats.writebacks += 1
            self.parent.mark_dirty(block_addr)
        line.invalidate()
        return True

    def flush_block(self, block_addr):
        if not self.invalidate_block(block_addr):
            return False
        self.stats.flushes += 1
        return True

    def lru_sets(self):
        """Each set's valid blocks, least recently used first."""
        return [
            [
                ways[way].block_addr
                for way in sorted(range(self.assoc), key=stamps.__getitem__)
                if ways[way].valid
            ]
            for ways, stamps in zip(self._ways, self._stamps)
        ]


class ReferenceMSHR(MSHRFile):
    """The list-rebuild purge and the generator prefetch-pool count."""

    __slots__ = ()

    def _purge(self, now):
        self._entries = [e for e in self._entries if e.ready_time > now]

    def _prefetch_inflight(self):
        return sum(
            1 for e in self._entries if e.is_prefetch or e.borrows_prefetch_slot
        )


class ReferenceAccessBuffer(AccessBuffer):
    """``in`` + ``index`` record, keyed-``min`` victim, generator DiffMin."""

    __slots__ = ()

    def record(self, block_addr, now):
        self.last_touch = now
        self._clock += 1
        if block_addr in self.entries:
            index = self.entries.index(block_addr)
            self._stamps[index] = self._clock
            return False
        if len(self.entries) < self.capacity:
            self.entries.append(block_addr)
            self._stamps.append(self._clock)
            return True
        victim = min(range(len(self.entries)), key=lambda i: self._stamps[i])
        self.entries[victim] = block_addr
        self._stamps[victim] = self._clock
        return True

    def update_diff_min(self):
        if len(self.entries) < 2:
            self.diff_min = None
            return None
        ordered = sorted(self.entries)
        self.diff_min = min(b - a for a, b in zip(ordered, ordered[1:]))
        return self.diff_min


# A handful of lines, so merges, squashes and repeats are common.
blocks = st.integers(min_value=0, max_value=5).map(lambda line: line * 64)
# Time advances by 0..60 cycles per operation: fills of up to 150 cycles
# overlap, and some expire between operations.
steps = st.integers(min_value=0, max_value=60)
fills = st.integers(min_value=1, max_value=150)

mshr_ops = st.one_of(
    st.tuples(st.just("occupancy"), steps),
    st.tuples(st.just("available"), steps),
    st.tuples(st.just("prefetch_available"), steps),
    st.tuples(st.just("merge"), steps, blocks, st.booleans()),
    st.tuples(st.just("mark_demand_consumed"), steps, blocks),
    st.tuples(st.just("allocate_demand"), steps, blocks, fills),
    st.tuples(st.just("allocate_prefetch_fill"), steps, blocks, fills),
    st.tuples(st.just("allocate_prefetch"), steps, blocks, fills),
)


def _apply(mshr, name, now, args):
    """Call one MSHRFile method: ``(block_addr, now, *rest)`` or ``(now)``."""
    if not args:
        return getattr(mshr, name)(now)
    block_addr, *rest = args
    return getattr(mshr, name)(block_addr, now, *rest)


@settings(max_examples=300, deadline=None)
@given(
    num_entries=st.integers(min_value=1, max_value=4),
    max_merges=st.integers(min_value=0, max_value=3),
    prefetch_entries=st.integers(min_value=1, max_value=3),
    operations=st.lists(mshr_ops, max_size=60),
)
def test_mshr_matches_reference(num_entries, max_merges, prefetch_entries, operations):
    fast = MSHRFile(num_entries, max_merges, prefetch_entries)
    reference = ReferenceMSHR(num_entries, max_merges, prefetch_entries)
    now = 0
    for name, step, *args in operations:
        now += step
        assert _apply(fast, name, now, args) == _apply(reference, name, now, args), (
            name,
            now,
            args,
        )
        assert fast.snapshot() == reference.snapshot(), (name, now, args)


buffer_ops = st.one_of(
    st.tuples(st.just("record"), steps, st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("update_diff_min"), steps, st.none()),
    st.tuples(st.just("reset"), steps, st.none()),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    operations=st.lists(buffer_ops, max_size=80),
)
def test_access_buffer_matches_reference(capacity, operations):
    fast = AccessBuffer(capacity)
    reference = ReferenceAccessBuffer(capacity)
    fast.reset(0x400)
    reference.reset(0x400)
    now = 0
    for name, step, line in operations:
        now += step
        if name == "record":
            block_addr = line * 64
            outcome = (fast.record(block_addr, now), reference.record(block_addr, now))
        elif name == "update_diff_min":
            outcome = (fast.update_diff_min(), reference.update_diff_min())
        else:
            outcome = (fast.reset(0x400), reference.reset(0x400))
        assert outcome[0] == outcome[1], (name, now, line)
        assert fast.snapshot() == reference.snapshot(), (name, now, line)


def _cache_pair(cache_type, bitp):
    """An L1 (2 sets x 2 ways) over an inclusive L2 (2 sets x 4 ways) whose
    eviction hook back-invalidates the L1 and, like BITP, re-prefetches the
    line into it from inside the L2's eviction."""
    amap = AddressMap()
    l2 = cache_type(
        "L2", size=512, assoc=4, amap=amap, hit_latency=12,
        parent=MemoryPort(MainMemory(latency=120)), mshr_entries=2,
        mshr_max_merges=2,
    )
    l1 = cache_type(
        "L1D0", size=256, assoc=2, amap=amap, hit_latency=4, parent=l2,
        mshr_entries=2, mshr_max_merges=2,
    )

    def back_invalidate(block_addr, now):
        if l1.invalidate_block(block_addr):
            l1.stats.back_invalidations += 1
            if bitp:
                l1.prefetch(block_addr, now, "bitp")

    l2.on_evict = back_invalidate
    return l1, l2


def _lines(cache):
    """Per-set (block, flags) in LRU order, oldest first."""
    if isinstance(cache, ReferenceCache):
        return [
            [(block, cache.line_for(block).flags()) for block in blocks]
            for blocks in cache.lru_sets()
        ]
    return [
        [
            (block, (line.dirty, line.ready_time, line.prefetched,
                     line.component, line.useful_counted))
            for block, line in lines.items()
        ]
        for lines in cache._sets
    ]


# Sixteen lines over two L1 sets and two L2 sets: evictions, back-
# invalidations, merges and squashes are all common.
cache_blocks = st.integers(min_value=0, max_value=15).map(lambda line: line * 64)
levels = st.sampled_from(("l1", "l2"))
cache_ops = st.one_of(
    st.tuples(st.just("access"), steps, levels, cache_blocks, st.booleans(),
              st.booleans()),
    st.tuples(st.just("prefetch"), steps, levels, cache_blocks,
              st.sampled_from(("st", "at", "rp"))),
    st.tuples(st.just("invalidate_block"), steps, levels, cache_blocks),
    st.tuples(st.just("flush_block"), steps, levels, cache_blocks),
    st.tuples(st.just("mark_dirty"), steps, levels, cache_blocks),
)


def _apply_cache_op(caches, name, now, level, block_addr, rest):
    cache = caches[level]
    if name == "access":
        write, demand = rest
        return cache.access(block_addr, now, write=write, demand=demand)
    if name == "prefetch":
        return cache.prefetch(block_addr, now, *rest)
    return getattr(cache, name)(block_addr)


@settings(max_examples=300, deadline=None)
@given(bitp=st.booleans(), operations=st.lists(cache_ops, max_size=80))
def test_cache_matches_reference(bitp, operations):
    fast = dict(zip(("l1", "l2"), _cache_pair(Cache, bitp)))
    reference = dict(zip(("l1", "l2"), _cache_pair(ReferenceCache, bitp)))
    now = 0
    for name, step, level, block_addr, *rest in operations:
        now += step
        where = (name, now, level, block_addr, rest)
        assert _apply_cache_op(fast, name, now, level, block_addr, rest) == (
            _apply_cache_op(reference, name, now, level, block_addr, rest)
        ), where
        for key in ("l1", "l2"):
            assert _lines(fast[key]) == _lines(reference[key]), (key, where)
            assert fast[key].stats == reference[key].stats, (key, where)
            assert fast[key].mshr.snapshot() == reference[key].mshr.snapshot(), (
                key,
                where,
            )


class ReferenceAlu(Core):
    """One instruction per step through hand-written Table III handlers:
    the per-op ALU, ``jmp`` and non-speculative ``branch`` code the core
    ran before superblocks.  Loads and ``halt`` keep the core's handlers.
    """

    def step(self):
        d = self._decoded[self.pc_index]
        handler = _REFERENCE_HANDLERS.get(d[0])
        if handler is None:
            self._dispatch[d[0]](self, d)
        else:
            handler(self, d)

    def _retire(self):
        self.time += self._base_cost
        self.pc_index += 1
        if self._speculating:
            self.stats.transient_executed += 1
        else:
            self.stats.instructions_retired += 1

    def _clamp_sc(self, sc):
        """The calculation buffer's scale clamp: abs, >= 1, <= page size."""
        if sc < 0:
            sc = -sc
        if sc < 1:
            return 1
        cap = self._scale_cap
        return sc if sc <= cap else cap

    def _op_li(self, d):
        _, rd, imm = d
        if rd:
            self._values[rd] = imm
        track = self._tracks[rd]
        track.fva = imm
        track.sc = 1
        self._retire()

    def _op_mov(self, d):
        _, rd, rs0 = d
        if rd:
            self._values[rd] = self._values[rs0]
        src = self._tracks[rs0]
        dst = self._tracks[rd]
        if src.fva is None:
            dst.fva = None
            dst.sc = src.sc
        else:
            dst.fva = src.fva
            dst.sc = 1
        self._retire()

    # -- ALU: add/sub (Table III "+/-" rules) -------------------------------------------

    def _op_add_rr(self, d):
        _, rd, rs0, rs1 = d
        values = self._values
        if rd:
            values[rd] = (values[rs0] + values[rs1]) & WORD_MASK
        tracks = self._tracks
        src, other, dst = tracks[rs0], tracks[rs1], tracks[rd]
        sfva, ofva = src.fva, other.fva
        if sfva is not None and ofva is not None:
            dst.fva = (sfva + ofva) & WORD_MASK
            dst.sc = 1
        elif sfva is None and ofva is not None:
            dst.fva = None
            dst.sc = src.sc
        elif sfva is not None:
            dst.fva = None
            dst.sc = other.sc
        else:
            dst.fva = None
            ssc, osc = src.sc, other.sc
            dst.sc = ssc if ssc < osc else osc
        self._retire()

    def _op_sub_rr(self, d):
        _, rd, rs0, rs1 = d
        values = self._values
        if rd:
            values[rd] = (values[rs0] - values[rs1]) & WORD_MASK
        tracks = self._tracks
        src, other, dst = tracks[rs0], tracks[rs1], tracks[rd]
        sfva, ofva = src.fva, other.fva
        if sfva is not None and ofva is not None:
            dst.fva = (sfva - ofva) & WORD_MASK
            dst.sc = 1
        elif sfva is None and ofva is not None:
            dst.fva = None
            dst.sc = src.sc
        elif sfva is not None:
            dst.fva = None
            dst.sc = other.sc
        else:
            dst.fva = None
            ssc, osc = src.sc, other.sc
            dst.sc = ssc if ssc < osc else osc
        self._retire()

    def _op_add_ri(self, d):
        # Covers ``sub rd, rs, imm`` too: decode negates the immediate.
        _, rd, rs0, imm = d
        values = self._values
        if rd:
            values[rd] = (values[rs0] + imm) & WORD_MASK
        tracks = self._tracks
        src, dst = tracks[rs0], tracks[rd]
        sfva = src.fva
        if sfva is None:
            # Adding an immediate offset does not change the scale.
            dst.fva = None
            dst.sc = src.sc
        else:
            dst.fva = (sfva + imm) & WORD_MASK
            dst.sc = 1
        self._retire()

    # -- ALU: mul/shift (Table III "x" rules) -------------------------------------------

    def _op_mul_rr(self, d):
        _, rd, rs0, rs1 = d
        values = self._values
        if rd:
            values[rd] = (values[rs0] * values[rs1]) & WORD_MASK
        tracks = self._tracks
        src, other, dst = tracks[rs0], tracks[rs1], tracks[rd]
        sfva, ofva = src.fva, other.fva
        if sfva is not None and ofva is not None:
            dst.fva = (sfva * ofva) & WORD_MASK
            dst.sc = 1
        elif sfva is None and ofva is not None:
            dst.fva = None
            dst.sc = self._clamp_sc(src.sc * ofva)
        elif sfva is not None:
            dst.fva = None
            dst.sc = self._clamp_sc(sfva * other.sc)
        else:
            dst.fva = None
            dst.sc = self._clamp_sc(src.sc * other.sc)
        self.time += self._mul_cost
        self.pc_index += 1
        if self._speculating:
            self.stats.transient_executed += 1
        else:
            self.stats.instructions_retired += 1

    def _op_mul_ri(self, d):
        _, rd, rs0, imm = d
        values = self._values
        if rd:
            values[rd] = (values[rs0] * imm) & WORD_MASK
        tracks = self._tracks
        src, dst = tracks[rs0], tracks[rd]
        sfva = src.fva
        if sfva is None:
            dst.fva = None
            dst.sc = self._clamp_sc(src.sc * imm)
        else:
            dst.fva = (sfva * imm) & WORD_MASK
            dst.sc = 1
        self.time += self._mul_cost
        self.pc_index += 1
        if self._speculating:
            self.stats.transient_executed += 1
        else:
            self.stats.instructions_retired += 1

    def _op_sll_rr(self, d):
        _, rd, rs0, rs1 = d
        values = self._values
        shift = values[rs1] & 0x3F
        if rd:
            values[rd] = (values[rs0] << shift) & WORD_MASK
        tracks = self._tracks
        src, other, dst = tracks[rs0], tracks[rs1], tracks[rd]
        sfva, ofva = src.fva, other.fva
        if sfva is not None and ofva is not None:
            dst.fva = (sfva << (ofva & 0x3F)) & WORD_MASK
            dst.sc = 1
        elif sfva is None and ofva is not None:
            dst.fva = None
            dst.sc = self._clamp_sc(src.sc << (ofva & 0x3F))
        else:
            # Shift by an unknown amount: conservatively reinitialise.
            dst.fva = None
            dst.sc = 1
        self._retire()

    def _op_srl_rr(self, d):
        _, rd, rs0, rs1 = d
        values = self._values
        shift = values[rs1] & 0x3F
        if rd:
            values[rd] = values[rs0] >> shift
        tracks = self._tracks
        src, other, dst = tracks[rs0], tracks[rs1], tracks[rd]
        sfva, ofva = src.fva, other.fva
        if sfva is not None and ofva is not None:
            dst.fva = (sfva >> (ofva & 0x3F)) & WORD_MASK
            dst.sc = 1
        elif sfva is None and ofva is not None:
            dst.fva = None
            dst.sc = self._clamp_sc(src.sc >> (ofva & 0x3F))
        else:
            dst.fva = None
            dst.sc = 1
        self._retire()

    def _op_sll_ri(self, d):
        _, rd, rs0, shift = d
        values = self._values
        if rd:
            values[rd] = (values[rs0] << shift) & WORD_MASK
        tracks = self._tracks
        src, dst = tracks[rs0], tracks[rd]
        sfva = src.fva
        if sfva is None:
            dst.fva = None
            dst.sc = self._clamp_sc(src.sc << shift)
        else:
            dst.fva = (sfva << shift) & WORD_MASK
            dst.sc = 1
        self._retire()

    def _op_srl_ri(self, d):
        _, rd, rs0, shift = d
        values = self._values
        if rd:
            values[rd] = values[rs0] >> shift
        tracks = self._tracks
        src, dst = tracks[rs0], tracks[rd]
        sfva = src.fva
        if sfva is None:
            dst.fva = None
            dst.sc = self._clamp_sc(src.sc >> shift)
        else:
            dst.fva = (sfva >> shift) & WORD_MASK
            dst.sc = 1
        self._retire()

    # -- ALU: and/or/xor (Table III "Otherwise" rule) -----------------------------------

    def _op_and_rr(self, d):
        _, rd, rs0, rs1 = d
        values = self._values
        if rd:
            values[rd] = values[rs0] & values[rs1]
        dst = self._tracks[rd]
        dst.fva = None
        dst.sc = 1
        self._retire()

    def _op_or_rr(self, d):
        _, rd, rs0, rs1 = d
        values = self._values
        if rd:
            values[rd] = values[rs0] | values[rs1]
        dst = self._tracks[rd]
        dst.fva = None
        dst.sc = 1
        self._retire()

    def _op_xor_rr(self, d):
        _, rd, rs0, rs1 = d
        values = self._values
        if rd:
            values[rd] = values[rs0] ^ values[rs1]
        dst = self._tracks[rd]
        dst.fva = None
        dst.sc = 1
        self._retire()

    def _op_and_ri(self, d):
        _, rd, rs0, imm = d
        if rd:
            self._values[rd] = self._values[rs0] & imm
        dst = self._tracks[rd]
        dst.fva = None
        dst.sc = 1
        self._retire()

    def _op_or_ri(self, d):
        _, rd, rs0, imm = d
        if rd:
            self._values[rd] = self._values[rs0] | imm
        dst = self._tracks[rd]
        dst.fva = None
        dst.sc = 1
        self._retire()

    def _op_xor_ri(self, d):
        _, rd, rs0, imm = d
        if rd:
            self._values[rd] = self._values[rs0] ^ imm
        dst = self._tracks[rd]
        dst.fva = None
        dst.sc = 1
        self._retire()

    def _op_jmp(self, d):
        self.pc_index = d[1]
        self.time += self._branch_cost
        if self._speculating:
            self.stats.transient_executed += 1
        else:
            self.stats.instructions_retired += 1

    def _op_nop(self, d):
        self._retire()

    def _op_branch(self, d):
        # The resolve-immediately path: these cores do not speculate, and
        # the generated targets never form a countdown loop.
        _, cond, rs0, rs1, target = d
        values = self._values
        a = values[rs0]
        b = values[rs1]
        if cond == 0:
            taken = a == b
        elif cond == 1:
            taken = a != b
        else:
            if a & SIGN_BIT:
                a -= 1 << 64
            if b & SIGN_BIT:
                b -= 1 << 64
            taken = a < b if cond == 2 else a >= b
        self.stats.branches += 1
        self.pc_index = target if taken else self.pc_index + 1
        self.time += self._branch_cost
        self.stats.instructions_retired += 1


_REFERENCE_HANDLERS = {
    K_LI: ReferenceAlu._op_li,
    K_MOV: ReferenceAlu._op_mov,
    K_ADD_RR: ReferenceAlu._op_add_rr,
    K_SUB_RR: ReferenceAlu._op_sub_rr,
    K_ADD_RI: ReferenceAlu._op_add_ri,
    K_MUL_RR: ReferenceAlu._op_mul_rr,
    K_MUL_RI: ReferenceAlu._op_mul_ri,
    K_SLL_RR: ReferenceAlu._op_sll_rr,
    K_SRL_RR: ReferenceAlu._op_srl_rr,
    K_SLL_RI: ReferenceAlu._op_sll_ri,
    K_SRL_RI: ReferenceAlu._op_srl_ri,
    K_AND_RR: ReferenceAlu._op_and_rr,
    K_OR_RR: ReferenceAlu._op_or_rr,
    K_XOR_RR: ReferenceAlu._op_xor_rr,
    K_AND_RI: ReferenceAlu._op_and_ri,
    K_OR_RI: ReferenceAlu._op_or_ri,
    K_XOR_RI: ReferenceAlu._op_xor_ri,
    K_BRANCH: ReferenceAlu._op_branch,
    K_JMP: ReferenceAlu._op_jmp,
    K_NOP: ReferenceAlu._op_nop,
}

# r0 is among the destinations; the words include full-width values,
# shift amounts >= 64 and values past the scale cap, the immediates
# negative multipliers.
_ALU_REGS = st.integers(min_value=0, max_value=5)
_WORDS = st.one_of(
    st.integers(min_value=0, max_value=WORD_MASK),
    st.integers(min_value=64, max_value=300),
    st.sampled_from([0, 1, 63, 64, 65, 127, 128, 4096, 1 << 40, WORD_MASK]),
)
_IMMS = st.one_of(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(1 << 63), max_value=WORD_MASK),
)
_ALU_OPS = st.sampled_from(["add", "sub", "mul", "sll", "srl", "and", "or", "xor"])
alu_instructions = st.one_of(
    st.builds(lambda rd, imm: Instruction("li", rd=rd, imm=imm), _ALU_REGS, _WORDS),
    st.builds(lambda rd, rs: Instruction("mov", rd=rd, rs0=rs), _ALU_REGS, _ALU_REGS),
    st.builds(
        lambda op, rd, rs0, rs1: Instruction(op, rd=rd, rs0=rs0, rs1=rs1),
        _ALU_OPS,
        _ALU_REGS,
        _ALU_REGS,
        _ALU_REGS,
    ),
    st.builds(
        lambda op, rd, rs0, imm: Instruction(op, rd=rd, rs0=rs0, imm=imm),
        _ALU_OPS,
        _ALU_REGS,
        _ALU_REGS,
        _IMMS,
    ),
    st.builds(lambda: Instruction("nop")),
).map(lambda instruction: [instruction])
# A register shift by a known amount of 64 or more.
_wide_shifts = st.builds(
    lambda op, rd, rs0, amount_reg, amount: [
        Instruction("li", rd=amount_reg, imm=amount),
        Instruction(op, rd=rd, rs0=rs0, rs1=amount_reg),
    ],
    st.sampled_from(["sll", "srl"]),
    _ALU_REGS,
    _ALU_REGS,
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=64, max_value=255),
)
alu_runs = st.lists(
    st.one_of(alu_instructions, _wide_shifts), min_size=1, max_size=16
).map(lambda groups: [instruction for group in groups for instruction in group])
_DATA_BASE = 0x1000


def _alu_program(loaded, body, tail, tail_regs):
    """Loads of ``loaded`` into r1.. (unknown fva), the ALU ``body``, an
    optional ``bne``/``jmp`` to the second of two trailing halts."""
    instructions = [
        Instruction("load", rd=reg, rs0=0, imm=_DATA_BASE + 8 * (reg - 1))
        for reg in range(1, len(loaded) + 1)
    ]
    instructions += body
    far = len(instructions) + 2  # the tail, a halt, then the far halt
    if tail == "bne":
        instructions.append(
            Instruction("bne", rs0=tail_regs[0], rs1=tail_regs[1], target=far)
        )
    elif tail == "jmp":
        instructions.append(Instruction("jmp", target=far))
    instructions += [Instruction("halt"), Instruction("halt")]
    program = Program(instructions=instructions, name="alu-run")
    program.add_data(DataSegment(_DATA_BASE, tuple(loaded)))
    return program.finalize()


def _alu_core(core_type, program, config):
    hierarchy = MemoryHierarchy(num_cores=1)
    hierarchy.memory.load_program_data(program)
    return core_type(0, program, hierarchy, config)


@settings(max_examples=300, deadline=None)
@given(
    loaded=st.lists(_WORDS, max_size=5),
    body=alu_runs,
    tail=st.sampled_from([None, "bne", "jmp"]),
    tail_regs=st.tuples(_ALU_REGS, _ALU_REGS),
    base_cost=st.integers(min_value=1, max_value=4),
    mul_cost=st.integers(min_value=1, max_value=7),
    branch_cost=st.integers(min_value=1, max_value=3),
)
def test_superblock_matches_reference_alu(
    loaded, body, tail, tail_regs, base_cost, mul_cost, branch_cost
):
    program = _alu_program(loaded, body, tail, tail_regs)
    config = CoreConfig(
        base_cost=base_cost, mul_cost=mul_cost, branch_cost=branch_cost
    )
    subject = _alu_core(Core, program, config)
    reference = _alu_core(ReferenceAlu, program, config)
    steps = 0
    while not subject.halted:
        subject.step()
        steps += 1
    # One step per load, one for the run with its tail, one for the halt.
    assert steps == len(loaded) + 2
    while not reference.halted:
        reference.step()
    assert subject._values == reference._values
    assert [(t.fva, t.sc) for t in subject._tracks] == [
        (t.fva, t.sc) for t in reference._tracks
    ]
    assert subject.time == reference.time
    assert subject.stats.instructions_retired == reference.stats.instructions_retired
    assert subject.stats.branches == reference.stats.branches
    assert subject.pc_index == reference.pc_index
