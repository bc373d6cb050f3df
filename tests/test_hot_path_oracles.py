"""Differential checks of the cache, MSHR file and access buffer's fast paths.

A cache set is one LRU-ordered ``{block_addr: line}`` dict,
``MSHRFile._purge`` rebuilds its entry list only once an entry has
expired, the prefetch pool is counted with a plain loop, the access
buffer picks its LRU victim with ``stamps.index(min(stamps))`` and
computes DiffMin with a plain loop.  Each reference model below keeps the
straightforward form those replaced; random operation sequences at
non-decreasing times must give equal return values and equal state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_buffer import AccessBuffer
from repro.mem.cache import Cache, MemoryPort
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
