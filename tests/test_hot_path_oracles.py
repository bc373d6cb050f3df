"""Differential checks of the MSHR file and access buffer's fast paths.

``MSHRFile._purge`` rebuilds its entry list only once an entry has
expired, the prefetch pool is counted with a plain loop, the access
buffer picks its LRU victim with ``stamps.index(min(stamps))`` and
computes DiffMin with a plain loop.  Each reference model below keeps the
straightforward form those replaced; random operation sequences at
non-decreasing times must give equal return values and equal snapshots.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_buffer import AccessBuffer
from repro.mem.mshr import MSHRFile


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
