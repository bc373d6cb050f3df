"""Property tests for the abstract cache-state domain.

The timing analysis is only sound if the lattice underneath it behaves:
``join`` must be an upper bound (idempotent, commutative, monotone) and
the joined state may never claim more than *both* inputs agree on —
otherwise a merge point in the CFG could manufacture a definite hit or
miss that one incoming path contradicts.  The last test pins the other
end of the spectrum: on a single concrete path (no joins, no havoc) the
must/may intervals collapse to exact LRU, which is what makes
``timing_map`` cycle-exact for the straight-line victims.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.cachemodel import (
    HIT,
    MISS,
    UNKNOWN,
    CacheGeometry,
    CacheState,
    MultiCoreHierarchyState,
)
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy

#: Small geometry so sequences actually evict: 4 sets x 2 ways.
GEOMETRY = CacheGeometry(num_sets=4, assoc=2, block_bits=6)

#: A handful of block numbers spanning every set, with set collisions.
BLOCKS = tuple(range(12))

_ops = st.one_of(
    st.tuples(st.just("access"), st.sampled_from(BLOCKS)),
    st.tuples(st.just("flush"), st.sampled_from(BLOCKS)),
    st.tuples(st.just("havoc_access"), st.none()),
    st.tuples(st.just("havoc_flush"), st.none()),
)

op_sequences = st.lists(_ops, max_size=24)
concrete_sequences = st.lists(st.sampled_from(BLOCKS), max_size=32)


def run_ops(ops):
    state = CacheState(GEOMETRY)
    for name, arg in ops:
        if arg is None:
            getattr(state, name)()
        else:
            getattr(state, name)(arg)
    return state


@settings(max_examples=200, deadline=None)
@given(op_sequences)
def test_join_idempotent(ops):
    state = run_ops(ops)
    assert state.join(state) == state


@settings(max_examples=200, deadline=None)
@given(op_sequences, op_sequences)
def test_join_commutative(left_ops, right_ops):
    left, right = run_ops(left_ops), run_ops(right_ops)
    assert left.join(right) == right.join(left)


@settings(max_examples=200, deadline=None)
@given(op_sequences, op_sequences)
def test_join_is_upper_bound(left_ops, right_ops):
    left, right = run_ops(left_ops), run_ops(right_ops)
    joined = left.join(right)
    assert left.leq(joined)
    assert right.leq(joined)


@settings(max_examples=100, deadline=None)
@given(op_sequences, op_sequences, op_sequences)
def test_join_monotone(low_ops, extra_ops, other_ops):
    """``a <= b  ==>  a join c <= b join c`` (b built as a join upper)."""
    low, other = run_ops(low_ops), run_ops(other_ops)
    high = low.join(run_ops(extra_ops))
    assert low.leq(high)
    assert low.join(other).leq(high.join(other))


@settings(max_examples=200, deadline=None)
@given(op_sequences, op_sequences)
def test_join_over_approximates_both_inputs(left_ops, right_ops):
    """The join never claims a definite hit/miss either input disputes."""
    left, right = run_ops(left_ops), run_ops(right_ops)
    joined = left.join(right)
    for block in BLOCKS:
        verdict = joined.classify(block)
        if verdict == UNKNOWN:
            continue
        assert left.classify(block) == verdict, block
        assert right.classify(block) == verdict, block


@settings(max_examples=200, deadline=None)
@given(concrete_sequences)
def test_concrete_path_matches_reference_lru(sequence):
    """No joins, no havoc: the abstract state IS an exact LRU simulator."""
    state = CacheState(GEOMETRY)
    lru = {index: [] for index in range(GEOMETRY.num_sets)}
    for block in sequence:
        ways = lru[GEOMETRY.set_of(block)]
        expected = HIT if block in ways else MISS
        assert state.classify(block) == expected, (sequence, block)
        if block in ways:
            ways.remove(block)
        ways.insert(0, block)
        del ways[GEOMETRY.assoc:]
        state.access(block)
    for block in BLOCKS:
        ways = lru[GEOMETRY.set_of(block)]
        expected = HIT if block in ways else MISS
        assert state.classify(block) == expected, (sequence, block)


concrete_flush_sequences = st.lists(
    st.tuples(st.sampled_from(("access", "flush")), st.sampled_from(BLOCKS)),
    max_size=32,
)


@settings(max_examples=200, deadline=None)
@given(concrete_flush_sequences)
def test_concrete_path_with_flushes_matches_reference_lru(ops):
    """A flush frees a way the next fill takes: still an exact LRU."""
    state = CacheState(GEOMETRY)
    lru = {index: [] for index in range(GEOMETRY.num_sets)}
    for op, block in ops:
        ways = lru[GEOMETRY.set_of(block)]
        if op == "flush":
            state.flush(block)
            if block in ways:
                ways.remove(block)
            continue
        expected = HIT if block in ways else MISS
        assert state.classify(block) == expected, (ops, block)
        if block in ways:
            ways.remove(block)
        ways.insert(0, block)
        del ways[GEOMETRY.assoc:]
        state.access(block)
    for block in BLOCKS:
        ways = lru[GEOMETRY.set_of(block)]
        expected = HIT if block in ways else MISS
        assert state.classify(block) == expected, (ops, block)


# -- two cores over one shared L2: concrete latency within abstract bound ----

#: One-set, two-way L2 under roomy L1s: almost every third distinct line
#: evicts from the L2 and back-invalidates whichever core held the victim.
TINY_L2 = HierarchyConfig(l2_size=128, l2_assoc=2)
LINES = (0x1000, 0x2000, 0x3000, 0x4000)

two_core_sequences = st.lists(
    st.tuples(
        st.sampled_from(("load", "store", "flush", "prefetch", "prefetchw")),
        st.integers(0, 1),
        st.sampled_from(LINES),
    ),
    max_size=24,
)


def check_two_core_containment(ops):
    concrete = MemoryHierarchy(2, TINY_L2)
    abstract = MultiCoreHierarchyState(TINY_L2, num_cores=2)
    for step, (op, core, addr) in enumerate(ops):
        now = 10_000 * (step + 1)  # far apart: every fill has completed
        if op == "load":
            latency = concrete.load(core, addr, now).latency
            interval = abstract.load(core, addr)
        elif op == "store":
            latency = concrete.store(core, addr, step, now)
            interval = abstract.store(core, addr)
        elif op == "flush":
            latency = concrete.flush(core, addr, now)
            interval = abstract.flush(core, addr)
        else:
            write = op == "prefetchw"
            latency = concrete.software_prefetch(core, addr, now, write).latency
            interval = abstract.prefetch(core, addr, write)
        assert interval.lo <= latency <= interval.hi, (ops, step, interval)


@settings(max_examples=300, deadline=None)
@given(two_core_sequences)
@example(
    # The L2 evicts core 0's exclusively held line: the record goes with
    # it, so core 1's later load steals nothing from core 0's reload.
    [
        ("prefetchw", 0, 0x1000),
        ("load", 0, 0x2000),
        ("load", 0, 0x3000),
        ("load", 0, 0x1000),
        ("load", 1, 0x1000),
        ("load", 0, 0x1000),
    ]
)
def test_two_core_latency_within_abstract_interval(ops):
    check_two_core_containment(ops)


def test_l2_eviction_back_invalidates_the_other_core():
    """Core 0's fills evict core 1's line from the shared L2: core 1's
    reload must go to memory, not hit its (back-invalidated) L1."""
    check_two_core_containment(
        [
            ("load", 1, 0x1000),
            ("load", 0, 0x2000),
            ("load", 0, 0x3000),
            ("load", 1, 0x1000),
        ]
    )
