"""Differential oracle: static cycle bounds vs. the dynamic simulator.

The timing analysis makes two falsifiable claims and this file locks
both against the real simulator:

* **containment**: for every crypto victim under the flush-reload
  wrapper, for every secret the scenario suite actually runs on the
  undefended Base config, the measured end-to-end cycle count lies
  inside the static :func:`~repro.analysis.timing_map` interval — and
  since these single-core programs walk to a point interval, the static
  prediction is in fact cycle-exact;
* **verdicts**: the taint-clean ``const-lookup`` control is certified
  constant-time (one exact interval across its whole secret space, zero
  measured variance), while AES/RSA/ECDSA trip ``AN-TIMING-VAR``
  exactly at the accesses/branches whose ``expected_indices`` vary, and
  :func:`~repro.analysis.cache_distinguishers` separates leaky victims
  from the control.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cache_distinguishers,
    taint_of_program,
    timing_map,
    trial_intervals,
)
from repro.analysis.timing import _Unresolved, _walk
from repro.attacks import scenarios
from repro.cpu.core import CoreConfig
from repro.isa import decode
from repro.isa.assembler import assemble
from repro.mem.hierarchy import HierarchyConfig
from repro.runner import ATTACK_KINDS
from repro.sim.config import SystemConfig
from repro.sim.simulator import build_system, run_program
from repro.workloads.crypto import get_victim, victim_names

CRYPTO_LEAKY = ("aes-ttable", "direct", "ecdsa-window", "rsa-sqmul")


def victim_program(name):
    """The secret-bearing program of the flush-reload build for ``name``."""
    victim = get_victim(name)
    attack = ATTACK_KINDS["flush-reload"](
        victim=name, num_indices=victim.num_indices, secret=0
    )
    carriers = [p for p in attack.build_programs() if p.taint_sources]
    assert len(carriers) == 1, "expected exactly one secret-bearing program"
    return carriers[0]


@pytest.fixture(scope="module")
def base_cells():
    result = scenarios.run(
        victims=tuple(victim_names()),
        attacks=("flush-reload",),
        defenses=("Base",),
        secrets=4,
    )
    return {cell.spec.victim: cell for cell in result.cells}


# -- simulated cycles fall inside (and on) the static bounds ----------------


@pytest.mark.parametrize("name", victim_names())
def test_simulated_cycles_within_static_bounds(name, base_cells):
    program = victim_program(name)
    probes = base_cells[name].probes
    assert probes, name
    for probe in probes:
        interval = timing_map(program, probe.secret)
        assert interval.lo <= probe.cycles, (name, probe.secret)
        assert interval.hi is not None, (name, probe.secret)
        assert probe.cycles <= interval.hi, (name, probe.secret)
        # Single-core victims resolve to a point: the bound is exact.
        assert interval.exact, (name, probe.secret)
        assert interval.lo == probe.cycles, (name, probe.secret)


# -- the control is certified constant-time, statically and dynamically -----


def test_const_lookup_certified_constant_time(base_cells):
    victim = get_victim("const-lookup")
    program = victim_program("const-lookup")
    intervals = trial_intervals(program, range(victim.secret_space))
    assert len(intervals) == victim.secret_space
    distinct = {(iv.lo, iv.hi) for iv in intervals.values()}
    assert len(distinct) == 1, distinct
    assert all(iv.exact for iv in intervals.values())
    measured = {probe.cycles for probe in base_cells["const-lookup"].probes}
    assert len(measured) == 1, measured
    ((static_cycles, _),) = distinct
    assert measured == {static_cycles}


def test_leaky_victims_vary_statically():
    """At least one leaky victim shows secret-dependent *cycles* (the
    branchy one); the rest still vary in cache state (next test)."""
    victim = get_victim("rsa-sqmul")
    program = victim_program("rsa-sqmul")
    intervals = trial_intervals(
        program, victim.trial_secrets(min(8, victim.secret_space))
    )
    assert len({(iv.lo, iv.hi) for iv in intervals.values()}) > 1


# -- AN-TIMING-VAR anchors == the accesses/branches that vary ---------------


@pytest.mark.parametrize("name", victim_names())
def test_timing_var_anchors_match_taint_surface(name):
    program = victim_program(name)
    analysis = program.analysis
    taint = taint_of_program(program)
    flagged = {
        f.index
        for f in analysis.findings + analysis.suppressed
        if f.rule == "AN-TIMING-VAR"
    }
    expected = set(taint.secret_addressed()) | set(taint.branches)
    assert flagged == expected, (name, flagged, expected)
    if name == "const-lookup":
        assert flagged == set()
    else:
        assert flagged, name


# -- AN-CACHE-DISTINGUISH separates leaky victims from the control ----------


@pytest.mark.parametrize("name", victim_names())
def test_cache_distinguisher_verdicts(name):
    victim = get_victim(name)
    program = victim_program(name)
    report = cache_distinguishers(
        program, secrets=victim.trial_secrets(min(8, victim.secret_space))
    )
    if name in CRYPTO_LEAKY:
        assert report.distinguishable, name
        assert report.witness is not None
        assert report.index is not None
    else:
        assert not report.distinguishable, name
        assert report.witness is None


# -- drift guard: every decoded op kind walks to the simulator's cycles -----

#: One minimal program per ``repro.isa.decode`` op kind: a little set-up,
#: the op under test, then ``halt``.  A new op kind fails
#: ``test_every_op_kind_has_a_program`` until it gets a program here and
#: the walker prices it like the core does.  A software prefetch that
#: misses the L1 is droppable under the timing walk (a wide interval), so
#: the prefetches run on a resident line, where their cost is exact.
OP_PROGRAMS = {
    "K_LOAD": "li r1, 0x10000\nload r2, 0(r1)\nload r3, 8(r1)",
    "K_STORE": "li r1, 0x10000\nstore r1, 0(r1)\nload r2, 0(r1)",
    "K_LI": "li r1, 7",
    "K_MOV": "li r1, 7\nmov r2, r1",
    "K_ADD_RR": "li r1, 7\nadd r2, r1, r1",
    "K_SUB_RR": "li r1, 7\nsub r2, r1, r1",
    "K_ADD_RI": "li r1, 7\nadd r2, r1, 3",
    "K_MUL_RR": "li r1, 7\nmul r2, r1, r1",
    "K_MUL_RI": "li r1, 7\nmul r2, r1, 3",
    "K_SLL_RR": "li r1, 7\nsll r2, r1, r1",
    "K_SRL_RR": "li r1, 7\nsrl r2, r1, r1",
    "K_SLL_RI": "li r1, 7\nsll r2, r1, 3",
    "K_SRL_RI": "li r1, 7\nsrl r2, r1, 1",
    "K_AND_RR": "li r1, 7\nand r2, r1, r1",
    "K_OR_RR": "li r1, 7\nor r2, r1, r1",
    "K_XOR_RR": "li r1, 7\nxor r2, r1, r1",
    "K_AND_RI": "li r1, 7\nand r2, r1, 3",
    "K_OR_RI": "li r1, 7\nor r2, r1, 8",
    "K_XOR_RI": "li r1, 7\nxor r2, r1, 5",
    "K_BRANCH": (
        "li r1, 4\nloop:\nsub r1, r1, 1\nbne r1, zero, loop\n"
        "beq r1, zero, done\nnop\ndone:"
    ),
    "K_JMP": "jmp done\nnop\ndone:",
    "K_RDCYCLE": (
        "li r1, 0x10000\nload r2, 0(r1)\nrdcycle r3\n"
        "and r3, r3, 1\nbeq r3, zero, done\nnop\ndone:"
    ),
    "K_CLFLUSH": (
        "li r1, 0x10000\nload r2, 0(r1)\nclflush 0(r1)\nload r2, 0(r1)"
    ),
    "K_PREFETCH": (
        "li r1, 0x10000\nload r2, 0(r1)\nprefetch 0(r1)\nprefetchw 0(r1)"
    ),
    "K_NOP": "nop",
    "K_FENCE": "li r1, 0x10000\nfence\nload r2, 0(r1)",
    "K_HALT": "",
}


def test_every_op_kind_has_a_program():
    kinds = {name for name in vars(decode) if name.startswith("K_")}
    assert kinds == set(OP_PROGRAMS)


@pytest.mark.parametrize("name", sorted(OP_PROGRAMS))
def test_op_kind_walks_to_simulated_cycles(name):
    program = assemble(OP_PROGRAMS[name] + "\nhalt\n", name=name)
    assert getattr(decode, name) in {tup[0] for tup in program.decoded}
    interval = timing_map(program, 0)
    assert interval.exact, (name, interval)
    assert interval.lo == run_program(program).cycles, name


# -- random programs: the walk never contradicts the simulator ---------------

#: Lines 64 KiB apart share an L1 set (and evict each other); the small
#: L2 makes the shared level evict and back-invalidate too.
LINES = tuple(0x10000 + 64 * k for k in range(4)) + tuple(
    0x10000 + 0x10000 * k for k in range(1, 3)
)
HIERARCHIES = (HierarchyConfig(), HierarchyConfig(l2_size=256, l2_assoc=2))
#: A wide OoO hide window leaves load and prefetch fills in flight.
CORES = (CoreConfig(), CoreConfig(load_hide_cycles=100))

_random_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("load", "store", "clflush", "prefetch", "prefetchw", "rdcycle",
             "fence", "mul")
        ),
        st.sampled_from(LINES),
    ),
    max_size=14,
)


def random_program(ops, name, results=0x300000):
    """Straight-line assembly for ``ops``; rdcycle values land in memory."""
    lines = []
    for index, (op, addr) in enumerate(ops):
        if op == "load":
            lines += [f"li r1, {addr}", "load r2, 0(r1)"]
        elif op == "store":
            lines += [f"li r1, {addr}", "store r1, 0(r1)"]
        elif op in ("clflush", "prefetch", "prefetchw"):
            lines += [f"li r1, {addr}", f"{op} 0(r1)"]
        elif op == "rdcycle":
            lines += ["rdcycle r3", f"li r5, {results + 8 * index}", "store r3, 0(r5)"]
        elif op == "mul":
            lines += ["mul r4, r4, 3"]
        else:
            lines += [op]
    return assemble("\n".join(lines + ["halt"]), name=name)


@settings(max_examples=150, deadline=None)
@given(_random_ops, st.sampled_from(HIERARCHIES), st.sampled_from(CORES))
def test_random_program_cycles_within_walk_bounds(ops, hierarchy, core):
    """In-flight fills, evictions and back-invalidations included, the
    single-core walk's interval contains the simulated cycles (or the walk
    gives up with ``hi=None``)."""
    program = random_program(ops, "random")
    interval = timing_map(program, 0, hierarchy, core)
    config = SystemConfig(hierarchy=hierarchy, core=core)
    cycles = run_program(program, config).cycles
    assert interval.lo <= cycles, (ops, interval, cycles)
    assert interval.hi is None or cycles <= interval.hi, (ops, interval, cycles)


@settings(max_examples=150, deadline=None)
@given(
    _random_ops,
    _random_ops,
    st.sampled_from(HIERARCHIES),
    st.sampled_from(CORES),
)
@example(
    # Core 0's load of 0x20000 evicts 0x30000 from the L2; the
    # back-invalidation frees an L1 way before the L1 picks its victim, so
    # 0x10000 survives in core 0's L1 and the next load of it hits.
    [
        ("prefetchw", 0x10080),
        ("prefetchw", 0x100C0),
        ("store", 0x30000),
        ("prefetch", 0x10000),
        ("store", 0x30000),
        ("load", 0x20000),
        ("load", 0x10000),
        ("clflush", 0x20000),
        ("mul", 0x10000),
        ("rdcycle", 0x10000),
    ],
    [("store", 0x20000), ("load", 0x100C0), ("prefetchw", 0x100C0)],
    HIERARCHIES[1],
    CORES[0],
)
@example(
    # Under the hide window two prefetch fills are still in flight when
    # the third prefetch issues: the simulator drops it.
    [
        ("prefetch", 0x10000),
        ("prefetch", 0x10040),
        ("prefetch", 0x10080),
        ("fence", 0x10000),
        ("load", 0x10080),
        ("rdcycle", 0x10000),
    ],
    [],
    HIERARCHIES[0],
    CORES[1],
)
def test_random_two_core_walk_reads_the_simulated_cycles(ops0, ops1, hierarchy, core):
    """The strict product walk either gives up or reproduces every rdcycle
    value both cores store, cycle for cycle, under the simulator's
    interleaving."""
    programs = [
        random_program(ops0, "core0", results=0x300000),
        random_program(ops1, "core1", results=0x310000),
    ]
    config = SystemConfig(num_cores=2, hierarchy=hierarchy, core=core)
    system = build_system(programs, config)
    system.run(max_steps=100_000)
    try:
        outcome = _walk(programs, {}, core, hierarchy, strict=True)
    except _Unresolved:
        return
    for addr, value in outcome.memory.items():
        if addr >= 0x300000:
            assert system.hierarchy.read_word(addr) == value, (ops0, ops1, addr)
