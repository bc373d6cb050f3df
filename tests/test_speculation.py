"""Speculative execution: prediction, transient effects, squash."""

import pytest

from repro.cpu.core import Core, CoreConfig
from repro.isa.assembler import assemble
from repro.mem.hierarchy import MemoryHierarchy

SPEC = CoreConfig(
    speculative_execution=True, resolve_delay=300, spec_window=12,
    branch_miss_penalty=8,
)


def run(source, config=SPEC, max_steps=100000):
    program = assemble(source)
    hierarchy = MemoryHierarchy(num_cores=1)
    hierarchy.memory.load_program_data(program)
    core = Core(0, program, hierarchy, config)
    steps = 0
    while not core.halted:
        core.step()
        steps += 1
        assert steps < max_steps
    return core, hierarchy

# A gadget: branch trained taken 4 times, then the condition flips.
GADGET = """
.data 0x2000 stride=8 0 0 0 0 1
li r10, 0x2000
li r11, 0
li r12, 5
loop:
mul r13, r11, 8
add r13, r10, r13
load r14, 0(r13)          # flag: 0 in-bounds, 1 on the last round
beq r14, zero, safe
jmp skip
safe:
li r20, 0x30000
load r21, 0(r20)          # only reached architecturally when flag==0
skip:
add r11, r11, 1
blt r11, r12, loop
halt
"""


def test_architectural_results_correct_despite_squashes():
    core, _ = run(GADGET)
    assert core.regs.read(11) == 5
    assert core.stats.squashes > 0


def test_transient_cache_footprint_persists():
    core, hierarchy = run(GADGET)
    # The final round mispredicts into `safe` transiently: 0x30000 is
    # cached even though the path was squashed.
    assert hierarchy.l1_contains(0, 0x30000)


def test_transient_register_writes_rolled_back():
    core, _ = run(
        """
        .data 0x2000 stride=8 0 0 0 0 1
        li r10, 0x2000
        li r11, 0
        li r12, 5
        li r25, 42
        loop:
        mul r13, r11, 8
        add r13, r10, r13
        load r14, 0(r13)
        beq r14, zero, safe
        jmp skip
        safe:
        li r25, 1000      # transient on the final round
        skip:
        add r11, r11, 1
        blt r11, r12, loop
        halt
        """
    )
    # On the final (mispredicted) round, li r25 executed transiently and was
    # rolled back; the previous architectural rounds set it to 1000 though.
    # Distinguish by running with flag sequence that never goes in-bounds:
    core2, _ = run(
        """
        .data 0x2000 stride=8 1 1 1 1 1
        li r10, 0x2000
        li r11, 0
        li r12, 5
        li r25, 42
        loop:
        mul r13, r11, 8
        add r13, r10, r13
        load r14, 0(r13)
        beq r14, zero, safe
        jmp skip
        safe:
        li r25, 1000
        skip:
        add r11, r11, 1
        blt r11, r12, loop
        halt
        """
    )
    assert core2.regs.read(25) == 42


def test_transient_stores_dropped():
    core, hierarchy = run(
        """
        .data 0x2000 stride=8 0 0 0 0 1
        li r10, 0x2000
        li r11, 0
        li r12, 5
        li r22, 0x40000
        loop:
        mul r13, r11, 8
        add r13, r10, r13
        load r14, 0(r13)
        beq r14, zero, safe
        jmp skip
        safe:
        li r23, 7
        store r23, 0(r22)
        skip:
        add r11, r11, 1
        blt r11, r12, loop
        halt
        """
    )
    # The first four rounds store architecturally (7); the fifth round's
    # transient store is dropped — value stays 7, and more importantly the
    # run with an always-mispredicting gadget never stores at all:
    assert hierarchy.read_word(0x40000) == 7

    _, hierarchy2 = run(
        """
        li r22, 0x40000
        li r1, 1
        li r2, 2
        blt r2, r1, never
        jmp done
        never:
        li r23, 7
        store r23, 0(r22)
        done:
        halt
        """
    )
    assert hierarchy2.read_word(0x40000) == 0


def test_store_to_load_forwarding_in_transient_window():
    core, _ = run(
        """
        .data 0x2000 stride=8 1
        li r10, 0x2000
        load r14, 0(r10)
        li r22, 0x40000
        li r1, 1
        li r2, 2
        blt r1, r2, taken      # actually taken; predictor cold says NT
        jmp done
        taken:
        jmp done
        done:
        halt
        """
    )
    assert core.halted  # no deadlock from transient paths


def test_mispredict_penalty_applied():
    fast = run("li r1, 1\nli r2, 2\nblt r1, r2, t\nt:\nhalt",
               CoreConfig(speculative_execution=True, resolve_delay=20,
                          branch_miss_penalty=50))[0]
    # Cold predictor says not-taken; branch is taken -> mispredict ->
    # resolve delay + penalty dominate the runtime.
    assert fast.time >= 20 + 50


def test_correct_prediction_costs_one_cycle():
    core, _ = run(
        """
        li r1, 0
        li r2, 1000
        loop:
        add r1, r1, 1
        blt r1, r2, loop
        halt
        """
    )
    # Warm loop branch predicted taken; only the final exit mispredicts.
    assert core.stats.mispredictions <= 3


def test_fence_blocks_transient_progress():
    _, hierarchy = run(
        """
        li r1, 1
        li r2, 2
        blt r2, r1, never     # not taken; cold predictor agrees... force:
        jmp done
        never:
        fence
        li r9, 0x50000
        load r8, 0(r9)
        done:
        halt
        """
    )
    assert not hierarchy.l1_contains(0, 0x50000)


def test_nested_branches_resolve_inline():
    core, _ = run(
        """
        .data 0x2000 stride=8 0 0 0 1
        li r10, 0x2000
        li r11, 0
        li r12, 4
        loop:
        mul r13, r11, 8
        add r13, r10, r13
        load r14, 0(r13)
        beq r14, zero, inner
        jmp skip
        inner:
        beq r11, zero, skip   # a second branch inside the window
        skip:
        add r11, r11, 1
        blt r11, r12, loop
        halt
        """
    )
    assert core.regs.read(11) == 4


# The bounds check is a straight ALU run whose tail, ``beq``, mispredicts on
# the last round: the transient window opens at the end of a superblock.
SUPERBLOCK_GADGET = """
.data 0x2000 stride=8 0 0 0 0 1
li r10, 0x2000
li r11, 0
li r12, 5
loop:
mul r13, r11, 8
add r13, r10, r13
load r14, 0(r13)
mov r15, r14
li r16, 0
xor r17, r15, r16
beq r17, r16, safe
jmp skip
safe:
li r20, 0x30000
mul r22, r14, 64
add r20, r20, r22
load r21, 0(r20)
add r23, r21, 1
skip:
add r11, r11, 1
blt r11, r12, loop
halt
"""


def _run_counting_steps(source, config, per_op):
    program = assemble(source)
    hierarchy = MemoryHierarchy(num_cores=1)
    hierarchy.memory.load_program_data(program)
    core = Core(0, program, hierarchy, config)
    if per_op:
        # No superblock entries: every step dispatches one instruction.
        core._blocks = [None] * len(program.decoded)
    steps = 0
    while not core.halted:
        core.step()
        steps += 1
        assert steps < 100_000
    return core, hierarchy, steps


@pytest.mark.parametrize("spec_window", [2, 5, 12, 48])
@pytest.mark.parametrize("resolve_delay", [6, 300])
def test_mispredicted_superblock_tail_matches_per_op(spec_window, resolve_delay):
    config = CoreConfig(
        speculative_execution=True,
        resolve_delay=resolve_delay,
        spec_window=spec_window,
        branch_miss_penalty=8,
    )
    blocks, block_hierarchy, block_steps = _run_counting_steps(
        SUPERBLOCK_GADGET, config, per_op=False
    )
    per_op, per_op_hierarchy, per_op_steps = _run_counting_steps(
        SUPERBLOCK_GADGET, config, per_op=True
    )
    assert block_steps < per_op_steps
    assert blocks.stats.mispredictions >= 1 and blocks.stats.squashes >= 1
    assert blocks.stats == per_op.stats
    assert blocks.time == per_op.time
    assert blocks.regs.snapshot() == per_op.regs.snapshot()
    assert blocks.snapshot()["tracks"] == per_op.snapshot()["tracks"]
    assert block_hierarchy.l1_contains(0, 0x30000) == per_op_hierarchy.l1_contains(
        0, 0x30000
    )
