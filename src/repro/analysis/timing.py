"""Cycle-bound interval analysis and the differential timing map.

Three layers on top of :mod:`repro.analysis.cachemodel`:

* :func:`analyze_timing` / :func:`cycle_bounds` — abstract interpretation
  of the cache hierarchy over the PR 6 CFG (join at merge points, one
  single-core :class:`~repro.analysis.cachemodel.MultiCoreHierarchyState`
  per block), then a per-block cycle-cost interval combining the core's
  Table III calc-rule costs (``base``/``mul``/``branch`` from
  :class:`~repro.cpu.core.CoreConfig`) with the abstract hit/miss
  classification of every memory access.  Whole-program bounds come from
  shortest/longest path over the block costs: ``lo`` is the cheapest
  entry→halt path, ``hi`` is the dearest — or ``None`` when a reachable
  loop makes the worst case unbounded.
* :func:`timing_variations` — fuses the bounds with PR 8 taint into the
  ``AN-TIMING-VAR`` rule's substrate: a secret-conditioned branch whose
  successor paths differ in minimum remaining cost, or a secret-addressed
  access whose abstract latency interval is not a single point (its
  hit/miss state varies across secrets).
* :func:`timing_map` / :func:`cache_distinguishers` — the dynamic
  counterpart: bind the declared secret cells to one concrete secret and
  *walk* the program with exact register/memory/cache state (the analog
  of :func:`~repro.analysis.taint.leak_map`'s feasible-edges constant
  propagation, extended with the abstract hierarchy and the core's exact
  cost model, including ``rdcycle`` values, countdown-loop fusion and
  fills still in flight).  On a fully resolved walk the abstract cache
  degenerates to exact LRU and the returned interval is a single point —
  which ``tests/test_timing_oracle.py`` pins against the simulator's
  measured cycles for every victim × secret.  :func:`cache_distinguishers`
  runs the walk once per secret and compares the attacker-observable
  must/may block sets at the last secret-addressed access
  (``AN-CACHE-DISTINGUISH``).

The walker, :func:`_walk`, is the package's one interpreter of the ISA: it
also runs the attacker and victim programs of
:mod:`repro.analysis.scenario` as an interleaved product over one shared
hierarchy, under a stricter precision policy.

Scope: the non-speculative semantics the undefended ``Base``
configuration runs (no prefetcher, default :class:`~repro.cpu.core.CoreConfig`).
A speculative core's transient windows are invisible to the architectural
CFG, so :func:`analyze_timing` returns the trivial ``[0, None]`` bound for
one rather than pretend.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.cachemodel import (
    HIT,
    MISS,
    UNKNOWN,
    LatencyInterval,
    MultiCoreHierarchyState,
)
from repro.analysis.cfg import EXIT, ControlFlowGraph, build_cfg
from repro.analysis.dataflow import _transfer
from repro.analysis.taint import TaintAnalysis, _branch_taken, taint_of_program
from repro.cpu.core import CoreConfig
from repro.isa.decode import (
    K_ADD_RI,
    K_BRANCH,
    K_CLFLUSH,
    K_FENCE,
    K_HALT,
    K_JMP,
    K_LOAD,
    K_MUL_RI,
    K_MUL_RR,
    K_PREFETCH,
    K_RDCYCLE,
    K_STORE,
)
from repro.isa.registers import WORD_MASK, ZERO_REGISTER
from repro.mem.hierarchy import HierarchyConfig

Decoded = tuple[tuple[Any, ...], ...]

#: Walk step budget: generous for every bundled program (the largest,
#: spectre training, retires ~10k instructions) while bounding the
#: spin-wait loops of cross-core attackers, which can never exit under
#: single-core walk semantics.
DEFAULT_WALK_STEPS = 200_000

_ACCESS_KINDS = frozenset({K_LOAD, K_STORE, K_CLFLUSH, K_PREFETCH})


@dataclass(frozen=True)
class CycleInterval:
    """Closed cycle-count interval; ``hi is None`` means unbounded/unknown."""

    lo: int
    hi: int | None

    @property
    def exact(self) -> bool:
        return self.hi == self.lo


@dataclass(frozen=True)
class TimingAnalysis:
    """Converged cycle/cache interval analysis of one decoded program."""

    #: Whole-program entry→halt cycle bounds.
    bounds: CycleInterval
    #: Per-block ``(lo, hi)`` cycle cost, in block order.
    block_costs: tuple[tuple[int, int], ...]
    #: Abstract latency interval of every reachable memory access.
    access_latencies: Mapping[int, LatencyInterval]
    #: Minimum remaining cost from each block's start to program exit
    #: (blocks from which no exit is reachable are absent).
    min_to_exit: Mapping[int, int]


_EMPTY_TIMING = TimingAnalysis(
    bounds=CycleInterval(0, 0),
    block_costs=(),
    access_latencies={},
    min_to_exit={},
)

_TRIVIAL_TIMING = TimingAnalysis(
    bounds=CycleInterval(0, None),
    block_costs=(),
    access_latencies={},
    min_to_exit={},
)


def _charged(
    interval: LatencyInterval, config: CoreConfig, serialized: bool
) -> tuple[int, int]:
    """Load/prefetch stall interval under the OoO hide window."""
    hide = config.load_hide_cycles
    if serialized or hide <= 0:
        return interval.lo, interval.hi
    base = config.base_cost
    return (
        max(base, interval.lo - hide),
        max(base, interval.hi - hide),
    )


def _access(
    state: MultiCoreHierarchyState,
    core: int,
    tup: tuple[Any, ...],
    addr: int | None,
    droppable: bool,
) -> LatencyInterval | None:
    """Apply one access to the abstract hierarchy; ``None`` for non-accesses."""
    kind = tup[0]
    if kind == K_LOAD:
        return state.load(core, addr)
    if kind == K_STORE:
        return state.store(core, addr)
    if kind == K_PREFETCH:
        return state.prefetch(core, addr, tup[3], droppable)
    if kind == K_CLFLUSH:
        return state.flush(core, addr)
    return None


def _instruction_cost(
    tup: tuple[Any, ...],
    state: MultiCoreHierarchyState,
    addr: int | None,
    config: CoreConfig,
) -> tuple[int, int, LatencyInterval | None]:
    """``(lo, hi, access interval)`` of one instruction; mutates ``state``."""
    kind = tup[0]
    interval = _access(state, 0, tup, addr, droppable=True)
    if interval is not None:
        if kind in (K_LOAD, K_PREFETCH):
            # The hide window may not apply (a serialising rdcycle/fence can
            # precede any access on some path), so the upper bound stays raw.
            lo, _ = _charged(interval, config, serialized=False)
            return lo, interval.hi, interval
        return interval.lo, interval.hi, interval
    if kind in (K_MUL_RR, K_MUL_RI):
        return config.mul_cost, config.mul_cost, None
    if kind in (K_BRANCH, K_JMP):
        return config.branch_cost, config.branch_cost, None
    return config.base_cost, config.base_cost, None


def _timing_fixpoint(
    decoded: Decoded,
    cfg: ControlFlowGraph,
    resolved: Mapping[int, int],
    hierarchy: HierarchyConfig,
) -> dict[int, MultiCoreHierarchyState]:
    """Per-block abstract hierarchy in-states (forward, join meet).

    In-states only ascend (each update joins into the previous state), and
    the domain over the finite universe of resolved block addresses has
    finite height, so the worklist terminates without widening.
    """
    reachable = set(cfg.reachable)
    in_states = {0: MultiCoreHierarchyState(hierarchy)}
    worklist = [0]
    while worklist:
        index = worklist.pop(0)
        state = in_states[index].copy()
        block = cfg.blocks[index]
        for i in block.instruction_indices():
            _access(state, 0, decoded[i], resolved.get(i), droppable=True)
        for successor in block.successors:
            if successor == EXIT or successor not in reachable:
                continue
            existing = in_states.get(successor)
            if existing is None:
                in_states[successor] = state.copy()
            else:
                joined = existing.join(state)
                if joined == existing:
                    continue
                in_states[successor] = joined
            if successor not in worklist:
                worklist.append(successor)
    return in_states


def _exit_blocks(cfg: ControlFlowGraph) -> set[int]:
    """Blocks where execution leaves the program (halt or fall-off)."""
    return {
        block.index
        for block in cfg.blocks
        if not block.successors or EXIT in block.successors
    }


def _min_to_exit(
    cfg: ControlFlowGraph, cost_lo: Mapping[int, int]
) -> dict[int, int]:
    """Cheapest cost from each block's start through program exit."""
    preds = cfg.predecessors()
    dist: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for index in _exit_blocks(cfg):
        if index in cost_lo:
            heapq.heappush(heap, (cost_lo[index], index))
    while heap:
        cost, index = heapq.heappop(heap)
        if index in dist:
            continue
        dist[index] = cost
        for pred in preds[index]:
            if pred in cost_lo and pred not in dist:
                heapq.heappush(heap, (cost + cost_lo[pred], pred))
    return dist


def _max_from_entry(
    cfg: ControlFlowGraph,
    cost_hi: Mapping[int, int],
    can_exit: Mapping[int, int],
) -> int | None:
    """Dearest entry→exit path cost, or ``None`` if a loop makes it unbounded.

    Only blocks that can still reach an exit count: a cycle among them
    means the worst case is unbounded; otherwise the subgraph is a DAG and
    the longest path is well-defined.
    """
    if 0 not in can_exit:
        return None
    alive = frozenset(can_exit) & frozenset(cost_hi)
    live = sorted(alive)
    succs = {
        index: tuple(
            s
            for s in cfg.blocks[index].successors
            if s != EXIT and s in alive
        )
        for index in live
    }
    indegree = {index: 0 for index in live}
    for targets in succs.values():
        for s in targets:
            indegree[s] += 1
    order: list[int] = [i for i, d in indegree.items() if d == 0]
    topo: list[int] = []
    while order:
        index = order.pop()
        topo.append(index)
        for s in succs[index]:
            indegree[s] -= 1
            if indegree[s] == 0:
                order.append(s)
    if len(topo) != len(live):
        return None  # a cycle survives among exit-reaching blocks
    longest: dict[int, int] = {}
    for index in reversed(topo):
        tail = max(
            (longest[s] for s in succs[index]), default=0
        )
        longest[index] = cost_hi[index] + tail
    return longest.get(0)


def analyze_timing(
    decoded: Decoded,
    cfg: ControlFlowGraph,
    core: CoreConfig | None = None,
    hierarchy: HierarchyConfig | None = None,
) -> TimingAnalysis:
    """Abstract cache + cycle-interval analysis over a built CFG."""
    from repro.analysis.dataflow import constant_addresses

    config = core or CoreConfig()
    if config.speculative_execution:
        # Transient windows re-order and replay work invisibly to the
        # architectural CFG; no non-trivial static bound is sound.
        return _TRIVIAL_TIMING
    if not cfg.blocks:
        return _EMPTY_TIMING
    hconfig = hierarchy or HierarchyConfig()
    resolved = constant_addresses(decoded, cfg)
    in_states = _timing_fixpoint(decoded, cfg, resolved, hconfig)

    cost_lo: dict[int, int] = {}
    cost_hi: dict[int, int] = {}
    access_latencies: dict[int, LatencyInterval] = {}
    for block in cfg.blocks:
        entry = in_states.get(block.index)
        if entry is None:
            continue  # unreachable
        state = entry.copy()
        lo = hi = 0
        for i in block.instruction_indices():
            ilo, ihi, interval = _instruction_cost(
                decoded[i], state, resolved.get(i), config
            )
            lo += ilo
            hi += ihi
            if interval is not None:
                access_latencies[i] = interval
        cost_lo[block.index] = lo
        cost_hi[block.index] = hi

    min_exit = _min_to_exit(cfg, cost_lo)
    bound_lo = min_exit.get(0, 0)
    bound_hi = _max_from_entry(cfg, cost_hi, min_exit)
    return TimingAnalysis(
        bounds=CycleInterval(bound_lo, bound_hi),
        block_costs=tuple(
            (cost_lo.get(b.index, 0), cost_hi.get(b.index, 0))
            for b in cfg.blocks
        ),
        access_latencies=access_latencies,
        min_to_exit=min_exit,
    )


def cycle_bounds(
    program: Any,
    core: CoreConfig | None = None,
    hierarchy: HierarchyConfig | None = None,
) -> TimingAnalysis:
    """Convenience wrapper: timing analysis of a finalized Program."""
    decoded = tuple(program.decoded)
    return analyze_timing(decoded, build_cfg(decoded), core, hierarchy)


# -- AN-TIMING-VAR substrate ----------------------------------------------------


def timing_variations(
    cfg: ControlFlowGraph,
    taint: TaintAnalysis,
    timing: TimingAnalysis,
) -> tuple[tuple[int, str], ...]:
    """``(instruction index, message)`` pairs for the AN-TIMING-VAR rule.

    Fires on every secret-conditioned branch (with the minimum remaining
    cycle-cost delta between its successor paths — the statically provable
    floor of the control-flow channel) and on every secret-addressed
    access whose abstract latency interval is not a single point (its
    hit/miss classification varies across secrets).
    """
    variations: list[tuple[int, str]] = []
    for index in taint.branches:
        block = cfg.blocks[cfg.block_of[index]]
        costs: list[int | None] = []
        if block.end - 1 == index:
            for successor in block.successors:
                if successor == EXIT:
                    costs.append(0)
                else:
                    costs.append(timing.min_to_exit.get(successor))
        if len(costs) >= 2 and all(c is not None for c in costs):
            known = [c for c in costs if c is not None]
            delta = max(known) - min(known)
            detail = f"successor paths differ by >= {delta} cycle(s)"
        else:
            detail = "a successor path has no bounded remaining cost"
        variations.append(
            (
                index,
                "branch on a secret steers timing-distinguishable paths "
                f"({detail})",
            )
        )
    for access in taint.accesses:
        if not access.addressed:
            continue
        interval = timing.access_latencies.get(access.index)
        if interval is not None and not interval.exact:
            variations.append(
                (
                    access.index,
                    f"secret-addressed {access.kind} may hit or miss: "
                    f"abstract latency {interval.lo}..{interval.hi} cycle(s)",
                )
            )
    variations.sort()
    return tuple(variations)


# -- exact walk (timing_map / cache distinguishers / certify) -------------------


class _Unresolved(Exception):
    """The walk lost precision (gave up); a strict caller's verdict is UNKNOWN."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Core:
    """One program's walk context: registers, pc, local time interval."""

    __slots__ = ("core_id", "decoded", "regs", "pc", "lo", "hi", "serialized")

    def __init__(self, core_id: int, decoded: Decoded) -> None:
        self.core_id = core_id
        self.decoded = decoded
        self.regs: dict[int, int] = {ZERO_REGISTER: 0}
        self.pc = 0
        self.lo = 0
        self.hi = 0
        self.serialized = False


@dataclass
class _WalkOutcome:
    """Result of one walk; the interval is core 0's."""

    lo: int
    #: ``None`` when the walk gave up.
    hi: int | None
    #: ``(instruction index, observable)`` at each watched access of core
    #: 0, in execution order.
    snapshots: list[tuple[int, tuple[Any, ...]]]
    #: Hierarchy state at halt (``None`` when the walk gave up).
    final: MultiCoreHierarchyState | None
    #: Shared word store at the end of the walk.
    memory: dict[int, int | None]


def _initial_memory(
    programs: Sequence[Any], bindings: Mapping[int, int]
) -> dict[int, int | None]:
    """Shared word store at t=0: every program's data segments, in order,
    overlaid with the secret bindings.

    Mirrors :func:`repro.sim.simulator.build_system` loading each program's
    data into the one shared main memory, plus the snapshot-replay path's
    per-trial secret poke.
    """
    memory: dict[int, int | None] = {}
    for program in programs:
        for segment in program.data_segments:
            for offset, value in enumerate(segment.values):
                memory[segment.base + offset * segment.stride] = value & WORD_MASK
    for address, value in bindings.items():
        memory[address] = value & WORD_MASK
    return memory


#: ``(level, block) -> (ready time, exact, prefetch)`` of each fill the
#: simulator may still have in flight: the level is a core id for that
#: core's L1 and ``-1`` for the shared L2; block ``None`` is an unresolved
#: address; ``prefetch`` marks a software prefetch's fill.
_Fills = dict[tuple[int, int | None], tuple[int, bool, bool]]


def _in_flight(
    shared: MultiCoreHierarchyState,
    fills: _Fills,
    core: int,
    block: int | None,
    now_lo: int,
    now_hi: int,
    prefetch: bool,
) -> int:
    """Extra cycles an access pays for meeting a fill still in flight.

    The abstract hierarchy lands every fill at once; the simulator inserts
    the line at issue and the data arrives later.  A tag hit on a line
    still in flight pays ``max(hit latency, ready - now)`` at that level,
    as :meth:`repro.mem.cache.Cache.access` does.  Every other meeting — an
    MSHR merge on a line evicted while in flight, MSHR back-pressure (for
    a software prefetch: another prefetch fill of its core in flight, which
    may leave no prefetch slot and get it dropped), an inexact time — is
    not modelled and raises :class:`_Unresolved`.  Call before the access
    mutates ``shared``: it records the fill the access starts.
    """
    for key in [key for key, (ready, _, _) in fills.items() if ready <= now_lo]:
        del fills[key]
    config = shared.config
    exact = now_lo == now_hi
    l1_class = UNKNOWN if block is None else shared.l1s[core].classify(block)
    l2_class = UNKNOWN if block is None else shared.l2.classify(block)
    levels = [level for level, _ in fills]
    if l1_class != HIT and (
        levels.count(core) >= config.mshr_entries
        or levels.count(-1) >= config.mshr_entries * shared.num_cores
        or (prefetch and any(fills[key][2] for key in fills if key[0] == core))
    ):
        raise _Unresolved(f"core {core}: MSHR back-pressure not modelled")
    if fills and (block is None or any(b is None for _, b in fills)):
        raise _Unresolved(f"core {core}: unresolved access meets a fill")
    shift = 0
    own = fills.get((core, block))
    below = fills.get((-1, block))
    if own is not None:
        if l1_class != HIT or not (exact and own[1]):
            raise _Unresolved(f"core {core}: in-flight L1 fill not modelled")
        shift = max(0, own[0] - now_lo - config.l1_hit_latency)
    elif below is not None and l1_class != HIT:
        if l1_class != MISS or l2_class != HIT or not (exact and below[1]):
            raise _Unresolved(f"core {core}: in-flight L2 fill not modelled")
        shift = max(0, below[0] - now_lo - shared.l2_latency)
    if l1_class != HIT:
        latency = shared.l2_latency if l2_class == HIT else shared.memory_latency
        ready = now_hi + latency + shift
        exact = exact and l1_class == MISS
        fills[(core, block)] = (ready, exact and l2_class != UNKNOWN, prefetch)
        if l2_class != HIT:
            fills[(-1, block)] = (ready, exact and l2_class == MISS, prefetch)
    return shift


def _unknown_register(core: _Core, index: int, pc: int) -> _Unresolved:
    return _Unresolved(f"core {core.core_id}: register r{index} unknown at pc {pc}")


def _walk(
    programs: Sequence[Any],
    bindings: Mapping[int, int],
    config: CoreConfig,
    hconfig: HierarchyConfig,
    *,
    strict: bool,
    watch: frozenset[int] = frozenset(),
    max_steps: int = DEFAULT_WALK_STEPS,
) -> _WalkOutcome:
    """Execute one program per core over one shared abstract hierarchy.

    Mirrors :class:`repro.cpu.core.Core`'s non-speculative semantics
    instruction for instruction — including ``rdcycle`` reading the
    current cycle, the serialising flag, the OoO hide window and
    countdown-loop fusion — with exact registers, memory and local time,
    and schedules the cores as :meth:`repro.cpu.system.System.run_steps`
    does: the non-halted core with the smallest local time executes next,
    strict ``<`` keeping the lower-index core on ties.  Under exact times
    the schedule is the one the simulator runs.

    The precision policy is the caller's:

    * widen (``strict=False``, one program): unknown values propagate, an
      unresolved address havocs the hierarchy and widens the time
      interval, and software prefetches are droppable.  A branch over an
      unknown value, a PC escape, step exhaustion or an unmodelled meeting
      with a fill in flight (:func:`_in_flight`) gives up (``hi=None``).
    * raise (``strict=True``): any precision loss — an unknown register, a
      widened latency, a give-up — raises :class:`_Unresolved`, and
      software prefetches are completing fills that honour ``prefetchw``
      (:func:`_in_flight` gives up where a prefetch slot may be taken).
    """
    if not strict and len(programs) != 1:
        raise ValueError("a widening walk has exactly one program")
    shared = MultiCoreHierarchyState(hconfig, num_cores=len(programs))
    memory = _initial_memory(programs, bindings)
    snapshots: list[tuple[int, tuple[Any, ...]]] = []
    cores = [_Core(index, tuple(p.decoded)) for index, p in enumerate(programs)]
    active = [core for core in cores if core.decoded]
    clobbered = False
    base = config.base_cost
    branch_cost = config.branch_cost
    mul_cost = config.mul_cost
    fuse = config.fuse_countdown_loops and not config.speculative_execution
    block_bits = shared.block_bits
    nonblocking = hconfig.nonblocking_stores
    fills: _Fills = {}
    budget = steps = max_steps * len(cores)
    time_lo = 0
    try:
        while active:
            core = min(active, key=lambda c: c.lo)
            # Run ``core`` while the scheduler would keep picking it: ahead
            # of every lower-index core, not behind any higher-index one.
            position = active.index(core)
            limit = min(
                [c.lo - 1 for c in active[:position]]
                + [c.lo for c in active[position + 1:]],
                default=None,
            )
            cid = core.core_id
            decoded = core.decoded
            n = len(decoded)
            regs = core.regs
            get = regs.get
            pc = core.pc
            time_lo = core.lo
            time_hi = core.hi
            serialized = core.serialized
            halted = False
            while limit is None or time_lo <= limit:
                if steps == 0:
                    raise _Unresolved(
                        f"product walk exhausted {budget} steps with "
                        f"{len(active)} core(s) still running"
                    )
                steps -= 1
                if not 0 <= pc < n:
                    raise _Unresolved(f"core {cid}: pc {pc} escaped the program")
                tup = decoded[pc]
                kind = tup[0]
                if kind in _ACCESS_KINDS:
                    at = 2 if kind == K_LOAD or kind == K_STORE else 1
                    bval = get(tup[at])
                    if bval is None and strict:
                        raise _unknown_register(core, tup[at], pc)
                    addr = None if bval is None else (bval + tup[at + 1]) & WORD_MASK
                    if kind == K_STORE:
                        value = get(tup[1])
                        if value is None and strict:
                            raise _unknown_register(core, tup[1], pc)
                        if addr is None:
                            clobbered = True
                        else:
                            memory[addr] = value
                    shift = 0
                    if kind != K_CLFLUSH:
                        block = None if addr is None else addr >> block_bits
                        shift = _in_flight(
                            shared, fills, cid, block, time_lo, time_hi,
                            prefetch=kind == K_PREFETCH,
                        )
                        if kind == K_STORE and nonblocking:
                            shift = 0
                    interval = _access(shared, cid, tup, addr, not strict)
                    assert interval is not None
                    if shift:
                        interval = LatencyInterval(
                            interval.lo + shift, interval.hi + shift
                        )
                    lo, hi = interval.lo, interval.hi
                    if kind == K_LOAD or kind == K_PREFETCH:
                        lo, hi = _charged(interval, config, serialized)
                        serialized = False
                    if strict and lo != hi:
                        raise _Unresolved(
                            f"core {cid}: access latency widened to "
                            f"{lo}..{hi} at pc {pc}"
                        )
                    time_lo += lo
                    time_hi += hi
                    if kind == K_LOAD and tup[1] != ZERO_REGISTER:
                        loaded = (
                            None
                            if addr is None or clobbered
                            else memory.get(addr, 0)
                        )
                        if loaded is None:
                            regs.pop(tup[1], None)
                        else:
                            regs[tup[1]] = loaded & WORD_MASK
                    if pc in watch:
                        snapshots.append((pc, shared.observable(cid)))
                    pc += 1
                elif kind == K_BRANCH:
                    _, cond, rs0, rs1, target = tup
                    a = get(rs0)
                    b = get(rs1)
                    if strict and (a is None or b is None):
                        raise _unknown_register(core, rs0 if a is None else rs1, pc)
                    if not isinstance(target, int) or not 0 <= target < n:
                        raise _Unresolved(
                            f"core {cid}: branch target {target!r} invalid"
                        )
                    if a is None or b is None:
                        raise _Unresolved(f"core {cid}: branch on unknown value")
                    taken = _branch_taken(cond, a, b)
                    time_lo += branch_cost
                    time_hi += branch_cost
                    if (
                        fuse
                        and taken
                        and target == pc - 1
                        and cond == 1
                        and rs1 == ZERO_REGISTER
                        and rs0 != ZERO_REGISTER
                    ):
                        # Countdown fusion is schedule-safe: the fused
                        # window executes only register arithmetic, so the
                        # other cores observe identical shared state.
                        prev = decoded[pc - 1]
                        if (
                            prev[0] == K_ADD_RI
                            and prev[1] == rs0
                            and prev[2] == rs0
                            and prev[3] == WORD_MASK
                            and a - 1 > 0
                        ):
                            regs[rs0] = 1
                            jump = (a - 1) * (base + branch_cost)
                            time_lo += jump
                            time_hi += jump
                    pc = target if taken else pc + 1
                elif kind == K_JMP:
                    target = tup[1]
                    if not isinstance(target, int) or not 0 <= target < n:
                        raise _Unresolved(
                            f"core {cid}: jump target {target!r} invalid"
                        )
                    time_lo += branch_cost
                    time_hi += branch_cost
                    pc = target
                elif kind == K_HALT:
                    time_lo += base
                    time_hi += base
                    halted = True
                    break
                elif kind == K_RDCYCLE or kind == K_FENCE:
                    if kind == K_RDCYCLE and tup[1] != ZERO_REGISTER:
                        if time_lo == time_hi:
                            regs[tup[1]] = time_lo & WORD_MASK
                        else:
                            regs.pop(tup[1], None)
                    serialized = True
                    time_lo += base
                    time_hi += base
                    pc += 1
                else:
                    _transfer(regs, tup)
                    cost = mul_cost if kind in (K_MUL_RR, K_MUL_RI) else base
                    time_lo += cost
                    time_hi += cost
                    pc += 1
            core.pc = pc
            core.lo = time_lo
            core.hi = time_hi
            core.serialized = serialized
            if halted:
                active.remove(core)
    except _Unresolved:
        if strict:
            raise
        return _WalkOutcome(time_lo, None, snapshots, None, memory)
    first = cores[0]
    return _WalkOutcome(first.lo, first.hi, snapshots, shared, memory)


def _secret_bindings(program: Any, secret: int) -> dict[int, int]:
    return {
        address: secret & WORD_MASK
        for address in sorted(program.taint_sources)
    }


def timing_map(
    program: Any,
    secret: int,
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    *,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> CycleInterval:
    """Cycle interval of ``program`` when its declared secrets equal ``secret``.

    The analog of :func:`~repro.analysis.taint.leak_map`: every declared
    taint-source cell is bound to ``secret`` (overriding the data-segment
    value, exactly as snapshot replay pokes trial secrets into a warm
    image) and the program is walked concretely.  When every branch and
    address resolves, the abstract hierarchy tracks the simulator's LRU
    exactly and the result is a point interval equal to the undefended
    run's ``RunResult.cycles``; an unresolved step returns ``hi=None``
    with a sound lower bound instead.
    """
    config = core or CoreConfig()
    if config.speculative_execution:
        return CycleInterval(0, None)
    if not program.decoded:
        return CycleInterval(0, 0)
    outcome = _walk(
        [program],
        _secret_bindings(program, secret),
        config,
        hierarchy or HierarchyConfig(),
        strict=False,
        max_steps=max_steps,
    )
    return CycleInterval(outcome.lo, outcome.hi)


@dataclass(frozen=True)
class DistinguisherReport:
    """AN-CACHE-DISTINGUISH verdict over one program's secret space."""

    #: Secrets whose walks were compared.
    secrets: tuple[int, ...]
    #: Two secrets yield different attacker-observable residency sets.
    distinguishable: bool
    #: A distinguishing secret pair (first found), or ``None``.
    witness: tuple[int, int] | None
    #: Instruction anchor: the last secret-addressed access executed for
    #: the witness pair's first secret (``None`` for a halt-state verdict).
    index: int | None
    #: One-line human-readable explanation.
    detail: str


def cache_distinguishers(
    program: Any,
    secrets: Sequence[int] = (0, 1, 2, 3),
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    *,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> DistinguisherReport:
    """Compare attacker-observable cache residency across concrete secrets.

    The observable is the attacker's side of the channel: the must/may
    block sets of both levels, sampled right after the victim's last
    secret-addressed access executes (a taint-clean program falls back to
    the halt state, where a genuinely constant-time program converges for
    every secret).  Two secrets with different observables mean a shared
    cache level distinguishes them — the AN-CACHE-DISTINGUISH verdict.
    """
    secret_tuple = tuple(dict.fromkeys(secrets))

    def indistinct(detail: str) -> DistinguisherReport:
        return DistinguisherReport(
            secrets=secret_tuple,
            distinguishable=False,
            witness=None,
            index=None,
            detail=detail,
        )

    config = core or CoreConfig()
    if config.speculative_execution or len(secret_tuple) < 2:
        return indistinct(
            "not evaluated (needs >= 2 secrets, non-speculative core)"
        )
    watch = frozenset(taint_of_program(program).secret_addressed())
    observed: list[tuple[int, tuple[int | None, tuple[Any, ...]]]] = []
    for secret in secret_tuple:
        outcome = _walk(
            [program],
            _secret_bindings(program, secret),
            config,
            hierarchy or HierarchyConfig(),
            strict=False,
            watch=watch,
            max_steps=max_steps,
        )
        if outcome.snapshots:
            observed.append((secret, outcome.snapshots[-1]))
        elif outcome.final is not None:
            observed.append((secret, (None, outcome.final.observable(0))))
        else:
            return indistinct(f"walk for secret {secret} did not resolve")
    first_secret, (first_index, first_state) = observed[0]
    for secret, (index, observable) in observed[1:]:
        if observable != first_state or index != first_index:
            return DistinguisherReport(
                secrets=secret_tuple,
                distinguishable=True,
                witness=(first_secret, secret),
                index=first_index if first_index is not None else index,
                detail=(
                    f"secrets {first_secret} and {secret} leave different "
                    "must/may residency in a shared cache level"
                ),
            )
    return indistinct(
        f"all {len(secret_tuple)} secrets converge to one "
        "attacker-observable residency state"
    )


def trial_intervals(
    program: Any,
    secrets: Sequence[int],
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    *,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> dict[int, CycleInterval]:
    """:func:`timing_map` over a secret set (the CLI's per-secret table)."""
    return {
        secret: timing_map(
            program, secret, hierarchy, core, max_steps=max_steps
        )
        for secret in dict.fromkeys(secrets)
    }
