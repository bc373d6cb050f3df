"""Warm snapshot replay for scenario trial grids.

A scenario cell runs the *same* attack × victim × defense system once per
trial secret, and the only input that differs between trials is the one
data word every attack writes at ``AttackLayout.secret_addr`` (the victim
loads its secret from there; see :mod:`repro.workloads.crypto`).  Execution
is therefore bit-identical across trials up to the victim's first load of
that word: the attacker's whole prepare phase, the cross-core handshake,
the program build and the system construction are all shared prefix.

:func:`replay_group` exploits that: it builds the cell's system once, runs
it up to (but not including) the first demand load of the secret word,
snapshots, and then serves every trial by ``restore -> poke(secret) ->
run-to-completion -> classify``.  The memory patch is sound because cache
lines carry metadata only — data values are always read from
``MainMemory`` at access time — and :meth:`MainMemory.poke` leaves the
read/write counters untouched, so a replayed trial is state-for-state
identical to a rebuilt one (``tests/test_scenarios.py`` pins byte
equality; ``tests/test_snapshot_parity.py`` proves the underlying
snapshot/restore protocol cycle-exact).

Eligibility is conservative: only ``victim_mode == "direct"`` trials
replay (the spectre transient victim reads a different address under
speculation); anything else falls back to the per-job rebuild path in
:func:`repro.runner.executor.run_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.cpu.system import System
from repro.errors import SimulationError
from repro.isa.decode import K_LOAD
from repro.isa.registers import WORD_MASK

if TYPE_CHECKING:
    from repro.runner.job import ScenarioJob, ScenarioProbe


def replay_eligible(job: ScenarioJob) -> bool:
    """True when ``job`` (a ScenarioJob) can be served off a warm snapshot."""
    return job.options.victim_mode == "direct"


def replay_group_key(job: ScenarioJob) -> str:
    """Content key of a trial's cell: the job with its secret neutralised.

    Two jobs share a warm snapshot iff they differ *only* in the trial
    secret; deriving the group key through the same structural fingerprint
    as :func:`repro.runner.job.job_key` means any new config field splits
    groups automatically instead of silently sharing a stale image.
    """
    from repro.runner.job import job_key

    return job_key(replace(job, options=replace(job.options, secret=0)))


@dataclass(frozen=True)
class ScenarioReplayJob:
    """One warm-snapshot task: a cell's trial jobs served off one image.

    Shaped like any other runner job (``run()``) so it rides the existing
    pool/inline backends, but ``run`` returns one ``ScenarioProbe`` *per
    member job*, in member order; the executor fans the list back out to
    the members' content keys (which also feed the disk store, so replayed
    probes cache exactly like rebuilt ones).  The group task itself is
    never stored — its members are, per key.
    """

    jobs: tuple[ScenarioJob, ...]

    def run(self) -> list[ScenarioProbe]:
        return replay_group(list(self.jobs))


def replay_group(jobs: list[ScenarioJob]) -> list[ScenarioProbe]:
    """Serve a cell's trials off one warmed snapshot, in input order.

    Each trial's run gets what is left of the job's ``max_steps`` budget
    (scheduler steps) after the shared warm-up, so a replayed trial
    exhausts it exactly where a rebuilt one would.
    """
    from repro.runner.job import ATTACK_KINDS

    base = jobs[0]
    attack_cls = ATTACK_KINDS[base.attack]
    attack = attack_cls(base.options)
    system, config = attack.prepare(base.system)
    watch = attack.layout.secret_addr
    warm_steps = _run_to_watch(system, watch, base.max_steps)
    image = system.snapshot()
    budget = base.max_steps - warm_steps
    probes: list[ScenarioProbe] = []
    for job in jobs:
        system.restore(image)
        system.hierarchy.memory.poke(watch, job.options.secret)
        result = system.run(max_steps=budget)
        trial_attack = attack_cls(job.options)
        outcome = trial_attack.classify(system, config, result)
        probes.append(job.probe_from_outcome(outcome))
    return probes


def _run_to_watch(system: System, watch: int, max_steps: int) -> int:
    """Advance the system to just before the first demand load of ``watch``.

    Steps cores in the scheduler's order (min local time, ties to the
    lower core index) and stops *before* executing a ``load`` whose
    effective address is ``watch`` — the first instruction whose outcome
    can depend on the secret value.  Returns the steps taken; if every
    core halts without touching ``watch`` the secret is dead and the
    end state itself is a valid (trivial) snapshot point.

    ``max_steps`` and the count returned are scheduler steps, as in
    :meth:`System.run`: a superblock (a straight-line ALU run and its
    trailing branch) or a fused countdown loop is one step.  Loads are
    always steps of their own, so the stop point is never inside one.
    """
    steps = 0
    active = [core for core in system.cores if not core.halted]
    while active:
        core = active[0]
        for candidate in active[1:]:
            # Strict < keeps the earlier (lower-index) core on ties.
            if candidate.time < core.time:
                core = candidate
        instruction = core._decoded[core.pc_index]
        if instruction[0] == K_LOAD and not core._speculating:
            addr = (core._values[instruction[2]] + instruction[3]) & WORD_MASK
            if addr == watch:
                return steps
        core.step()
        steps += 1
        if core.halted:
            active = [c for c in active if not c.halted]
        if steps >= max_steps:
            raise SimulationError(
                f"exceeded {max_steps} scheduler steps warming a scenario "
                "snapshot; a program probably fails to halt"
            )
    return steps
