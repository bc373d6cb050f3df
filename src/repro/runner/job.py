"""Canonical simulation jobs with lossless, content-addressed keys.

The experiment layer used to memoise runs behind a hand-written tuple key
that encoded a handful of ``PrefenderConfig`` fields and silently rebuilt
the rest from defaults — any sweep varying a non-encoded knob (e.g.
``at_threshold``) read back cycles for the wrong configuration.  The job
key here is derived *structurally*: :func:`fingerprint` walks every
``dataclasses.fields`` entry of the full ``SystemConfig`` tree (prefetcher
spec, PREFENDER knobs, core timing, hierarchy geometry), so a newly added
config field participates in the key automatically and can never fall out
of it again (``tests/test_runner.py`` asserts this field-by-field).

Two job kinds cover everything the experiments run, and both return
JSON-serialisable results, so every result can live in the on-disk store:

* :class:`SimJob` — one workload program on one system config
  (:func:`repro.sim.simulator.run_program`); returns a :class:`SimResult`.
* :class:`ScenarioJob` — one attack (by registry name) against one system
  config, optionally on a crypto victim for one trial secret
  (:mod:`repro.attacks.scenarios` builds those grids).  Its
  :class:`ScenarioProbe` scores the candidate set against the victim's
  *expected access footprint* (the paper's direct victim touches only the
  secret's index; multi-line victims are recovered when the attacker
  isolates exactly those lines) and keeps the raw latencies, so the
  leakage scorer can estimate mutual information.

Callers that need a full :class:`~repro.cpu.system.RunResult` (Fig. 9's
prefetch timelines) run the attack class directly instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.attacks import (
    AdversarialPrefetchA1,
    AdversarialPrefetchA2,
    AttackOutcome,
    CacheAttack,
    EvictReloadAttack,
    EvictTimeAttack,
    FlushReloadAttack,
    PrimeProbeAttack,
)
from repro.attacks.base import verdict_line
from repro.attacks.layout import AttackOptions
from repro.cpu.system import RunResult
from repro.errors import ConfigError, SimulationError
from repro.isa.program import Program
from repro.sim.config import SystemConfig
from repro.sim.simulator import run_program
from repro.workloads import get_workload

#: Bump when the key schema or the simulator's observable semantics change;
#: invalidates every on-disk store entry at once.
#: v2: Record Protector idle-expiry sweep, MSHR demand-priority prefetch
#: squash and Baer–Chen stride confidence gating all shift cycle counts;
#: SimResult additionally grew ``defense_stats``.
KEY_VERSION = 2

#: Attack registry names (shared with the CLI's ``attack`` command).
ATTACK_KINDS: dict[str, type[CacheAttack]] = {
    "flush-reload": FlushReloadAttack,
    "evict-reload": EvictReloadAttack,
    "prime-probe": PrimeProbeAttack,
    "evict-time": EvictTimeAttack,
    "adversarial-prefetch-a1": AdversarialPrefetchA1,
    "adversarial-prefetch-a2": AdversarialPrefetchA2,
}

#: Family name the CLI expands to every adversarial-prefetch variant.
ADVERSARIAL_PREFETCH_FAMILY = "adversarial-prefetch"
ADVERSARIAL_PREFETCH_VARIANTS = {
    "a1": "adversarial-prefetch-a1",
    "a2": "adversarial-prefetch-a2",
}


def fingerprint(value: object) -> object:
    """Canonical JSON-able projection of a job or config value.

    Dataclasses contribute *every* field (via ``dataclasses.fields``) plus
    their class name; containers recurse; scalars pass through.  Anything
    unrecognised is an error — silence here is exactly the bug this module
    replaces.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict[str, object] = {"__class__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = fingerprint(getattr(value, f.name))
        return out
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [fingerprint(item) for item in value]
    if isinstance(value, dict):
        return {str(key): fingerprint(val) for key, val in sorted(value.items())}
    raise ConfigError(
        f"cannot fingerprint {type(value).__name__!r} into a job key"
    )


def job_key(job: object) -> str:
    """Content hash of a job: sha256 over its canonical JSON fingerprint."""
    blob = json.dumps(
        {"version": KEY_VERSION, "job": fingerprint(job)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SimResult:
    """JSON-serialisable summary of one simulation run.

    Everything the performance tables and figures read; prefetch timelines
    are deliberately excluded (they are large, and their only consumer —
    Fig. 9 — runs its attacks directly, outside the runner).
    """

    cycles: int
    instructions: int
    core_cycles: list[int]
    core_instructions: list[int]
    l1d_stats: list[dict[str, int]]
    l2_stats: dict[str, int]
    prefetch_counts: list[dict[str, int]]
    samples: list[tuple[int, int]] = field(default_factory=list)
    defense_stats: list[dict[str, int]] = field(default_factory=list)

    @classmethod
    def from_run(cls, result: RunResult) -> "SimResult":
        return cls(
            cycles=result.cycles,
            instructions=result.instructions,
            core_cycles=list(result.core_cycles),
            core_instructions=list(result.core_instructions),
            l1d_stats=[dict(stats) for stats in result.l1d_stats],
            l2_stats=dict(result.l2_stats),
            prefetch_counts=[dict(counts) for counts in result.prefetch_counts],
            samples=[(int(step), int(value)) for step, value in result.samples],
            defense_stats=[dict(stats) for stats in result.defense_stats],
        )

    def to_json(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["samples"] = [[step, value] for step, value in self.samples]
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SimResult":
        return cls(
            cycles=data["cycles"],
            instructions=data["instructions"],
            core_cycles=list(data["core_cycles"]),
            core_instructions=list(data["core_instructions"]),
            l1d_stats=[dict(stats) for stats in data["l1d_stats"]],
            l2_stats=dict(data["l2_stats"]),
            prefetch_counts=[dict(counts) for counts in data["prefetch_counts"]],
            samples=[(step, value) for step, value in data["samples"]],
            defense_stats=[
                {str(key): int(value) for key, value in stats.items()}
                for stats in data.get("defense_stats", [])
            ],
        )


@dataclass(frozen=True)
class SimJob:
    """One workload program on one fully specified system configuration.

    Attributes:
        workload: registry name from :mod:`repro.workloads`.
        scale: loop-count multiplier (> 0); 1.0 is the paper's size.
        system: the full :class:`~repro.sim.config.SystemConfig` — every
            field participates in :meth:`key`.
        sample_interval: record a sample at every multiple of N retired
            instructions, summed over cores (``None`` disables sampling;
            figure 12 uses it); see :meth:`repro.cpu.system.System.run`.
        max_steps: simulation step budget (guards runaway programs).  It
            counts scheduler steps, and a superblock (a straight-line ALU
            run and its trailing branch) or a fused countdown loop is one
            step.
    """

    workload: str
    scale: float = 1.0
    system: SystemConfig = field(default_factory=SystemConfig)
    sample_interval: int | None = None
    max_steps: int = 20_000_000

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError(f"workload scale must be > 0, got {self.scale}")

    def key(self) -> str:
        return job_key(self)

    def program_key(self) -> tuple[str, float]:
        """What :meth:`build_program` depends on: jobs with equal keys run
        the same program, so a batch may build it once and share it."""
        return (self.workload, self.scale)

    def build_program(self) -> Program:
        return get_workload(self.workload).program(self.scale)

    def run(self, program: Program | None = None) -> SimResult:
        """Simulate the workload; ``program`` is a prebuilt
        :meth:`build_program` result to reuse (a run never modifies it)."""
        if program is None:
            program = self.build_program()
        try:
            result = run_program(
                program,
                self.system,
                max_steps=self.max_steps,
                sample_interval=self.sample_interval,
            )
        except SimulationError as exc:
            raise _named_error(self.workload, self, exc) from exc
        return SimResult.from_run(result)


@dataclass
class ScenarioProbe:
    """JSON-serialisable outcome of one attack × victim × defense trial.

    ``expected`` is the victim's secret-dependent access footprint (from
    :meth:`repro.workloads.crypto.CryptoVictim.expected_indices`);
    ``succeeded`` means the attacker's candidate set singled out exactly
    that footprint.  ``latencies`` keeps the per-index measurements so
    :mod:`repro.attacks.leakage` can estimate the mutual information
    between the secret and the attacker's observable, and
    ``defense_stats`` carries the per-core PREFENDER counters (protection
    lifecycle, buffer starvation) of the run.
    """

    attack: str
    victim: str
    challenges: str
    secret: int
    expected: list[int]
    candidates: list[int]
    latencies: list[int]
    succeeded: bool
    cycles: int
    defense_stats: list[dict[str, int]]

    def summary(self, defense_label: str) -> str:
        """One verdict line, in :meth:`AttackOutcome.summary`'s format."""
        return verdict_line(
            ATTACK_KINDS[self.attack].name,
            self.challenges,
            defense_label,
            self.succeeded,
            self.candidates,
            self.secret,
        )

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ScenarioProbe":
        return cls(
            attack=str(data["attack"]),
            victim=str(data["victim"]),
            challenges=str(data["challenges"]),
            secret=int(data["secret"]),
            expected=[int(index) for index in data["expected"]],
            candidates=[int(index) for index in data["candidates"]],
            latencies=[int(latency) for latency in data["latencies"]],
            succeeded=bool(data["succeeded"]),
            cycles=int(data["cycles"]),
            defense_stats=[
                {str(key): int(value) for key, value in stats.items()}
                for stats in data.get("defense_stats", [])
            ],
        )


def _named_error(
    what: str, job: "SimJob | ScenarioJob", exc: SimulationError
) -> SimulationError:
    """``exc`` prefixed with the job it came from, so a batch failure
    (inline or from a pool worker) says which job ran out of budget."""
    return SimulationError(f"{what} (job {job.key()[:12]}): {exc}")


def _attack_class(attack: str) -> type[CacheAttack]:
    """The registered attack class, or a ConfigError naming the choices."""
    if attack not in ATTACK_KINDS:
        raise ConfigError(
            f"unknown attack {attack!r}; choose from {sorted(ATTACK_KINDS)}"
        )
    return ATTACK_KINDS[attack]


@dataclass(frozen=True)
class ScenarioJob:
    """One attack against one system configuration, scored by footprint.

    The victim name and trial secret live inside ``options`` (both are
    :class:`~repro.attacks.layout.AttackOptions` fields), so the content
    key covers them automatically; prefer :meth:`build`, which resolves
    the victim's probe-array geometry and the attack's option defaults
    *into* the key.

    ``max_steps`` is the simulation step budget in scheduler steps; a
    superblock (a straight-line ALU run and its trailing branch) or a
    fused countdown loop is one step.
    """

    attack: str
    system: SystemConfig = field(default_factory=SystemConfig)
    options: AttackOptions = field(default_factory=AttackOptions)
    max_steps: int = 20_000_000

    def __post_init__(self) -> None:
        _attack_class(self.attack)

    @classmethod
    def build(
        cls,
        attack: str,
        victim: str | None = None,
        secret: int | None = None,
        system: SystemConfig | None = None,
        **option_overrides: Any,
    ) -> "ScenarioJob":
        """Job with the attack's option defaults and victim geometry resolved in.

        Attack classes carry per-class option defaults (e.g. Prime+Probe's
        48 monitored sets and secret 37); instantiating one resolves the
        merge, so the job key reflects the *effective* options.  A crypto
        ``victim`` also dictates the probe-array size its index map
        assumes.  Without ``victim`` the attack runs the paper's direct
        victim; without ``secret``, on its default secret.
        """
        from repro.workloads.crypto import get_victim

        attack_cls = _attack_class(attack)
        if secret is not None:
            option_overrides["secret"] = secret
        if victim is None:
            options = attack_cls(**option_overrides).options
        else:
            descriptor = get_victim(victim)
            options = attack_cls(
                victim=victim, num_indices=descriptor.num_indices, **option_overrides
            ).options
            if not options.secret < descriptor.secret_space:
                raise ConfigError(
                    f"secret {options.secret} outside victim {victim!r} space "
                    f"0..{descriptor.secret_space - 1}"
                )
        return cls(attack=attack, system=system or SystemConfig(), options=options)

    def key(self) -> str:
        return job_key(self)

    def run(self) -> ScenarioProbe:
        attack = ATTACK_KINDS[self.attack](self.options)
        try:
            outcome = attack.run(self.system, max_steps=self.max_steps)
        except SimulationError as exc:
            raise _named_error(
                f"{self.attack} x {self.options.victim}", self, exc
            ) from exc
        return self.probe_from_outcome(outcome)

    def probe_from_outcome(self, outcome: AttackOutcome) -> ScenarioProbe:
        """Score one classified outcome against the victim's footprint.

        Shared by :meth:`run` (rebuild path) and the snapshot-replay runner
        (:mod:`repro.attacks.replay`), so both paths produce probes through
        the same scoring code.
        """
        from repro.workloads.crypto import get_victim

        expected = get_victim(self.options.victim).expected_indices(
            self.options.secret, self.options
        )
        candidates = outcome.candidates
        return ScenarioProbe(
            attack=self.attack,
            victim=self.options.victim,
            challenges=outcome.challenges,
            secret=self.options.secret,
            expected=list(expected),
            candidates=list(candidates),
            latencies=list(outcome.latencies),
            succeeded=set(candidates) == set(expected),
            cycles=outcome.run_result.cycles,
            defense_stats=[
                dict(stats) for stats in outcome.run_result.defense_stats
            ],
        )
