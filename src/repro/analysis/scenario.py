"""Static attack-feasibility certifier: the scenario grid without running it.

PR 8's leak maps and PR 9's timing walk certify one program in isolation;
this module composes them into PREFENDER's actual claim — an attacker and
a victim sharing a hierarchy, with the defense's guided prefetches
destroying the attacker's observation.  Three layers:

* **Product walk** — the attacker and victim programs execute as an
  interleaved product over one shared
  :class:`~repro.analysis.cachemodel.MultiCoreHierarchyState` and one
  shared memory image, under :func:`repro.analysis.timing._walk` — the
  same walker, instruction semantics and
  :meth:`repro.cpu.system.System.run_steps` schedule the timing map uses,
  with the *raise* precision policy.  Under exact times the scheduler's
  schedule set is a *singleton*, so the sound interleaving join over
  producible schedule points degenerates to the one schedule the
  simulator runs; the moment any latency interval widens the walker
  gives up and the verdict is ``UNKNOWN`` — never a guess.  A
  single-program attack walks under the *widen* policy instead.
* **Observation** — the walk computes the attacker's *own measurements*:
  the rdcycle deltas its probe loop stores into the results array.  Those
  latencies classify into a candidate set with the attack's published
  ``hit_threshold`` / ``candidate_is_slow`` rule, byte-for-byte the logic
  of :class:`repro.attacks.base.AttackOutcome`.  Running the walk once per
  trial secret yields the attacker-observable vector per secret.
* **Verdict** — :func:`certify` compares observables across secrets and
  applies the defense's abstract transformer
  (:mod:`repro.analysis.defense`): ``LEAKS`` when some secret pair stays
  distinguishable at an index the defense provably leaves untouched,
  ``DEFENDED`` when no pair is distinguishable once every distinguishing
  index is havocked to top (or none existed to begin with), ``UNKNOWN``
  when precision runs out (an unresolved walk, or a defense whose firing
  is only *possible*).

``tests/test_certify_oracle.py`` locks the certificate against the
dynamic scenario suite in both directions: LEAKS cells measure attacker
success >= 0.9 undefended, DEFENDED cells measure 0.00, and the static
grid reproduces PR 5's ``1.00 -> 0.00`` PREFENDER result without running
a single simulation.

Scope notes.  Software prefetches in a product walk are modelled as
completing fills (see :func:`repro.analysis.timing._walk`); speculative
victims and whole-run timing channels (Evict+Time) are out of scope and
certify as ``UNKNOWN``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.defense import (
    COVERAGE_CERTAIN,
    COVERAGE_NONE,
    DefenseModel,
    defense_model,
    havoc_reach,
    scale_trigger_satisfiable,
)
from repro.analysis.timing import DEFAULT_WALK_STEPS, _Unresolved, _walk
from repro.cpu.core import CoreConfig
from repro.mem.hierarchy import HierarchyConfig

#: Verdict labels (stable — CLI JSON output uses them).
LEAKS = "LEAKS"
DEFENDED = "DEFENDED"
UNKNOWN = "UNKNOWN"

#: Attacks whose probe/classification structure the walker models.  The
#: scenario runner also knows ``evict-time``, but a whole-run timing
#: channel has no per-index observable to certify — it stays UNKNOWN.
SUPPORTED_ATTACKS = frozenset(
    {
        "flush-reload",
        "evict-reload",
        "prime-probe",
        "adversarial-prefetch-a1",
        "adversarial-prefetch-a2",
    }
)

#: Default defense rows certified by ``analyze --certify`` (the dynamic
#: grid's own default pair).
DEFAULT_DEFENSE_ROWS = ("Base", "FULL")


@dataclass(frozen=True)
class CellCertificate:
    """Static verdict for one ``victim × attack × defense`` grid cell."""

    victim: str
    attack: str
    defense: str
    verdict: str
    #: Defense coverage grade actually applied (trigger-gated: a scale
    #: tracker whose trigger is unsatisfiable degrades to ``none``).
    coverage: str
    #: Undefended walk recovers the victim's expected footprint for every
    #: trial secret (``None`` when the walk did not resolve).
    feasible: bool | None
    #: Trial secrets whose walks were compared.
    secrets: tuple[int, ...]
    #: Probe indices whose candidate classification differs across secrets.
    distinguishing: tuple[int, ...]
    #: Probe indices the defense's havoc provably covers.
    havoc: tuple[int, ...]
    #: ``(secret_a, secret_b, index)`` distinguisher witness, or ``None``.
    witness: tuple[int, int, int] | None
    detail: str


@dataclass(frozen=True)
class CertificationReport:
    """Full verdict matrix, cells sorted by ``(victim, attack, defense)``."""

    cells: tuple[CellCertificate, ...]

    def count(self, verdict: str) -> int:
        return sum(1 for cell in self.cells if cell.verdict == verdict)

    @property
    def unknown_fraction(self) -> float:
        if not self.cells:
            return 0.0
        return self.count(UNKNOWN) / len(self.cells)


# -- observation -----------------------------------------------------------------


def _candidates(
    latencies: Sequence[int], threshold: int, candidate_is_slow: bool
) -> frozenset[int]:
    """Candidate indices from measured latencies — the AttackOutcome rule."""
    if candidate_is_slow:
        return frozenset(
            index
            for index, latency in enumerate(latencies)
            if latency >= threshold
        )
    return frozenset(
        index
        for index, latency in enumerate(latencies)
        if 0 < latency < threshold
    )


def _walk_attack(
    attack: Any,
    config: CoreConfig,
    hconfig: HierarchyConfig,
    max_steps: int,
) -> frozenset[int]:
    """Walk one built attack instance; returns its candidate index set."""
    programs = attack.build_programs()
    outcome = _walk(
        programs,
        {},
        config,
        hconfig,
        strict=len(programs) > 1,
        max_steps=max_steps,
    )
    if outcome.hi is None:
        raise _Unresolved("single-core walk did not resolve")
    final_memory = outcome.memory
    layout, options = attack.layout, attack.options
    latencies: list[int] = []
    for index in range(options.num_indices):
        value = final_memory.get(layout.result_addr(index), 0)
        if value is None:
            raise _Unresolved(f"result slot {index} never resolved")
        latencies.append(value)
    return _candidates(
        latencies, attack.hit_threshold, attack.candidate_is_slow
    )


@dataclass(frozen=True)
class _Observations:
    """Per-(victim, attack) walk results, shared across defense rows."""

    secrets: tuple[int, ...]
    #: secret -> candidate index set (``None`` when any walk gave up).
    candidates: Mapping[int, frozenset[int]] | None
    #: Undefended attack recovers the expected footprint for every secret.
    feasible: bool | None
    #: Probe indices the ST-family havoc provably covers.
    havoc: tuple[int, ...]
    #: Scale Tracker trigger abstractly satisfiable on this scenario.
    scale_ok: bool
    failure: str | None


def _observe(
    attack_name: str,
    victim_name: str,
    secrets: Sequence[int] | None,
    config: CoreConfig,
    hconfig: HierarchyConfig,
    max_steps: int,
) -> _Observations:
    from repro.runner.job import ATTACK_KINDS
    from repro.workloads.crypto import get_victim

    descriptor = get_victim(victim_name)
    if secrets is None:
        from repro.attacks.scenarios import DEFAULT_SECRETS

        secrets = descriptor.trial_secrets(DEFAULT_SECRETS)
    secret_tuple = tuple(dict.fromkeys(secrets))

    def build(secret: int) -> Any:
        return ATTACK_KINDS[attack_name](
            victim=victim_name,
            secret=secret,
            num_indices=descriptor.num_indices,
        )

    probe = build(secret_tuple[0])
    carrier = next(
        (p for p in probe.build_programs() if p.taint_sources), None
    )
    options = probe.options
    if carrier is not None:
        havoc = havoc_reach(
            carrier,
            descriptor.secret_space,
            probe_base=probe.layout.probe_base,
            scale=options.scale,
            num_indices=options.num_indices,
        )
    else:
        havoc = ()
    scale_ok = bool(havoc) and scale_trigger_satisfiable(options.scale)

    found: dict[int, frozenset[int]] = {}
    feasible = True
    failure: str | None = None
    if attack_name not in SUPPORTED_ATTACKS:
        failure = f"attack {attack_name!r} is outside the walker's scope"
    elif config.speculative_execution or options.victim_mode != "direct":
        failure = "speculative semantics are outside the walker's scope"
    else:
        try:
            for secret in secret_tuple:
                attack = build(secret)
                observed = _walk_attack(attack, config, hconfig, max_steps)
                found[secret] = observed
                expected = frozenset(
                    descriptor.expected_indices(secret, attack.options)
                )
                feasible = feasible and observed == expected
        except _Unresolved as unresolved:
            failure = unresolved.reason
    return _Observations(
        secrets=secret_tuple,
        candidates=found if failure is None else None,
        feasible=feasible if failure is None else None,
        havoc=havoc,
        scale_ok=scale_ok,
        failure=failure,
    )


# -- verdict ---------------------------------------------------------------------


def _distinguishing(
    secrets: Sequence[int], candidates: Mapping[int, frozenset[int]]
) -> tuple[int, ...]:
    """Indices whose candidate classification differs across any pair."""
    first = candidates[secrets[0]]
    differing: set[int] = set()
    for secret in secrets[1:]:
        differing.update(first ^ candidates[secret])
    return tuple(sorted(differing))


def _witness_at(
    secrets: Sequence[int],
    candidates: Mapping[int, frozenset[int]],
    indices: Iterable[int],
) -> tuple[int, int, int] | None:
    """First ``(secret_a, secret_b, index)`` distinguishing at ``indices``."""
    for index in sorted(indices):
        for position, secret_a in enumerate(secrets):
            for secret_b in secrets[position + 1 :]:
                if (index in candidates[secret_a]) != (
                    index in candidates[secret_b]
                ):
                    return (secret_a, secret_b, index)
    return None


def _effective_coverage(model: DefenseModel, scale_ok: bool) -> str:
    """Trigger-gate the model: an idle Scale Tracker protects nothing."""
    if model.mechanism == "scale-tracker" and not scale_ok:
        return COVERAGE_NONE
    return model.coverage


def certify(
    attack: str,
    victim: str,
    defense: str,
    *,
    secrets: Sequence[int] | None = None,
    core: CoreConfig | None = None,
    hierarchy: HierarchyConfig | None = None,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> CellCertificate:
    """Static verdict for one scenario cell: LEAKS / DEFENDED / UNKNOWN.

    ``LEAKS``: some secret pair stays distinguishable in the attacker's
    observable at an index the defense provably leaves untouched.
    ``DEFENDED``: no pair is distinguishable — either the undefended
    observables already coincide, or every distinguishing index is
    havocked to top by a certainly-firing defense.  ``UNKNOWN``: the walk
    lost precision, or the defense's firing is only possible.
    """
    model = defense_model(defense)
    observations = _observe(
        attack,
        victim,
        secrets,
        core or CoreConfig(),
        hierarchy or HierarchyConfig(),
        max_steps,
    )
    return _certify_cell(attack, victim, model, observations)


def _certify_cell(
    attack: str,
    victim: str,
    model: DefenseModel,
    observations: _Observations,
) -> CellCertificate:
    coverage = _effective_coverage(model, observations.scale_ok)
    secrets = observations.secrets

    def cell(
        verdict: str,
        detail: str,
        distinguishing: tuple[int, ...] = (),
        witness: tuple[int, int, int] | None = None,
    ) -> CellCertificate:
        return CellCertificate(
            victim=victim,
            attack=attack,
            defense=model.label,
            verdict=verdict,
            coverage=coverage,
            feasible=observations.feasible,
            secrets=secrets,
            distinguishing=distinguishing,
            havoc=observations.havoc,
            witness=witness,
            detail=detail,
        )

    candidates = observations.candidates
    if candidates is None:
        return cell(UNKNOWN, observations.failure or "walk did not resolve")
    differing = _distinguishing(secrets, candidates)
    if not differing:
        return cell(
            DEFENDED,
            f"all {len(secrets)} trial secrets yield one attacker "
            "observable; nothing to distinguish",
        )
    if coverage == COVERAGE_NONE:
        return cell(
            LEAKS,
            f"{len(differing)} probe index(es) stay distinguishable; "
            f"defense provably idle ({model.description})",
            differing,
            _witness_at(secrets, candidates, differing),
        )
    if coverage == COVERAGE_CERTAIN:
        uncovered = tuple(
            index
            for index in differing
            if index not in set(observations.havoc)
        )
        if not uncovered:
            return cell(
                DEFENDED,
                f"every distinguishing index ({len(differing)}) is "
                "havocked to top by the certainly-firing defense",
                differing,
            )
        return cell(
            LEAKS,
            f"{len(uncovered)} distinguishing index(es) escape the "
            "defense's certain havoc reach",
            differing,
            _witness_at(secrets, candidates, uncovered),
        )
    return cell(
        UNKNOWN,
        "distinguishable undefended, but the defense's firing is only "
        f"possible ({model.description})",
        differing,
    )


def certify_grid(
    victims: Sequence[str] | None = None,
    attacks: Sequence[str] | None = None,
    defenses: Sequence[str] | None = None,
    *,
    num_secrets: int | None = None,
    core: CoreConfig | None = None,
    hierarchy: HierarchyConfig | None = None,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> CertificationReport:
    """Certify a full grid; walks are shared across defense rows.

    Defaults mirror the dynamic scenario suite's grid
    (:mod:`repro.attacks.scenarios`), with the matrix sorted on every key
    so the report — and the CLI JSON built from it — is byte-stable
    regardless of input ordering.
    """
    from repro.attacks.scenarios import (
        DEFAULT_ATTACKS,
        DEFAULT_SECRETS,
        DEFAULT_VICTIMS,
    )
    from repro.workloads.crypto import get_victim

    victim_names = tuple(sorted(set(victims or DEFAULT_VICTIMS)))
    attack_names = tuple(sorted(set(attacks or DEFAULT_ATTACKS)))
    defense_names = tuple(sorted(set(defenses or DEFAULT_DEFENSE_ROWS)))
    models = [defense_model(name) for name in defense_names]
    config = core or CoreConfig()
    hconfig = hierarchy or HierarchyConfig()
    count = num_secrets if num_secrets is not None else DEFAULT_SECRETS

    cells: list[CellCertificate] = []
    for victim in victim_names:
        descriptor = get_victim(victim)
        secrets = descriptor.trial_secrets(count)
        for attack in attack_names:
            observations = _observe(
                attack, victim, secrets, config, hconfig, max_steps
            )
            for model in models:
                cells.append(
                    _certify_cell(attack, victim, model, observations)
                )
    cells.sort(key=lambda cell: (cell.victim, cell.attack, cell.defense))
    return CertificationReport(cells=tuple(cells))
