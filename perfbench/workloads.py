"""The four benchmark workloads and the checks of their outputs.

Each workload drives public functions of the simulator package exactly as
a user's command would, in this process, with ``jobs=1``:

* ``perf_grid`` -- the Table IV grid (``python -m repro table 4``): 12
  SPEC2006 kernels x (11 prefetcher columns + the shared baseline) = 144
  single-core simulations, memo cleared, no store.
* ``attack_scenarios`` -- the default crypto-victim grid (``python -m
  repro scenarios``): 3 victims x 5 attacks x Base/FULL x 4 trial secrets
  = 120 two-core trials with snapshot replay, written into a fresh empty
  ``ResultStore`` each pass.
* ``certify_static`` -- ``analyze --builtin --taint --timing --certify
  --json``: the static-analysis stack, no simulation.
* ``warm_store`` -- the ``perf_grid`` grid served back from a store
  populated during set-up, memo cleared and a fresh ``ResultStore`` each
  pass: job keys, store reads, JSON decode and table rendering.

A workload is built from the seed alone.  The seed permutes the order in
which the grid's simulations run and draws the scenario trial secrets
from each victim's secret space; seed 0 keeps the command-line order and
secrets, so its rendered outputs are the commands' own outputs.

``pass_steps`` is the timed work, split into steps between which the
harness re-measures the host's speed; ``check`` compares a pass's output
with the pinned reference (:mod:`perfbench.reference`) afterwards and
returns one failure label per operation that mismatched.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.__main__ import main as repro_main
from repro.attacks import scenarios
from repro.experiments import common, table4
from repro.runner import ResultStore, ScenarioJob, run_batch
from repro.sim.config import SystemConfig
from repro.workloads import SPEC2006_NAMES
from repro.workloads.crypto import get_victim

from perfbench.reference import digest, probe_entry, sim_entry

DEFAULT_SEED = 0

#: ``python -m repro table 4`` runs the grid at this scale by default.
GRID_SCALE = 0.5

ANALYZE_ARGS = ("analyze", "--builtin", "--taint", "--timing", "--certify", "--json")

#: Grid simulations per timed step (about a second of host time).
STEP_JOBS = 12

#: Times ``warm_store`` serves the grid in one pass.
SERVINGS = 8

#: A cheap kernel that loads and stores; its row is the warm-up and the
#: smoke-size grid.
SMALL_KERNEL = "464.h264ref"


@dataclass
class PassOutput:
    """What one timed pass produced, kept for the check after timing."""

    ops: int
    sim_cycles: int
    text: str
    #: (reference label, program output) for every operation of the pass.
    items: list[tuple[str, Any]]
    #: Per-pass program counters the checks and the traced run read.
    counters: dict[str, Any] = field(default_factory=dict)
    #: Scenario cells, for the seed-independent invariants.
    result: Any = None

    @classmethod
    def merge(cls, outputs: list["PassOutput"]) -> "PassOutput":
        """One output for several servings; differing texts fail the digest."""
        counters: dict[str, int] = {}
        for output in outputs:
            for key, value in output.counters.items():
                counters[key] = counters.get(key, 0) + value
        return cls(
            ops=sum(output.ops for output in outputs),
            sim_cycles=sum(output.sim_cycles for output in outputs),
            text="\n".join(sorted({output.text for output in outputs})),
            items=[item for output in outputs for item in output.items],
            counters=counters,
        )


def grid_cells(kernels: list[str]) -> list[tuple[str, Any]]:
    """(label, SimJob) for every simulation of the Table IV grid.

    The columns are table4's own; if the two ever disagree, ``table4.run``
    misses the memo and the check reports it.
    """
    columns = [("baseline", common.BASELINE_SPEC)] + list(table4._columns(False))
    return [
        (f"{name}|{header}", common.sim_job(name, spec, GRID_SCALE))
        for name in kernels
        for header, spec in columns
    ]


def permuted(items: list[Any], seed: int) -> list[Any]:
    """``items`` in a seed-drawn order; seed 0 keeps the given order."""
    items = list(items)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(items)
    return items


def trial_secrets(victim: str, seed: int, count: int) -> tuple[int, ...]:
    """``count`` trial secrets of ``victim`` drawn by ``seed``.

    Seed 0 gives the evenly spaced secrets ``python -m repro scenarios``
    uses; any other seed samples distinct secrets from the secret space.
    """
    descriptor = get_victim(victim)
    if seed == DEFAULT_SEED:
        return descriptor.trial_secrets(count)
    rng = random.Random(f"{seed}:{victim}")
    return tuple(sorted(rng.sample(range(descriptor.secret_space), count)))


class Workload:
    """One benchmark workload: set-up, a timed pass and its check."""

    name = ""
    #: What one operation is, for the report.
    op_unit = ""
    #: System.run calls one pass must make (the traced self-check).
    simulations_per_pass = 0

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke

    def warm_up(self) -> None:
        """Run a small slice of the pass so imports and first calls are paid."""

    def populate_steps(self) -> list[Callable[[], Any]]:
        """Further set-up a pass depends on (only ``warm_store`` has any)."""
        return []

    def pass_steps(self) -> list[Callable[[], Any]]:
        """One pass as steps run in order; the last returns the PassOutput.

        The harness re-measures the host's speed between steps, so a long
        pass is split where the program's public API allows it.
        """
        raise NotImplementedError

    def populate(self) -> None:
        for step in self.populate_steps():
            step()

    def run_pass(self) -> PassOutput:
        for step in self.pass_steps():
            output = step()
        return output

    def check(self, output: PassOutput, reference: dict[str, Any]) -> list[str]:
        raise NotImplementedError


class PerfGrid(Workload):
    name = "perf_grid"
    op_unit = "simulation"

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False) -> None:
        super().__init__(seed, work_dir, smoke)
        self.kernels = [SMALL_KERNEL] if smoke else list(SPEC2006_NAMES)
        self.cells = permuted(grid_cells(self.kernels), seed)
        self.unique_jobs = len({job.key() for _, job in self.cells})
        self.simulations_per_pass = self.unique_jobs
        self.servings = 1

    def warm_up(self) -> None:
        common.clear_cycle_cache()
        table4.run(scale=GRID_SCALE, workloads=[SMALL_KERNEL])
        common.clear_cycle_cache()

    def _serve_steps(
        self, store: ResultStore | None, step_jobs: int
    ) -> list[Callable[[], Any]]:
        """Fill the memo in job order, ``step_jobs`` jobs a step, then render."""
        common.clear_cycle_cache()
        results: list[Any] = []

        def serve(chunk: list[tuple[str, Any]]) -> None:
            jobs = [job for _, job in chunk]
            results.extend(common.batch_results(jobs, store=store))

        def finish(chunk: list[tuple[str, Any]]) -> PassOutput:
            serve(chunk)
            table = table4.run(scale=GRID_SCALE, workloads=self.kernels, store=store)
            text = table4.render(table)
            memo = common.cache_stats()
            counters = {"memo_hits": memo["hits"], "memo_misses": memo["misses"]}
            if store is not None:
                counters.update(store_hits=store.hits, store_misses=store.misses)
            return PassOutput(
                ops=len(self.cells),
                sim_cycles=sum(result.cycles for result in results)
                if self.simulations_per_pass
                else 0,
                text=text,
                items=[(label, result) for (label, _), result in zip(self.cells, results)],
                counters=counters,
            )

        chunks = [
            self.cells[start : start + step_jobs]
            for start in range(0, len(self.cells), step_jobs)
        ]
        return [functools.partial(serve, chunk) for chunk in chunks[:-1]] + [
            functools.partial(finish, chunks[-1])
        ]

    def pass_steps(self) -> list[Callable[[], Any]]:
        return self._serve_steps(store=None, step_jobs=STEP_JOBS)

    def check(self, output: PassOutput, reference: dict[str, Any]) -> list[str]:
        pinned = reference["perf_grid"]
        failures = [
            label
            for label, result in output.items
            if pinned["jobs"].get(label) != sim_entry(result)
        ]
        # Each serving misses the memo once per job while the job-order
        # batch fills it; table4.run must then find every simulation there,
        # so a further miss means the grid drifted from the table.
        if output.counters["memo_misses"] != self.servings * self.unique_jobs:
            failures.append("memo: table4.run simulated outside the grid")
        if not self.smoke and digest(output.text) != pinned["table_sha256"]:
            failures.append("table: rendered Table IV differs")
        return failures


class WarmStore(PerfGrid):
    name = "warm_store"
    op_unit = "store-served job"

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False) -> None:
        super().__init__(seed, work_dir, smoke)
        self.simulations_per_pass = 0
        self.store_root = work_dir / "warm_store"
        # One serving takes ~50 ms; a pass serves the grid several times
        # (memo cleared, fresh ResultStore each) so that it is long enough
        # to time steadily.
        self.servings = 1 if smoke else SERVINGS
        self.store_reads_per_pass = self.servings * self.unique_jobs

    def warm_up(self) -> None:
        super().warm_up()
        root = self.work_dir / "warm_up_store"
        jobs = [job for _, job in grid_cells([SMALL_KERNEL])]
        run_batch(jobs, store=ResultStore(root))
        run_batch(jobs, store=ResultStore(root))
        shutil.rmtree(root)

    def populate_steps(self) -> list[Callable[[], Any]]:
        store = ResultStore(self.store_root)
        jobs = [job for _, job in self.cells]
        return [
            functools.partial(run_batch, jobs[start : start + STEP_JOBS], store=store)
            for start in range(0, len(jobs), STEP_JOBS)
        ]

    def pass_steps(self) -> list[Callable[[], Any]]:
        return [self._serve_all]

    def _serve_all(self) -> PassOutput:
        outputs = []
        for _ in range(self.servings):
            (serve,) = self._serve_steps(
                store=ResultStore(self.store_root), step_jobs=len(self.cells)
            )
            outputs.append(serve())
        return PassOutput.merge(outputs)

    def check(self, output: PassOutput, reference: dict[str, Any]) -> list[str]:
        failures = super().check(output, reference)
        counters = output.counters
        if counters["store_misses"] or counters["store_hits"] != self.store_reads_per_pass:
            failures.append("store: not every job was served from the store")
        return failures


class AttackScenarios(Workload):
    name = "attack_scenarios"
    op_unit = "scenario trial"

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False) -> None:
        super().__init__(seed, work_dir, smoke)
        if smoke:
            self.victims = scenarios.DEFAULT_VICTIMS[:1]
            self.attacks = scenarios.DEFAULT_ATTACKS[:1]
            self.secrets = 2
        else:
            self.victims = scenarios.DEFAULT_VICTIMS
            self.attacks = scenarios.DEFAULT_ATTACKS
            self.secrets = scenarios.DEFAULT_SECRETS
        self.defenses = scenarios.DEFAULT_DEFENSES
        self.victim_secrets = {
            victim: trial_secrets(victim, seed, self.secrets) for victim in self.victims
        }
        self.simulations_per_pass = (
            len(self.victims) * len(self.attacks) * len(self.defenses) * self.secrets
        )
        self._passes = 0

    def _fresh_store(self) -> ResultStore:
        self._passes += 1
        return ResultStore(self.work_dir / f"scenario_store_{self._passes}")

    def warm_up(self) -> None:
        store = self._fresh_store()
        scenarios.run(
            victims=self.victims[:1],
            attacks=self.attacks,
            defenses=self.defenses,
            secrets=1,
            store=store,
        )
        shutil.rmtree(store.root)

    def pass_steps(self) -> list[Callable[[], Any]]:
        return [self._one_pass]

    def _one_pass(self) -> PassOutput:
        store = self._fresh_store()
        specs, _ = scenarios.build_grid(
            self.victims, self.attacks, self.defenses, self.secrets
        )
        systems = {
            label: SystemConfig(prefetcher=scenarios.defense_spec(label))
            for label in self.defenses
        }
        labels: list[str] = []
        jobs: list[ScenarioJob] = []
        for spec in specs:
            for secret in self.victim_secrets[spec.victim]:
                labels.append(f"{spec.victim}|{spec.attack}|{spec.defense}|{secret}")
                jobs.append(
                    ScenarioJob.build(
                        spec.attack, spec.victim, secret, systems[spec.defense]
                    )
                )
        probes = run_batch(jobs, store=store, reuse_snapshots=True)
        cells = scenarios.slice_trials(specs, probes, self.secrets)
        result = scenarios.ScenarioResult(
            victims=self.victims,
            attacks=self.attacks,
            defenses=self.defenses,
            secrets=self.secrets,
            cells=cells,
        )
        text = scenarios.render(result)
        return PassOutput(
            ops=len(jobs),
            sim_cycles=sum(probe.cycles for probe in probes),
            text=text,
            items=list(zip(labels, probes)),
            counters={
                "store_hits": store.hits,
                "store_misses": store.misses,
                "store_root": str(store.root),
            },
            result=result,
        )

    def check(self, output: PassOutput, reference: dict[str, Any]) -> list[str]:
        pinned = reference["attack_scenarios"]
        failures = [
            label
            for label, probe in output.items
            if pinned["trials"].get(label) != probe_entry(probe)
        ]
        root = Path(output.counters["store_root"])
        written = len(list(root.glob("*.json"))) if root.is_dir() else 0
        if written != output.ops or output.counters["store_hits"]:
            failures.append("store: the fresh store did not take every trial")
        shutil.rmtree(root, ignore_errors=True)
        # Seed-independent invariants: every attack succeeds undefended
        # (Base 1.00), and PREFENDER (FULL) stops every trial except those
        # the reference records as leaking under FULL (see known_leaks).
        leaks = set(known_leaks(reference))
        for victim in self.victims:
            if output.result.victim_success(victim, "Base") != 1.0:
                failures.append(f"invariant: Base success below 1.00 on {victim}")
            for cell in output.result.cells:
                if cell.spec.victim != victim or cell.spec.defense != "FULL":
                    continue
                allowed = sum(
                    f"{victim}|{cell.spec.attack}|FULL|{probe.secret}" in leaks
                    for probe in cell.probes
                )
                if cell.score.success_rate != allowed / len(cell.probes):
                    failures.append(
                        f"invariant: FULL success {cell.score.success_rate:.2f} "
                        f"on {victim} x {cell.spec.attack}, pinned leaks allow "
                        f"{allowed / len(cell.probes):.2f}"
                    )
        if (
            not self.smoke
            and self.seed == DEFAULT_SEED
            and digest(output.text) != pinned["render_sha256"]
        ):
            failures.append("render: scenario report differs")
        return failures


class CertifyStatic(Workload):
    name = "certify_static"
    op_unit = "analysed program or certified cell"

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False) -> None:
        super().__init__(seed, work_dir, smoke)
        self.args = ["analyze", "--certify", "--json"] if smoke else list(ANALYZE_ARGS)

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            repro_main(["analyze", "--builtin", "--json"])

    def pass_steps(self) -> list[Callable[[], Any]]:
        return [self._one_pass]

    def _one_pass(self) -> PassOutput:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = repro_main(self.args)
        text = buffer.getvalue()
        data = json.loads(text)
        items = analyze_entries(data)
        return PassOutput(
            ops=data["checked"] + len(data["certify"]["matrix"]),
            sim_cycles=0,
            text=text,
            items=items,
            counters={"exit_code": code},
            result=data,
        )

    def check(self, output: PassOutput, reference: dict[str, Any]) -> list[str]:
        pinned = reference["certify_static"]
        failures = [
            label
            for label, entry in output.items
            if pinned["entries"].get(label) != digest(entry)
        ]
        if output.counters["exit_code"] != 0:
            failures.append("exit: analyze reported errors")
        leaks = [
            cell
            for cell in output.result["certify"]["matrix"]
            if cell["defense"] == "FULL" and cell["verdict"] == "LEAKS"
        ]
        if leaks:
            failures.append(f"invariant: {len(leaks)} LEAKS cell(s) under FULL")
        if not self.smoke and digest(output.text) != pinned["json_sha256"] and not failures:
            failures.append("json: analyze output differs")
        return failures


def known_leaks(reference: dict[str, Any]) -> list[str]:
    """Trials the reference records as succeeding under FULL.

    FULL stops every attack at the command's default secrets, but not on
    the whole secret space: the pinned reference holds the exceptions, and
    a seed that draws one of them reports it instead of failing.
    """
    return sorted(
        label
        for label, entry in reference["attack_scenarios"]["trials"].items()
        if label.split("|")[2] == "FULL" and entry["succeeded"]
    )


def analyze_entries(data: dict[str, Any]) -> list[tuple[str, Any]]:
    """(label, entry) for every program record and certified cell."""
    entries: list[tuple[str, Any]] = []
    for index, record in enumerate(data["programs"]):
        entries.append((f"program:{index}:{record['program']}", record))
    if data["timing"]["enabled"]:
        for index, record in enumerate(data["timing"]["programs"]):
            entries.append((f"timing:{index}:{record['program']}", record))
        for index, record in enumerate(data["cache"]["distinguishers"]):
            entries.append((f"cache:{index}:{record['program']}", record))
    for cell in data["certify"]["matrix"]:
        label = f"cell:{cell['victim']}|{cell['attack']}|{cell['defense']}"
        entries.append((label, cell))
    return entries


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PerfGrid, AttackScenarios, CertifyStatic, WarmStore)
}
