"""Per-layer tracing from outside the program: wrap each layer's boundary.

The traced run replaces the public functions and methods at each layer
boundary of ``repro`` (listed in :data:`LAYERS`) with timing wrappers,
runs the workload, and puts the originals back.  Nothing under ``src/``
changes.  Class methods are patched on the class, which reaches every
instance built afterwards, including bound-method tables a constructor
fills (``Core._dispatch``) and local aliases a scheduler takes at call
time (``step = core.step``).  A module-level function is patched in every
loaded module that holds a reference to it, so ``from x import f`` aliases
are reached too.  The self-check in :func:`self_check` proves the wrappers
saw the calls.

Each wrapped call is a span: name (its layer), start, end and the span
that caused it.  A layer's self time is its spans' duration minus the part
covered by child spans.  Hot layers (``Core.step`` runs millions of times
per pass) are aggregated as each span closes -- calls, total and self time
per layer -- instead of being stored; spans of the coarse layers
(:data:`RECORDED`) are also kept whole in memory, at most
:data:`MAX_SPANS`, and written out when the run ends.

Model counters (simulated cycles, cache hits and misses, prefetches by
component, PREFENDER's ``defense_stats``) are summed from every
``System.run`` result, as the model reports them; on replayed scenario
trials they therefore include the snapshot's restored prefix.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: layer -> (module, "Class.method" or "function") boundary targets.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cpu.core": [("repro.cpu.core", "Core.step")],
    "cpu.system": [
        ("repro.cpu.system", "System.run"),
        ("repro.cpu.system", "System.run_steps"),
    ],
    "mem.hierarchy": [
        ("repro.mem.hierarchy", f"MemoryHierarchy.{name}")
        for name in ("load", "store", "flush", "software_prefetch")
    ],
    "mem.cache": [
        ("repro.mem.cache", f"Cache.{name}")
        for name in (
            "access",
            "prefetch",
            "contains",
            "contains_ready",
            "invalidate_block",
            "flush_block",
            "mark_dirty",
        )
    ],
    "mem.mshr": [
        ("repro.mem.mshr", f"MSHRFile.{name}")
        for name in (
            "occupancy",
            "available",
            "prefetch_available",
            "merge",
            "mark_demand_consumed",
            "allocate_demand",
            "allocate_prefetch_fill",
            "allocate_prefetch",
        )
    ],
    "core.prefender": [("repro.core.prefender", "Prefender.observe")],
    "core.access_tracker": [
        ("repro.core.access_tracker", f"AccessTracker.{name}")
        for name in ("observe_load", "allocate", "buffer_for_pc", "protected_count")
    ],
    "core.scale_tracker": [
        ("repro.core.scale_tracker", "ScaleTracker.observe_load"),
        ("repro.core.scale_tracker", "ScaleTracker.scale_in_range"),
    ],
    "core.record_protector": [
        ("repro.core.record_protector", f"RecordProtector.{name}")
        for name in (
            "record_scale",
            "expire_stale_protection",
            "sweep_idle_protection",
            "guidance_for",
            "protect_after_allocation",
        )
    ],
    "prefetch": [
        ("repro.prefetch.tagged", "TaggedPrefetcher.observe"),
        ("repro.prefetch.stride", "StridePrefetcher.observe"),
    ],
    "snapshot.take": [("repro.cpu.system", "System.snapshot")],
    "snapshot.restore": [("repro.cpu.system", "System.restore")],
    "attacks.trial": [("repro.runner.job", "ScenarioJob.probe_from_outcome")],
    "attacks.leakage": [("repro.attacks.leakage", "score_trials")],
    "isa.finalize": [("repro.isa.program", "Program.finalize")],
    "workloads.build": [("repro.workloads.base", "Workload.program")]
    + [
        (module, f"{cls}.build_programs")
        for module, cls in (
            ("repro.attacks.flush_reload", "FlushReloadAttack"),
            ("repro.attacks.evict_reload", "EvictReloadAttack"),
            ("repro.attacks.prime_probe", "PrimeProbeAttack"),
            ("repro.attacks.evict_time", "EvictTimeAttack"),
            ("repro.attacks.adversarial_prefetch", "AdversarialPrefetchAttack"),
        )
    ],
    "runner.job_key": [("repro.runner.job", "job_key")],
    "runner.batch": [("repro.runner.executor", "run_batch")],
    "runner.store.get": [("repro.runner.store", "ResultStore.get")],
    "runner.store.put": [("repro.runner.store", "ResultStore.put")],
    "analysis.analyze_program": [("repro.analysis.analyzer", "analyze_program")],
    "analysis.taint": [
        ("repro.analysis.taint", name)
        for name in ("taint_analysis", "taint_of_program", "leak_map", "secret_leak_union")
    ],
    "analysis.timing": [
        ("repro.analysis.timing", name)
        for name in (
            "analyze_timing",
            "cycle_bounds",
            "timing_variations",
            "timing_map",
            "cache_distinguishers",
            "trial_intervals",
        )
    ],
    "analysis.cachemodel": [
        ("repro.analysis.cachemodel", f"{cls}.*")
        for cls in ("CacheState", "HierarchyState", "MultiCoreHierarchyState")
    ],
    "analysis.certify": [
        ("repro.analysis.scenario", "certify"),
        ("repro.analysis.scenario", "certify_grid"),
    ],
    "cli.render": [("repro.__main__", "_cmd_analyze")],
}

#: Layers whose spans are kept whole (they run at most thousands of times
#: per pass); the rest are only aggregated.
RECORDED = frozenset(
    {
        "cpu.system",
        "snapshot.take",
        "snapshot.restore",
        "attacks.leakage",
        "runner.batch",
        "runner.store.get",
        "runner.store.put",
        "analysis.analyze_program",
        "analysis.certify",
        "cli.render",
    }
)

MAX_SPANS = 20_000


class Tracer:
    """Installs the wrappers, aggregates spans and model counters."""

    def __init__(self) -> None:
        # One frame per open span: [child seconds, recorded span index].
        self._stack: list[list[Any]] = [[0.0, None]]
        #: layer -> [calls, total seconds, self seconds]
        self.stats: dict[str, list[float]] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        #: Recorded spans: [layer, start, end, parent index or None].
        self.spans: list[list[Any]] = []
        self.dropped_spans = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------------

    def top_level_seconds(self) -> float:
        """Seconds covered by spans with no traced parent."""
        return self._stack[0][0]

    def _wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        before: Callable[[tuple], Any] | None,
        after: Callable[[tuple, Any, Any], None] | None,
    ) -> Callable[..., Any]:
        clock = time.perf_counter
        stack = self._stack
        stat = self.stats[layer]
        spans = self.spans
        recorded = layer in RECORDED
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            token = before(args) if before is not None else None
            span = None
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            if recorded:
                if len(spans) < MAX_SPANS:
                    span = [layer, start, start, parent[1]]
                    frame[1] = len(spans)
                    spans.append(span)
                else:
                    tracer.dropped_spans += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if span is not None:
                    span[2] = end
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for layer, targets in LAYERS.items():
            for module_name, target in targets:
                module = importlib.import_module(module_name)
                hook = hooks.get(target, (None, None))
                if "." not in target:
                    self._patch_function(module, target, layer, hook)
                    continue
                cls_name, method = target.split(".")
                cls = getattr(module, cls_name)
                names = (
                    [
                        name
                        for name, value in vars(cls).items()
                        if not name.startswith("_") and inspect.isfunction(value)
                    ]
                    if method == "*"
                    else [method]
                )
                for name in names:
                    original = vars(cls)[name]
                    setattr(cls, name, self._wrap(layer, original, *hook))
                    self._patches.append((cls, name, original))

    def _patch_function(self, module: Any, name: str, layer: str, hook: tuple) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(layer, original, *hook)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    self._patches.append((loaded, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- counters read from call arguments and results -------------------------

    def _hooks(self) -> dict[str, tuple[Any, Any]]:
        counts = self.counts

        def step_before(args: tuple) -> int:
            return args[0].stats.instructions_retired

        def step_after(args: tuple, result: Any, retired: int) -> None:
            counts["retired"] += args[0].stats.instructions_retired - retired

        def run_after(args: tuple, result: Any, token: Any) -> None:
            counts["sim_cycles"] += result.cycles
            for stats in result.l1d_stats:
                counts["l1d_hits"] += stats["hits"]
                counts["l1d_misses"] += stats["misses"]
                counts["evictions"] += stats["evictions"]
                counts["prefetch_issued"] += stats["prefetch_issued"]
                counts["useful_prefetches"] += stats["useful_prefetches"]
            counts["l2_misses"] += result.l2_stats["misses"]
            counts["evictions"] += result.l2_stats["evictions"]
            for by_component in result.prefetch_counts:
                for component, value in by_component.items():
                    counts[f"prefetch.{component}"] += value
            for stats in result.defense_stats:
                counts["protections"] += stats.get("protections", 0)

        def access_after(args: tuple, result: Any, token: Any) -> None:
            counts["cache_accesses"] += 1

        def merge_after(args: tuple, result: Any, token: Any) -> None:
            counts["merge_hits"] += result is not None

        def allocation_after(args: tuple, result: Any, token: Any) -> None:
            counts["allocations"] += result is not None

        def get_after(args: tuple, result: Any, token: Any) -> None:
            counts["store_misses" if result is None else "store_hits"] += 1

        def certify_after(args: tuple, result: Any, token: Any) -> None:
            counts["certify_cells"] += len(result.cells)
            counts["certify_unknown"] += result.count("UNKNOWN")

        return {
            "Core.step": (step_before, step_after),
            "System.run": (None, run_after),
            "Cache.access": (None, access_after),
            "MSHRFile.merge": (None, merge_after),
            "MSHRFile.allocate_demand": (None, allocation_after),
            "MSHRFile.allocate_prefetch_fill": (None, allocation_after),
            "MSHRFile.allocate_prefetch": (None, allocation_after),
            "ResultStore.get": (None, get_after),
            "certify_grid": (None, certify_after),
        }

    # -- per-layer metrics -----------------------------------------------------

    def metrics(
        self,
        hosts: list[float],
        walls: list[float],
        untraced_s: float,
        sim_cycles: int,
        program: dict[str, float],
    ) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric, per pass, over the traced passes.

        ``hosts`` and ``walls`` are the traced passes' host seconds and
        reference-speed seconds; layer times are rescaled by their ratio,
        so every time here is at the reference speed.  ``untraced_s`` is
        the untraced pass's, the base of the overhead and of
        ``sim_cycles_per_s``.  What no span covers (the experiments glue,
        rendering, the benchmark itself) is reported as ``other.self_s``.
        ``program`` holds the program's own per-pass counters (the memo's).
        """
        passes = len(walls)
        scale = sum(walls) / sum(hosts) / passes
        traced_s = statistics.median(walls)
        stats = self.stats
        counts = self.counts

        def calls(layer: str) -> float:
            return stats[layer][0] / passes

        def total(layer: str) -> float:
            return stats[layer][1] * scale

        def self_s(layer: str) -> float:
            return stats[layer][2] * scale

        def count(name: str) -> float:
            return counts[name] / passes

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        dispatches = calls("cpu.core")
        return {
            "cpu.core.dispatches": dispatches,
            "cpu.core.self_s": self_s("cpu.core"),
            "cpu.core.retired": count("retired"),
            "cpu.core.fusion_ratio": ratio(count("retired"), dispatches),
            "cpu.system.runs": calls("cpu.system"),
            "cpu.system.self_s": self_s("cpu.system"),
            "cpu.system.sim_cycles": count("sim_cycles"),
            "mem.hierarchy.calls": calls("mem.hierarchy"),
            "mem.hierarchy.self_s": self_s("mem.hierarchy"),
            "mem.cache.accesses": count("cache_accesses"),
            "mem.cache.self_s": self_s("mem.cache"),
            "mem.cache.l1d_hits": count("l1d_hits"),
            "mem.cache.l1d_misses": count("l1d_misses"),
            "mem.cache.l2_misses": count("l2_misses"),
            "mem.cache.evictions": count("evictions"),
            "mem.mshr.allocations": count("allocations"),
            "mem.mshr.merge_hits": count("merge_hits"),
            "mem.mshr.self_s": self_s("mem.mshr"),
            "core.prefender.observes": calls("core.prefender"),
            "core.prefender.self_s": self_s("core.prefender"),
            "core.access_tracker.self_s": self_s("core.access_tracker"),
            "core.scale_tracker.self_s": self_s("core.scale_tracker"),
            "core.record_protector.self_s": self_s("core.record_protector"),
            "core.prefetches.st": count("prefetch.st"),
            "core.prefetches.at": count("prefetch.at"),
            "core.prefetches.rp": count("prefetch.rp"),
            "core.useful_ratio": ratio(count("useful_prefetches"), count("prefetch_issued")),
            "core.protections": count("protections"),
            "prefetch.observes": calls("prefetch"),
            "prefetch.self_s": self_s("prefetch"),
            "snapshot.takes": calls("snapshot.take"),
            "snapshot.take_s": total("snapshot.take"),
            "snapshot.restores": calls("snapshot.restore"),
            "snapshot.restore_s": total("snapshot.restore"),
            "attacks.trials": calls("attacks.trial"),
            "attacks.leakage.self_s": self_s("attacks.leakage"),
            "isa.finalize.calls": calls("isa.finalize"),
            "isa.finalize.self_s": self_s("isa.finalize"),
            "workloads.build.self_s": self_s("workloads.build"),
            "runner.job_key.calls": calls("runner.job_key"),
            "runner.job_key.self_s": self_s("runner.job_key"),
            "runner.batch.self_s": self_s("runner.batch"),
            "runner.store.gets": calls("runner.store.get"),
            "runner.store.get_s": total("runner.store.get"),
            "runner.store.puts": calls("runner.store.put"),
            "runner.store.put_s": total("runner.store.put"),
            "runner.store.hits": count("store_hits"),
            "runner.store.misses": count("store_misses"),
            "analysis.analyze_program.self_s": self_s("analysis.analyze_program"),
            "analysis.taint.self_s": self_s("analysis.taint"),
            "analysis.timing.self_s": self_s("analysis.timing"),
            "analysis.cachemodel.self_s": self_s("analysis.cachemodel"),
            "analysis.certify.self_s": self_s("analysis.certify"),
            "analysis.certify.cells": count("certify_cells"),
            "analysis.certify.unknown": count("certify_unknown"),
            "cli.render.self_s": self_s("cli.render"),
            "experiments.memo.hits": program.get("memo_hits", 0),
            "experiments.memo.misses": program.get("memo_misses", 0),
            "other.self_s": (sum(hosts) - self.top_level_seconds()) * scale,
            "sim_cycles_per_s": sim_cycles / untraced_s,
            "trace.untraced_wall_s": untraced_s,
            "trace.traced_wall_s": traced_s,
            "trace.overhead": traced_s / untraced_s - 1.0,
        }


def self_check(
    workload: Any, metrics: dict[str, float], program: dict[str, float]
) -> list[str]:
    """Prove the wrappers reached the calls: one message per broken rule.

    ``program`` holds the program's own per-pass counters (the result
    store's hit/miss counters, the retired instructions the model
    reported), which the traced counts must equal.
    """
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    name = workload.name
    runs = metrics["cpu.system.runs"]
    expect(
        runs == workload.simulations_per_pass,
        f"cpu.system.runs {runs:g} != {workload.simulations_per_pass} simulations",
    )
    gets = metrics["runner.store.gets"]
    hits, misses = metrics["runner.store.hits"], metrics["runner.store.misses"]
    expect(gets == hits + misses, f"runner.store.gets {gets:g} != hits + misses")
    expect(
        (hits, misses) == (program.get("store_hits", 0), program.get("store_misses", 0)),
        "runner.store hits/misses differ from the store's own counters",
    )
    simulates = name in ("perf_grid", "attack_scenarios")
    for metric in ("cpu.core.dispatches", "mem.cache.accesses", "core.prefender.observes"):
        if simulates:
            expect(metrics[metric] > 0, f"{metric} is 0 on a simulating workload")
        else:
            expect(metrics[metric] == 0, f"{metric} is not 0 on {name}")
    # Programs are finalized wherever they are built: by every simulation,
    # and by the analyzer; only the store-served grid builds none.
    if name == "warm_store":
        expect(metrics["isa.finalize.calls"] == 0, "isa.finalize.calls is not 0")
    else:
        expect(metrics["isa.finalize.calls"] > 0, "isa.finalize.calls is 0")
    if name == "perf_grid":
        expect(metrics["snapshot.restores"] == 0, "snapshot.restores is not 0")
        expect(metrics["prefetch.observes"] > 0, "prefetch.observes is 0")
        expect(
            metrics["cpu.core.retired"] == program["model_instructions"],
            "cpu.core.retired differs from the retired instructions the model reports",
        )
    if name == "attack_scenarios":
        trials = workload.simulations_per_pass
        expect(metrics["snapshot.restores"] == trials, "snapshot.restores != trials")
        expect(metrics["runner.store.puts"] == trials, "runner.store.puts != trials")
        expect(metrics["attacks.trials"] == trials, "attacks.trials != trials")
    if name == "warm_store":
        expect(metrics["runner.store.puts"] == 0, "runner.store.puts is not 0")
        expect(hits == workload.store_reads_per_pass, "runner.store.hits != jobs served")
    if name == "certify_static":
        expect(metrics["analysis.certify.cells"] > 0, "analysis.certify.cells is 0")
        expect(
            metrics["analysis.analyze_program.self_s"] > 0,
            "analysis.analyze_program was never reached",
        )
    return problems


#: Every per-layer metric a traced run reports: (name, unit, better).
#: Model counters (cycles, hits, misses, prefetches) must not move at all
#: under a pure speed-up; their ``better`` only says which way a model
#: change would be an improvement.
PER_LAYER: list[tuple[str, str, str]] = [
    ("cpu.core.dispatches", "count", "lower"),
    ("cpu.core.self_s", "s", "lower"),
    ("cpu.core.retired", "count", "higher"),
    ("cpu.core.fusion_ratio", "ratio", "higher"),
    ("cpu.system.runs", "count", "lower"),
    ("cpu.system.self_s", "s", "lower"),
    ("cpu.system.sim_cycles", "cycles", "lower"),
    ("mem.hierarchy.calls", "count", "lower"),
    ("mem.hierarchy.self_s", "s", "lower"),
    ("mem.cache.accesses", "count", "lower"),
    ("mem.cache.self_s", "s", "lower"),
    ("mem.cache.l1d_hits", "count", "higher"),
    ("mem.cache.l1d_misses", "count", "lower"),
    ("mem.cache.l2_misses", "count", "lower"),
    ("mem.cache.evictions", "count", "lower"),
    ("mem.mshr.allocations", "count", "lower"),
    ("mem.mshr.merge_hits", "count", "higher"),
    ("mem.mshr.self_s", "s", "lower"),
    ("core.prefender.observes", "count", "lower"),
    ("core.prefender.self_s", "s", "lower"),
    ("core.access_tracker.self_s", "s", "lower"),
    ("core.scale_tracker.self_s", "s", "lower"),
    ("core.record_protector.self_s", "s", "lower"),
    ("core.prefetches.st", "count", "higher"),
    ("core.prefetches.at", "count", "higher"),
    ("core.prefetches.rp", "count", "higher"),
    ("core.useful_ratio", "ratio", "higher"),
    ("core.protections", "count", "higher"),
    ("prefetch.observes", "count", "lower"),
    ("prefetch.self_s", "s", "lower"),
    ("snapshot.takes", "count", "lower"),
    ("snapshot.take_s", "s", "lower"),
    ("snapshot.restores", "count", "lower"),
    ("snapshot.restore_s", "s", "lower"),
    ("attacks.trials", "count", "higher"),
    ("attacks.leakage.self_s", "s", "lower"),
    ("isa.finalize.calls", "count", "lower"),
    ("isa.finalize.self_s", "s", "lower"),
    ("workloads.build.self_s", "s", "lower"),
    ("runner.job_key.calls", "count", "lower"),
    ("runner.job_key.self_s", "s", "lower"),
    ("runner.batch.self_s", "s", "lower"),
    ("runner.store.gets", "count", "lower"),
    ("runner.store.get_s", "s", "lower"),
    ("runner.store.puts", "count", "lower"),
    ("runner.store.put_s", "s", "lower"),
    ("runner.store.hits", "count", "higher"),
    ("runner.store.misses", "count", "lower"),
    ("experiments.memo.hits", "count", "higher"),
    ("experiments.memo.misses", "count", "lower"),
    ("analysis.analyze_program.self_s", "s", "lower"),
    ("analysis.taint.self_s", "s", "lower"),
    ("analysis.timing.self_s", "s", "lower"),
    ("analysis.cachemodel.self_s", "s", "lower"),
    ("analysis.certify.self_s", "s", "lower"),
    ("analysis.certify.cells", "count", "higher"),
    ("analysis.certify.unknown", "count", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("sim_cycles_per_s", "cycles/s", "higher"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]
