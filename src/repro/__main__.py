"""Command-line front door: ``python -m repro <command>``.

Commands:

* ``attack``   — run an attack × defense grid and print one verdict line
  per cell; ``--name adversarial-prefetch`` expands to the A1/A2 variants
* ``scenarios`` — crypto-victim leakage suite: every attack × victim ×
  defense cell runs over a set of trial secrets and is scored by attacker
  success rate and a mutual-information estimate (bits of secret leaked)
* ``figure8``  — regenerate the security matrix (one attack/challenge)
* ``table``    — regenerate a performance table (4, 5 or 6)
* ``sweep``    — improvements for an arbitrary workload × prefetcher grid
* ``frontier`` — defense-vs-performance Pareto frontier over PREFENDER
  knob grids (``at_threshold`` × ``entries_per_buffer`` ×
  ``st_max_prefetches``), with no-defense and PCG-style baselines
* ``hwcost``   — print the Section V-E resource report
* ``ablation`` — run the Table II related-work ablation
* ``bench``    — time the simulator's three throughput scenarios
  (single-core victim, dual-core attack, speculative Spectre) and emit
  ``BENCH_sim_throughput.json``; ``--quick`` shrinks the workload for CI
  smoke runs
* ``analyze``  — static analysis (CFG + dataflow) over ``.asm`` files
  and/or every built-in workload, crypto victim and attack program
  (``--builtin``); findings carry source line numbers and rule IDs from
  :data:`repro.analysis.ANALYSIS_RULES`.  ``--taint`` adds the
  secret-taint classification and static per-secret leak maps;
  ``--json`` emits one machine-readable document.  The exit code is
  non-zero only for *error*-severity findings and build failures

Simulation batches go through :mod:`repro.runner`: every run is keyed by a
content hash over the *full* configuration (workload, scale and every
``SystemConfig``/``PrefenderConfig``/``CoreConfig``/``HierarchyConfig``
field), deduplicated, and sharded across processes.

* ``--jobs N`` (``attack``, ``table``, ``sweep``, ``frontier``,
  ``ablation``) runs up to N simulations in parallel; ``--jobs 0`` uses
  every CPU core.  Output is byte-identical to a sequential run.
  ``frontier`` keeps one persistent warm worker pool across its batches,
  so workers fork once for the whole sweep.
* ``--store`` (``attack``, ``table``, ``sweep``, ``frontier``) persists results as
  JSON under ``benchmarks/results/cache/`` (relative to the invocation
  directory) and reuses them on later invocations; keys are lossless, so
  a cached result is only ever served for the exact same configuration.
* ``--store-max-mb M`` caps that cache: least-recently-used entries are
  evicted once it outgrows M megabytes.

Examples::

    python -m repro table 4 --scale 0.5 --jobs 4
    python -m repro sweep --workloads 429.mcf,462.libquantum \\
        --kinds prefender,tagged --buffers 16,32 --jobs 0 --store
    python -m repro frontier --grid "at_threshold=2,4,6" --jobs 2 \\
        --store --store-max-mb 64
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.attacks import scenarios
from repro.attacks.base import verdict_line
from repro.errors import ConfigError
from repro.experiments import figure8, frontier, related, table4, table5, table6
from repro.experiments.common import (
    DEFENSES,
    improvement_rows,
    security_spec,
    table_spec,
)
from repro.hwcost import estimate, render_report
from repro.runner import (
    ADVERSARIAL_PREFETCH_FAMILY,
    ADVERSARIAL_PREFETCH_VARIANTS,
    ATTACK_KINDS,
    DEFAULT_CACHE_DIR,
    AttackProbe,
    AttackProbeJob,
    ResultStore,
    WorkerPool,
    run_batch,
)
from repro.sim.config import PREFETCHER_KINDS, PrefetcherSpec, SystemConfig
from repro.utils.tables import render_table
from repro.workloads import SPEC2006_NAMES, SPEC2017_NAMES, workload_names


def _scale_arg(text: str) -> float:
    """Positive-float argparse type for ``--scale`` (rejects <= 0)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid scale {text!r}") from None
    if not value > 0:  # also rejects NaN
        # Backed by the same ConfigError SimJob raises if a bad scale ever
        # reaches job construction by another path.
        error = ConfigError(
            f"--scale must be > 0 (workload loop counts scale with it), "
            f"got {value}"
        )
        raise argparse.ArgumentTypeError(str(error)) from error
    return value


def _jobs_arg(text: str) -> int:
    """Worker count for ``--jobs``: >= 1, or 0 for one per CPU core."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid job count {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 0, got {value}")
    return value


def _store_max_mb_arg(text: str) -> float:
    """Megabyte cap for ``--store-max-mb``: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size {text!r}") from None
    if not (value > 0 and math.isfinite(value * 1024 * 1024)):  # rejects NaN too
        raise argparse.ArgumentTypeError(f"--store-max-mb must be > 0, got {value}")
    return value


def _store_for(args: argparse.Namespace) -> ResultStore | None:
    """Build the disk store the command asked for (None without ``--store``)."""
    max_mb = getattr(args, "store_max_mb", None)
    if max_mb is not None and not args.store:
        raise ConfigError("--store-max-mb only makes sense with --store")
    if not args.store:
        return None
    max_bytes = int(max_mb * 1024 * 1024) if max_mb is not None else None
    return ResultStore(DEFAULT_CACHE_DIR, max_bytes=max_bytes)


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--store`` / ``--store-max-mb`` pair (table/sweep/frontier)."""
    parser.add_argument(
        "--store", action="store_true",
        help=f"persist/reuse results under {DEFAULT_CACHE_DIR}",
    )
    parser.add_argument(
        "--store-max-mb", type=_store_max_mb_arg, default=None, metavar="MB",
        help="cap the store; least-recently-used entries are evicted beyond "
        "this size (requires --store)",
    )


def _attack_kinds_for(args: argparse.Namespace) -> list[str]:
    """Resolve the positional kind / ``--name`` / ``--variant`` trio."""
    if args.attack and args.name:
        raise ConfigError("give either a positional attack kind or --name, not both")
    name = args.attack or args.name
    if name is None:
        raise ConfigError("attack needs a kind (positional or --name)")
    if name == ADVERSARIAL_PREFETCH_FAMILY:
        variants = (
            tuple(sorted(ADVERSARIAL_PREFETCH_VARIANTS))
            if args.variant == "both"
            else (args.variant,)
        )
        return [ADVERSARIAL_PREFETCH_VARIANTS[variant] for variant in variants]
    if args.variant != "both":
        raise ConfigError(
            f"--variant only applies to --name {ADVERSARIAL_PREFETCH_FAMILY}"
        )
    return [name]


def _probe_summary(probe: AttackProbe, defense_label: str) -> str:
    """One verdict line per grid cell, in AttackOutcome.summary's format."""
    return verdict_line(
        ATTACK_KINDS[probe.attack].name,
        probe.challenges,
        defense_label,
        probe.succeeded,
        probe.candidates,
        probe.secret,
    )


def _cmd_attack(args: argparse.Namespace) -> int:
    kinds = _attack_kinds_for(args)
    defenses = [d.strip() for d in args.defense.split(",") if d.strip()]
    for defense in defenses:
        if defense not in DEFENSES:
            raise ConfigError(
                f"unknown defense {defense!r}; choose from {DEFENSES}"
            )
    if not defenses:
        raise ConfigError("--defense needs at least one defense")
    # Option flags only override when set, so attack-class defaults (e.g.
    # adversarial-prefetch's cross_core=True) survive untouched.
    overrides: dict[str, object] = {}
    if args.c3:
        overrides["noise_c3"] = True
    if args.c4:
        overrides["noise_c4"] = True
    if args.spectre:
        overrides["victim_mode"] = "spectre"
    if args.cross_core:
        overrides["cross_core"] = True
    cells = [(kind, defense) for kind in kinds for defense in defenses]
    jobs = [
        AttackProbeJob.build(
            kind, SystemConfig(prefetcher=security_spec(defense)), **overrides
        )
        for kind, defense in cells
    ]
    probes = run_batch(jobs, workers=args.jobs, store=_store_for(args))
    for (_, defense), probe in zip(cells, probes):
        print(_probe_summary(probe, security_spec(defense).label))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    def _split(text: str) -> tuple[str, ...]:
        return tuple(part.strip() for part in text.split(",") if part.strip())

    result = scenarios.run(
        victims=_split(args.victims),
        attacks=_split(args.attacks),
        defenses=_split(args.defenses),
        secrets=args.secrets,
        jobs=args.jobs,
        store=_store_for(args),
        reuse_snapshots=not args.no_reuse_snapshots,
    )
    print(scenarios.render(result))
    return 0


def _cmd_figure8(args: argparse.Namespace) -> int:
    panels = figure8.run(jobs=args.jobs, store=_store_for(args))
    print(figure8.render(panels))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    module = {4: table4, 5: table5, 6: table6}[args.number]
    result = module.run(scale=args.scale, jobs=args.jobs, store=_store_for(args))
    print(module.render(result))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.workloads:
        names = args.workloads.split(",")
    else:
        names = {
            "spec2006": SPEC2006_NAMES,
            "spec2017": SPEC2017_NAMES,
            "all": workload_names(),
        }[args.suite]
    try:
        buffers = [int(b) for b in args.buffers.split(",")]
    except ValueError:
        raise ConfigError(
            f"--buffers must be comma-separated integers, got {args.buffers!r}"
        ) from None
    specs: list[tuple[str, PrefetcherSpec]] = []
    for kind in args.kinds.split(","):
        if kind not in PREFETCHER_KINDS:
            raise ConfigError(
                f"unknown prefetcher kind {kind!r}; "
                f"choose from {PREFETCHER_KINDS}"
            )
        if kind == "none":
            specs.append(("Baseline", PrefetcherSpec(kind="none")))
        elif "prefender" in kind:
            for count in buffers:
                specs.append(
                    (f"{kind}/{count}", table_spec(kind, count, with_rp=args.rp))
                )
        else:
            specs.append((kind, table_spec(kind)))
    rows, averages = improvement_rows(
        names, specs, args.scale, workers=args.jobs, store=_store_for(args)
    )
    rows.append(["Avg."] + averages)
    print(
        render_table(
            ["benchmark"] + [header for header, _ in specs],
            rows,
            title=f"Sweep: improvement vs baseline (scale {args.scale})",
        )
    )
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    grid = frontier.parse_grid(args.grid)
    store = _store_for(args)
    # One warm pool for the whole sweep: both of the frontier's batches
    # (attack probes, then perf runs) reuse the same forked workers.
    pool = WorkerPool(args.jobs) if args.jobs != 1 else None
    try:
        result = frontier.run(
            grid=grid,
            attacks=tuple(args.attacks.split(",")),
            workloads=tuple(args.workloads.split(",")),
            scale=args.scale,
            buffers=args.buffers,
            jobs=args.jobs,
            store=store,
            pool=pool,
        )
    finally:
        if pool is not None:
            pool.close()
    print(frontier.render(result))
    if store is not None:
        print(
            f"store: {store.hits} hit(s), {store.misses} miss(es), "
            f"{store.evictions} evicted, {len(store)} entries on disk"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.sim import bench

    scale = args.scale
    repeats = args.repeats
    if args.quick:
        scale = min(scale, bench.QUICK_SCALE)
        repeats = 1
    report = bench.run_bench(scale=scale, repeats=repeats, workload=args.workload)
    path = bench.write_report(report, args.output)
    print(bench.render_report(report))
    print(f"wrote {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.analysis import (
        ANALYSIS_RULES,
        analyze_program,
        cache_distinguishers,
        leak_map,
        render_findings,
        trial_intervals,
    )
    from repro.errors import AnalysisError, AssemblyError
    from repro.isa.assembler import assemble

    if args.list_rules:
        for rule_id, (severity, description, fixit) in sorted(
            ANALYSIS_RULES.items()
        ):
            print(f"{rule_id}  [{severity}] {description}")
            print(f"          fix: {fixit}")
        return 0
    if not args.paths and not args.builtin and not args.certify:
        raise ConfigError(
            "analyze needs .asm paths, --builtin and/or --certify"
        )
    sources: list[tuple[str, str]] = []
    for path in args.paths:
        try:
            sources.append((path, Path(path).read_text(encoding="utf-8")))
        except OSError as error:
            raise ConfigError(f"cannot read {path}: {error.strerror}") from None

    checked = 0
    error_count = 0
    records: list[dict] = []
    timing_records: list[dict] = []
    cache_records: list[dict] = []

    def interval_payload(interval) -> dict:
        return {"lo": interval.lo, "hi": interval.hi}

    def finding_payload(program, finding) -> dict:
        severity, _, fixit = ANALYSIS_RULES[finding.rule]
        line = None
        if finding.index is not None and finding.index < len(
            program.source_lines
        ):
            line = program.source_lines[finding.index]
        return {
            "rule": finding.rule,
            "severity": severity,
            "program": program.name,
            "index": finding.index,
            "line": line,
            "message": finding.message,
            "fixit": fixit,
        }

    def report(program, source: str, leak_maps=None, secrets=None) -> None:
        nonlocal checked, error_count
        checked += 1
        analysis = program.analysis
        if analysis is None:
            analysis = analyze_program(program)
        error_count += len(analysis.errors())
        intervals = None
        distinguisher = None
        if args.timing:
            bounds = analysis.timing.bounds
            timing_entry: dict = {
                "program": program.name,
                "source": source,
                "bounds": interval_payload(bounds),
            }
            if secrets and program.taint_sources:
                intervals = trial_intervals(program, secrets)
                timing_entry["intervals"] = {
                    str(secret): interval_payload(interval)
                    for secret, interval in intervals.items()
                }
                distinguisher = cache_distinguishers(
                    program, secrets=secrets
                )
                cache_records.append(
                    {
                        "program": program.name,
                        "source": source,
                        "secrets": list(distinguisher.secrets),
                        "distinguishable": distinguisher.distinguishable,
                        "witness": (
                            list(distinguisher.witness)
                            if distinguisher.witness is not None
                            else None
                        ),
                        "index": distinguisher.index,
                        "detail": distinguisher.detail,
                    }
                )
            timing_records.append(timing_entry)
        record: dict = {
            "program": program.name,
            "source": source,
            "instructions": len(program),
            "findings": [
                finding_payload(program, f) for f in analysis.findings
            ],
            "suppressed": len(analysis.suppressed),
        }
        if args.taint:
            taint = analysis.taint
            record["taint"] = {
                "sources": list(taint.sources),
                "secret_addressed": list(taint.secret_addressed()),
                "secret_valued": list(taint.secret_valued()),
                "secret_branches": list(taint.branches),
                "undeclared": list(taint.undeclared),
                "leaks": taint.leaks,
            }
            if leak_maps is not None:
                record["leak_map"] = {
                    str(secret): list(indices)
                    for secret, indices in leak_maps
                }
        records.append(record)
        if args.json:
            return
        for line in render_findings(program, analysis):
            print(line)
        if args.taint:
            taint = analysis.taint
            print(
                f"{program.name}: taint: {len(taint.sources)} source(s), "
                f"{len(taint.secret_addressed())} secret-addressed, "
                f"{len(taint.secret_valued())} secret-valued, "
                f"{len(taint.branches)} secret branch(es) -> "
                f"{'leaks' if taint.leaks else 'clean'}"
            )
            if leak_maps is not None:
                footprints = {indices for _, indices in leak_maps}
                print(
                    f"{program.name}: leak map: {len(leak_maps)} secret(s), "
                    f"{len(footprints)} distinct footprint(s)"
                )
                if len(leak_maps) <= 16:
                    for secret, indices in leak_maps:
                        print(
                            f"{program.name}:   secret {secret} -> "
                            f"{list(indices)}"
                        )
        elif args.verbose and not analysis.findings:
            print(
                f"{program.name}: clean ({len(program)} instruction(s), "
                f"{len(analysis.cfg.blocks)} block(s), "
                f"{len(analysis.suppressed)} suppressed)"
            )
        if args.timing:
            bounds = analysis.timing.bounds
            hi = "unbounded" if bounds.hi is None else bounds.hi
            print(f"{program.name}: timing: path bounds [{bounds.lo}, {hi}]")
            if intervals is not None:
                for secret, interval in intervals.items():
                    hi = (
                        "unresolved"
                        if interval.hi is None
                        else interval.hi
                    )
                    print(
                        f"{program.name}:   secret {secret} -> "
                        f"[{interval.lo}, {hi}]"
                    )
                distinct = {
                    (interval.lo, interval.hi)
                    for interval in intervals.values()
                }
                constant = len(distinct) == 1 and all(
                    interval.exact for interval in intervals.values()
                )
                print(
                    f"{program.name}: timing: "
                    + (
                        "constant-time across "
                        f"{len(intervals)} trial secret(s)"
                        if constant
                        else f"{len(distinct)} distinct cycle interval(s) "
                        f"over {len(intervals)} trial secret(s)"
                    )
                )
            if distinguisher is not None:
                print(
                    f"{program.name}: cache: "
                    + (
                        "DISTINGUISHABLE"
                        if distinguisher.distinguishable
                        else "indistinguishable"
                    )
                    + f" -- {distinguisher.detail}"
                )

    def guarded(build, label: str, leak_maps=None, secrets=None) -> None:
        nonlocal checked, error_count
        try:
            programs = build()
        except AnalysisError as error:
            checked += 1
            error_count += 1
            records.append({"program": label, "build_error": str(error)})
            if not args.json:
                print(f"{label}: {error}")
            return
        for program in programs:
            report(
                program,
                label,
                leak_maps=leak_maps if program.taint_sources else None,
                secrets=secrets,
            )

    if args.builtin:
        from repro.runner import ATTACK_KINDS as attack_kinds
        from repro.workloads import get_workload, workload_names
        from repro.workloads.crypto import get_victim, victim_names

        for name in workload_names():
            guarded(lambda n=name: [get_workload(n).program()], name)
        for kind in sorted(attack_kinds):
            guarded(
                lambda k=kind: attack_kinds[k]().build_programs(), kind
            )
        for victim in victim_names():
            descriptor = get_victim(victim)
            attack = attack_kinds["flush-reload"](
                victim=victim,
                num_indices=descriptor.num_indices,
                secret=0,
            )
            leak_maps = None
            if args.taint:
                try:
                    carriers = [
                        p
                        for p in attack.build_programs()
                        if p.taint_sources
                    ]
                except AnalysisError:
                    carriers = []
                if carriers:
                    leak_maps = [
                        (
                            secret,
                            leak_map(
                                carriers[0],
                                secret,
                                probe_base=attack.layout.probe_base,
                                scale=attack.options.scale,
                                num_indices=attack.options.num_indices,
                            ),
                        )
                        for secret in range(descriptor.secret_space)
                    ]
            guarded(
                lambda a=attack: a.build_programs(),
                f"victim {victim}",
                leak_maps=leak_maps,
                secrets=(
                    descriptor.trial_secrets(
                        min(8, descriptor.secret_space)
                    )
                    if args.timing
                    else None
                ),
            )

    for path, source in sources:
        try:
            program = assemble(source, name=Path(path).stem)
        except AssemblyError as error:
            checked += 1
            error_count += 1
            records.append({"program": str(path), "build_error": str(error)})
            if not args.json:
                print(f"{path}: {error}")
            continue
        report(
            program,
            str(path),
            secrets=(
                (0, 1, 2, 3)
                if args.timing and program.taint_sources
                else None
            ),
        )

    certify_section: dict = {"enabled": False}
    if args.certify:
        from repro.analysis import certify_grid

        report_grid = certify_grid()
        cells = []
        findings = []
        for cell in report_grid.cells:
            cells.append(
                {
                    "attack": cell.attack,
                    "coverage": cell.coverage,
                    "defense": cell.defense,
                    "detail": cell.detail,
                    "distinguishing": list(cell.distinguishing),
                    "feasible": cell.feasible,
                    "havoc": list(cell.havoc),
                    "secrets": list(cell.secrets),
                    "verdict": cell.verdict,
                    "victim": cell.victim,
                    "witness": (
                        list(cell.witness)
                        if cell.witness is not None
                        else None
                    ),
                }
            )
            rule = None
            if cell.verdict == "LEAKS":
                rule = "AN-ATTACK-FEASIBLE"
            elif cell.verdict == "DEFENDED":
                rule = "AN-DEFENSE-CERTIFIED"
            if rule is not None:
                severity, _, fixit = ANALYSIS_RULES[rule]
                findings.append(
                    {
                        "attack": cell.attack,
                        "defense": cell.defense,
                        "fixit": fixit,
                        "message": cell.detail,
                        "rule": rule,
                        "severity": severity,
                        "victim": cell.victim,
                        "witness": (
                            list(cell.witness)
                            if cell.witness is not None
                            else None
                        ),
                    }
                )
        certify_section = {
            "enabled": True,
            "victims": sorted({c.victim for c in report_grid.cells}),
            "attacks": sorted({c.attack for c in report_grid.cells}),
            "defenses": sorted({c.defense for c in report_grid.cells}),
            "matrix": cells,
            "findings": findings,
            "verdicts": {
                verdict: report_grid.count(verdict)
                for verdict in ("LEAKS", "DEFENDED", "UNKNOWN")
            },
        }
        if not args.json:
            for cell in report_grid.cells:
                print(
                    f"certify: {cell.victim} x {cell.attack} x "
                    f"{cell.defense} -> {cell.verdict} "
                    f"(coverage {cell.coverage}) -- {cell.detail}"
                )
            print(
                f"certify: {len(report_grid.cells)} cell(s): "
                f"{report_grid.count('LEAKS')} LEAKS, "
                f"{report_grid.count('DEFENDED')} DEFENDED, "
                f"{report_grid.count('UNKNOWN')} UNKNOWN"
            )

    if args.json:
        timing_section: dict = {"enabled": False}
        cache_section: dict = {"enabled": False}
        if args.timing:
            timing_section = {"enabled": True, "programs": timing_records}
            cache_section = {
                "enabled": True,
                "distinguishers": cache_records,
            }
        print(
            json_module.dumps(
                {
                    "schema": "analyze/v3",
                    "checked": checked,
                    "errors": error_count,
                    "programs": records,
                    "timing": timing_section,
                    "cache": cache_section,
                    "certify": certify_section,
                },
                indent=2,
            )
        )
    else:
        print(f"analyze: {checked} program(s), {error_count} error(s)")
    return 1 if error_count else 0


def _cmd_hwcost(args: argparse.Namespace) -> int:
    print(render_report(estimate(buffers=args.buffers)))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    rows = related.run(jobs=args.jobs)
    print(related.render(rows))
    return 0 if all(row.matches_paper for row in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    attack = commands.add_parser(
        "attack", help="run an attack (or attack family) against defenses"
    )
    attack.add_argument(
        "attack", nargs="?", choices=sorted(ATTACK_KINDS),
        help="single attack kind (alternative to --name)",
    )
    attack.add_argument(
        "--name",
        choices=sorted(ATTACK_KINDS) + [ADVERSARIAL_PREFETCH_FAMILY],
        help="attack kind or family; "
        f"{ADVERSARIAL_PREFETCH_FAMILY!r} expands to every variant",
    )
    attack.add_argument(
        "--variant", choices=("a1", "a2", "both"), default="both",
        help=f"variant filter for --name {ADVERSARIAL_PREFETCH_FAMILY}",
    )
    attack.add_argument(
        "--defense", default="Base",
        help=f"comma-separated defenses from {DEFENSES}",
    )
    attack.add_argument("--c3", action="store_true", help="noisy instructions")
    attack.add_argument("--c4", action="store_true", help="noisy accesses")
    attack.add_argument("--spectre", action="store_true")
    attack.add_argument("--cross-core", action="store_true")
    attack.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="parallel simulation processes (0 = all cores)",
    )
    _add_store_flags(attack)
    attack.set_defaults(handler=_cmd_attack)

    scenarios_cmd = commands.add_parser(
        "scenarios",
        help="crypto-victim leakage suite (success rate + mutual information)",
    )
    scenarios_cmd.add_argument(
        "--victims", default=",".join(scenarios.DEFAULT_VICTIMS),
        help="comma-separated victim names from the crypto registry "
        "(aes-ttable, rsa-sqmul, ecdsa-window, direct)",
    )
    scenarios_cmd.add_argument(
        "--attacks", default=",".join(scenarios.DEFAULT_ATTACKS),
        help=f"comma-separated attack kinds from {sorted(ATTACK_KINDS)}",
    )
    scenarios_cmd.add_argument(
        "--defenses", default=",".join(scenarios.DEFAULT_DEFENSES),
        help=f"comma-separated defenses from {DEFENSES}",
    )
    scenarios_cmd.add_argument(
        "--secrets", type=int, default=scenarios.DEFAULT_SECRETS,
        help="trial secrets per cell, evenly spaced over the victim's "
        "secret space",
    )
    scenarios_cmd.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="parallel simulation processes (0 = all cores)",
    )
    scenarios_cmd.add_argument(
        "--no-reuse-snapshots", action="store_true",
        help="rebuild the system for every trial secret instead of "
        "replaying each cell off one warmed snapshot (slower; results "
        "are byte-identical either way)",
    )
    _add_store_flags(scenarios_cmd)
    scenarios_cmd.set_defaults(handler=_cmd_scenarios)

    fig8 = commands.add_parser("figure8", help="security matrix")
    fig8.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="parallel simulation processes (0 = all cores)",
    )
    _add_store_flags(fig8)
    fig8.set_defaults(handler=_cmd_figure8)

    table = commands.add_parser("table", help="performance tables")
    table.add_argument("number", type=int, choices=(4, 5, 6))
    table.add_argument("--scale", type=_scale_arg, default=0.5)
    table.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="parallel simulation processes (0 = all cores)",
    )
    _add_store_flags(table)
    table.set_defaults(handler=_cmd_table)

    sweep = commands.add_parser(
        "sweep", help="arbitrary workload x prefetcher improvement grid"
    )
    sweep.add_argument(
        "--suite", choices=("spec2006", "spec2017", "all"), default="spec2006"
    )
    sweep.add_argument(
        "--workloads", default="",
        help="comma-separated workload names (overrides --suite)",
    )
    sweep.add_argument(
        "--kinds", default="prefender",
        help=f"comma-separated prefetcher kinds from {PREFETCHER_KINDS}",
    )
    sweep.add_argument(
        "--buffers", default="32",
        help="comma-separated access-buffer counts for prefender kinds",
    )
    sweep.add_argument(
        "--rp", action="store_true", help="enable the Record Protector"
    )
    sweep.add_argument(
        "--scale", type=_scale_arg, default=0.5,
        help="workload scale factor (loop counts scale with it)",
    )
    sweep.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="parallel simulation processes (0 = all cores)",
    )
    _add_store_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    frontier_cmd = commands.add_parser(
        "frontier",
        help="defense-vs-performance Pareto frontier over PREFENDER knob grids",
    )
    frontier_cmd.add_argument(
        "--grid", default="",
        help="semicolon-separated knob=v1,v2 pairs over "
        f"{frontier.GRID_KNOBS} (unset knobs keep the default grid), e.g. "
        '"at_threshold=2,4,6;entries_per_buffer=4,8"',
    )
    frontier_cmd.add_argument(
        "--attacks", default=",".join(frontier.DEFAULT_ATTACKS),
        help="comma-separated attack kinds scored for the success-rate axis",
    )
    frontier_cmd.add_argument(
        "--workloads", default=",".join(frontier.DEFAULT_WORKLOADS),
        help="comma-separated workloads scored for the normalized-cycles axis",
    )
    frontier_cmd.add_argument(
        "--buffers", type=int, default=frontier.DEFAULT_BUFFERS,
        help="access-buffer count per grid configuration",
    )
    frontier_cmd.add_argument(
        "--scale", type=_scale_arg, default=0.2,
        help="workload scale factor (loop counts scale with it)",
    )
    frontier_cmd.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="persistent pool workers shared by the sweep's batches "
        "(0 = all cores)",
    )
    _add_store_flags(frontier_cmd)
    frontier_cmd.set_defaults(handler=_cmd_frontier)

    bench_cmd = commands.add_parser(
        "bench",
        help="simulator throughput benchmark (emits BENCH_sim_throughput.json)",
    )
    bench_cmd.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: one pass at a reduced workload scale",
    )
    bench_cmd.add_argument(
        "--scale", type=_scale_arg, default=0.5,
        help="single-core workload scale factor (default 0.5)",
    )
    bench_cmd.add_argument(
        "--repeats", type=int, default=3,
        help="timed passes per scenario; the best one is reported",
    )
    bench_cmd.add_argument(
        "--workload", default="462.libquantum",
        help="workload for the single-core scenario",
    )
    bench_cmd.add_argument(
        "--output", default="BENCH_sim_throughput.json",
        help="report path (default: ./BENCH_sim_throughput.json)",
    )
    bench_cmd.set_defaults(handler=_cmd_bench)

    analyze = commands.add_parser(
        "analyze",
        help="static analysis (CFG + dataflow) of .asm files and built-ins",
    )
    analyze.add_argument(
        "paths", nargs="*", help="assembly source files to analyze"
    )
    analyze.add_argument(
        "--builtin", action="store_true",
        help="analyze every built-in workload, attack and crypto victim",
    )
    analyze.add_argument(
        "--verbose", action="store_true",
        help="also print a line for each clean program",
    )
    analyze.add_argument(
        "--list-rules", action="store_true",
        help="print the analysis rule catalog and exit",
    )
    analyze.add_argument(
        "--taint", action="store_true",
        help="report secret-taint classification and, for builtin crypto "
        "victims, the static per-secret leak map",
    )
    analyze.add_argument(
        "--timing", action="store_true",
        help="report abstract cycle bounds and, for secret-bearing "
        "programs, the per-secret timing map and cache-distinguisher "
        "verdict",
    )
    analyze.add_argument(
        "--certify", action="store_true",
        help="certify the attack x victim x defense grid: two-core "
        "abstract interpretation yielding LEAKS / DEFENDED / UNKNOWN "
        "per cell",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    hwcost = commands.add_parser("hwcost", help="Section V-E report")
    hwcost.add_argument("--buffers", type=int, default=32)
    hwcost.set_defaults(handler=_cmd_hwcost)

    ablation = commands.add_parser("ablation", help="Table II ablation")
    ablation.add_argument("--jobs", type=_jobs_arg, default=1)
    ablation.set_defaults(handler=_cmd_ablation)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as error:
        parser.error(str(error))


if __name__ == "__main__":
    sys.exit(main())
