"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload perf_grid --seed 0 --seconds 20 --trace 0

Workloads: ``perf_grid``, ``attack_scenarios``, ``certify_static`` and
``warm_store`` (see :mod:`perfbench.workloads`).  One run sets up, times
as many whole passes of the workload as fit in ``--seconds`` seconds (at
least one), checks every pass against the pinned reference and prints a
report.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds
  per pass at the reference host speed, see :func:`calibration_s`),
  ``ops_per_s``, ``setup_s`` and ``peak_rss_mb``;
* ``--trace 1`` times one untraced pass, then traced passes, and reports
  the per-layer metrics of :mod:`perfbench.trace` plus the tracing
  overhead against the untraced pass.

Everything runs in this process at ``jobs=1``; the benchmark writes only
under ``.perfbench_work/`` in the checkout and removes what it wrote.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"

#: Set-up is measured this many times per run (fresh processes), median kept.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150
#: The calibration loop's length, and its time at the reference speed.
CALIBRATION_ITERATIONS = 100_000
CALIBRATION_REFERENCE_S = 0.025


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set the workload up and exit (one setup_s sample)",
    )
    return parser.parse_args(argv)


def load_program() -> None:
    """Make ``repro`` and ``perfbench`` importable, or exit without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def pin_to_one_cpu() -> None:
    """Keep this run, its calibration and its set-up probes on one CPU.

    A calibration reading describes only the CPU it ran on; if the
    scheduler moved the run between CPUs that neighbours load differently,
    the rescaling would mix their speeds.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Reference-speed seconds of fresh processes that import, build and warm up."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    probe = functools.partial(
        subprocess.run,
        command,
        cwd=ROOT,
        check=True,
        timeout=SETUP_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    return [run_steps([probe])[1] for _ in range(SETUP_SAMPLES)]


class Tally:
    """What the checks found over every pass, and per-pass program counters.

    Each pass is checked as soon as it is timed and then dropped, so the
    heap -- and the garbage collector's work -- does not grow with the
    number of passes.
    """

    COUNTERS = ("store_hits", "store_misses", "memo_hits", "memo_misses")

    def __init__(self, workload, reference) -> None:
        self.workload = workload
        self.reference = reference
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: set[str] = set()
        self.labels: set[str] = set()
        self.ops = 0
        self.sim_cycles = 0
        self.counters = dict.fromkeys(self.COUNTERS + ("model_instructions",), 0.0)

    def add(self, output) -> None:
        failures = self.workload.check(output, self.reference)
        self.passes += 1
        self.attempted += output.ops
        self.failed += min(len(failures), output.ops)
        self.problems.update(failures)
        self.labels.update(label for label, _ in output.items)
        self.ops, self.sim_cycles = output.ops, output.sim_cycles
        for key in self.COUNTERS:
            self.counters[key] += output.counters.get(key, 0)
        self.counters["model_instructions"] += sum(
            getattr(result, "instructions", 0) for _, result in output.items
        )

    def per_pass(self) -> dict[str, float]:
        return {key: value / self.passes for key, value in self.counters.items()}


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    Shared hosts change speed by tens of percent within a minute.  Timing
    this loop (median of three readings) around every step lets each
    step's host time be rescaled to the reference speed, the speed at
    which one reading takes ``CALIBRATION_REFERENCE_S``.  The loop does
    not touch the program, so a change to the program cannot move it.
    """
    readings = []
    for _ in range(3):
        start = time.perf_counter()
        slots: dict[int, int] = {}
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            slots[i & 1023] = acc
            acc = (acc + i * 7) & 0xFFFF
            if acc & 1:
                acc ^= 0x55
        readings.append(time.perf_counter() - start)
    return statistics.median(readings)


def run_steps(steps, tracer=None) -> tuple[float, float, object]:
    """Run ``steps`` in order; return (host s, reference-speed s, last result).

    Each step's host time is rescaled by the calibration timed just before
    and just after it; the calibration itself is not counted.
    """
    host = scaled = 0.0
    result = None
    before = calibration_s()
    for step in steps:
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            result = step()
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = calibration_s()
        host += elapsed
        scaled += elapsed * 2 * CALIBRATION_REFERENCE_S / (before + after)
        before = after
    return host, scaled, result


def timed_passes(workload, seconds: float, tally: Tally, tracer=None):
    """As many whole passes as fit in ``seconds``; at least one.

    Returns the passes' host seconds and reference-speed seconds.
    """
    hosts: list[float] = []
    walls: list[float] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        host, wall, output = run_steps(workload.pass_steps(), tracer)
        hosts.append(host)
        walls.append(wall)
        tally.add(output)
        del output
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(walls) > seconds:
            return hosts, walls


def main(argv: list[str] | None = None) -> int:
    load_program()
    from perfbench import trace, workloads
    from perfbench.reference import load_reference

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    pin_to_one_cpu()

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        workload.warm_up()
        if args.setup_probe:
            return 0
        setup_samples = measure_setup(args)
        populate_s = run_steps(workload.populate_steps())[1]

        reference = load_reference()
        untraced = Tally(workload, reference)
        tracer = trace.Tracer() if args.trace else None
        if tracer is not None:
            _, untraced_walls = timed_passes(workload, 0.0, untraced)
            tally = Tally(workload, reference)
        else:
            tally = untraced
        hosts, walls = timed_passes(workload, args.seconds, tally, tracer)

        attempted = tally.attempted + (untraced.attempted if tracer else 0)
        failed = tally.failed + (untraced.failed if tracer else 0)
        problems = sorted(tally.problems | untraced.problems)
        wall_s = statistics.median(walls)
        ops = tally.ops
        setup_s = statistics.median(setup_samples) + populate_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"{args.workload}: seed {args.seed}, {len(walls)} timed pass(es) of "
            f"{ops} {workload.op_unit}(s); wall_s median {wall_s:.4f} "
            f"(min {min(walls):.4f}, max {max(walls):.4f}) at reference speed; "
            f"host seconds median {statistics.median(hosts):.4f} "
            f"(min {min(hosts):.4f}, max {max(hosts):.4f})"
        )
        print(
            f"setup_s {setup_s:.4f} = median of {SETUP_SAMPLES} cold set-ups "
            f"{[round(s, 4) for s in setup_samples]} + populate {populate_s:.4f}"
        )
        sim_cycles = tally.sim_cycles
        if sim_cycles and tracer is None:
            print(f"sim_cycles_per_s {sim_cycles / wall_s:.1f} ({sim_cycles} simulated cycles/pass)")
        print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
        for label in problems[:20]:
            print(f"FAILED {label}")
        for label in workloads.known_leaks(reference):
            if label in tally.labels:
                print(f"known leak drawn by this seed (pinned, succeeds under FULL): {label}")

        correct = failed == 0 and not problems
        if tracer is None:
            metrics = {
                "wall_s": (wall_s, "s"),
                "ops_per_s": (ops / wall_s, "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            untraced_s = statistics.median(untraced_walls)
            program = tally.per_pass()
            layer = tracer.metrics(hosts, walls, untraced_s, sim_cycles, program)
            check = trace.self_check(workload, layer, program)
            for message in check:
                print(f"TRACE SELF-CHECK FAILED: {message}")
            correct = correct and not check
            print(
                f"trace: overhead {layer['trace.overhead']:.3f} "
                f"(traced {wall_s:.4f} s vs untraced {untraced_s:.4f} s per pass), "
                f"{len(tracer.spans)} spans recorded, {tracer.dropped_spans} dropped"
            )
            (work_dir.parent / f"trace-{args.workload}.json").write_text(
                json.dumps({"layers": tracer.stats, "spans": tracer.spans})
            )
            units = {name: unit for name, unit, _ in trace.PER_LAYER}
            metrics = {name: (layer[name], units[name]) for name in units}

        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
