"""Pinned reference outputs and the digests the checks compare against.

``reference.json`` holds, for the default seed:

* the sha256 of the rendered Table IV text, of the scenario report and of
  the ``analyze`` JSON;
* for every simulation of the Table IV grid, the model counters (simulated
  cycles, retired instructions, L1D/L2 hits and misses, prefetches by
  component, ``defense_stats``) plus a digest of the whole ``SimResult``;
* for every scenario trial over each victim's *whole* secret space, its
  simulated cycles, verdict and a digest of the whole ``ScenarioProbe`` --
  so trials drawn by any seed are checked exactly;
* a digest of every ``analyze`` program record and certified cell.

Host times and ``Core.step`` dispatch counts are kept out on purpose: an
optimisation may change them (loop fusion changes dispatches) without
changing what the model computes.

The file was written from the outputs of the commit that introduced the
benchmark.  Regenerate it only on a commit whose outputs are known to be
right, since every later check trusts it:

    PYTHONPATH=src python3 -m perfbench.reference --pin
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def canonical(value: Any) -> str:
    """Stable JSON text of ``value`` (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """sha256 of a text, or of the canonical JSON of any other value."""
    text = value if isinstance(value, str) else canonical(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_entry(result: Any) -> dict[str, Any]:
    """The pinned view of one ``SimResult``."""
    data = result.to_json()
    l1d = data["l1d_stats"]
    return {
        "cycles": data["cycles"],
        "instructions": data["instructions"],
        "l1d_hits": sum(stats["hits"] for stats in l1d),
        "l1d_misses": sum(stats["misses"] for stats in l1d),
        "l2_hits": data["l2_stats"]["hits"],
        "l2_misses": data["l2_stats"]["misses"],
        "prefetch_counts": data["prefetch_counts"],
        "defense_stats": data["defense_stats"],
        "sha256": digest(data),
    }


def probe_entry(probe: Any) -> dict[str, Any]:
    """The pinned view of one ``ScenarioProbe``."""
    data = probe.to_json()
    return {
        "cycles": data["cycles"],
        "succeeded": data["succeeded"],
        "sha256": digest(data),
    }


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def pin() -> dict[str, Any]:
    """Compute the reference from the current program's outputs."""
    import tempfile

    from repro.attacks import scenarios
    from repro.runner import ScenarioJob, run_batch
    from repro.sim.config import SystemConfig
    from repro.workloads.crypto import get_victim

    from perfbench import workloads

    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        grid = workloads.PerfGrid(workloads.DEFAULT_SEED, work).run_pass()
        report = workloads.AttackScenarios(workloads.DEFAULT_SEED, work).run_pass()
        analyze = workloads.CertifyStatic(workloads.DEFAULT_SEED, work).run_pass()

    trials: dict[str, Any] = {}
    for defense in scenarios.DEFAULT_DEFENSES:
        system = SystemConfig(prefetcher=scenarios.defense_spec(defense))
        for victim in scenarios.DEFAULT_VICTIMS:
            space = range(get_victim(victim).secret_space)
            for attack in scenarios.DEFAULT_ATTACKS:
                jobs = [ScenarioJob.build(attack, victim, s, system) for s in space]
                for secret, probe in zip(
                    space, run_batch(jobs, reuse_snapshots=True)
                ):
                    label = f"{victim}|{attack}|{defense}|{secret}"
                    trials[label] = probe_entry(probe)

    return {
        "perf_grid": {
            "scale": workloads.GRID_SCALE,
            "table_sha256": digest(grid.text),
            "jobs": {label: sim_entry(result) for label, result in grid.items},
        },
        "attack_scenarios": {
            "render_sha256": digest(report.text),
            "trials": dict(sorted(trials.items())),
        },
        "certify_static": {
            "args": list(workloads.ANALYZE_ARGS),
            "json_sha256": digest(analyze.text),
            "entries": {label: digest(entry) for label, entry in analyze.items},
        },
    }


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--pin"]:
        raise SystemExit("usage: python3 -m perfbench.reference --pin")
    REFERENCE_PATH.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
