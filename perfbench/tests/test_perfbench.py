"""Tests of the benchmark itself, at minimal size.

Every workload runs one smoke-size pass and must match the pinned
reference; a result copy perturbed by one simulated cycle must be counted
as failed; a traced pass must reach every layer the self-check names.
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import trace, workloads  # noqa: E402
from perfbench.reference import load_reference  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_matches_reference(name, tmp_path, reference):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path, smoke=True)
    workload.populate()
    output = workload.run_pass()
    assert output.ops > 0
    assert workload.check(output, reference) == []


def test_other_seed_reorders_grid_and_draws_secrets(tmp_path, reference):
    grid = workloads.PerfGrid(5, tmp_path, smoke=True)
    canonical = workloads.PerfGrid(workloads.DEFAULT_SEED, tmp_path, smoke=True)
    assert [label for label, _ in grid.cells] != [label for label, _ in canonical.cells]
    assert sorted(grid.cells, key=lambda cell: cell[0]) == sorted(
        canonical.cells, key=lambda cell: cell[0]
    )
    assert grid.check(grid.run_pass(), reference) == []
    secrets = {workloads.trial_secrets("aes-ttable", seed, 4) for seed in range(1, 6)}
    assert len(secrets) > 1


def test_simulation_one_cycle_off_counts_as_failed(tmp_path, reference):
    workload = workloads.PerfGrid(workloads.DEFAULT_SEED, tmp_path, smoke=True)
    output = workload.run_pass()
    label, result = output.items[3]
    perturbed = copy.deepcopy(result)
    perturbed.cycles += 1
    output.items[3] = (label, perturbed)
    assert workload.check(output, reference) == [label]


def test_scenario_trial_one_cycle_off_counts_as_failed(tmp_path, reference):
    workload = workloads.AttackScenarios(workloads.DEFAULT_SEED, tmp_path, smoke=True)
    output = workload.run_pass()
    label, probe = output.items[0]
    perturbed = copy.deepcopy(probe)
    perturbed.cycles += 1
    output.items[0] = (label, perturbed)
    assert workload.check(output, reference) == [label]


def test_traced_pass_reaches_every_layer_and_restores(tmp_path):
    from repro.cpu.core import Core
    from repro.runner import job as job_module

    original_step, original_key = Core.step, job_module.job_key
    workload = workloads.PerfGrid(workloads.DEFAULT_SEED, tmp_path, smoke=True)
    tracer = trace.Tracer()
    start = time.perf_counter()
    with tracer:
        output = workload.run_pass()
    wall = time.perf_counter() - start
    assert Core.step is original_step and job_module.job_key is original_key

    program = {
        "model_instructions": sum(result.instructions for _, result in output.items)
    }
    metrics = tracer.metrics([wall], [wall], wall, output.sim_cycles, program)
    assert trace.self_check(workload, metrics, program) == []
    assert metrics["cpu.system.runs"] == workload.simulations_per_pass
    assert all(layer[2] <= layer[1] + 1e-9 for layer in tracer.stats.values())


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == [tuple(entry) for entry in trace.PER_LAYER]
    reported = trace.Tracer().metrics([1.0], [1.0], 1.0, 0, {})
    assert set(reported) == {name for name, _, _ in trace.PER_LAYER}
