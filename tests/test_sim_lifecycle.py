"""A finished simulation holds no reference cycles.

Cores dispatch through a class-level table of plain functions and the
L2's back-invalidation hook holds its hierarchy weakly, so the last
reference to a finished ``System`` frees it (and its caches' lines) by
reference counting alone.  Under ``gc.DEBUG_SAVEALL`` the cyclic collector
keeps everything it would have freed in ``gc.garbage``; a run must leave
no cache line, core or hierarchy there.
"""

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.config import PrefenderConfig
from repro.experiments import common
from repro.sim.config import PrefetcherSpec
from repro.sim.simulator import run_program, run_programs
from repro.workloads import get_workload

#: Types a leaked simulation would show up as.
SIMULATION_TYPES = {"CacheLine", "Core", "MemoryHierarchy"}

PREFENDER = PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.full(8))


def _cyclic_garbage(run):
    """Names of the simulation objects only the cyclic collector would free."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(
            type(obj).__name__
            for obj in gc.garbage
            if type(obj).__name__ in SIMULATION_TYPES
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("kind", ["none", "prefender"])
def test_run_program_leaves_no_cycles(kind):
    config = common.perf_config(PREFENDER if kind == "prefender" else PrefetcherSpec())
    program = get_workload("429.mcf").program(0.05)
    assert _cyclic_garbage(lambda: run_program(program, config)) == Counter()


@pytest.mark.parametrize("cores", [1, 2])
def test_run_programs_leaves_no_cycles(cores):
    config = replace(common.perf_config(PREFENDER), num_cores=cores)
    programs = [
        get_workload(name).program(0.05)
        for name in ("429.mcf", "462.libquantum")[:cores]
    ]
    assert _cyclic_garbage(lambda: run_programs(programs, config)) == Counter()
