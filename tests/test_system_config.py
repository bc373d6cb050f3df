"""System scheduling, run results, and the config/prefetcher factory."""

import pytest

from repro.core.prefender import Prefender
from repro.errors import ConfigError, SimulationError
from repro.isa.assembler import assemble
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tagged import TaggedPrefetcher
from repro.sim.config import PrefetcherSpec, SystemConfig, build_prefetcher
from repro.sim.simulator import build_system, run_program, run_programs
from repro.utils.addr import AddressMap


def test_run_program_basic():
    result = run_program(assemble("li r1, 1\nhalt"))
    assert result.instructions == 2
    assert result.cycles >= 2
    assert result.ipc > 0


def test_run_program_rejects_multicore_config():
    with pytest.raises(ConfigError):
        run_program(assemble("halt"), SystemConfig(num_cores=2))


def test_build_system_core_count_mismatch():
    with pytest.raises(ConfigError):
        build_system([assemble("halt")], SystemConfig(num_cores=2))


def test_runaway_program_guard():
    program = assemble("loop:\njmp loop")
    with pytest.raises(SimulationError):
        run_program(program, max_steps=1000)


def test_cross_core_spin_synchronisation():
    attacker = assemble(
        """
        li r1, 0x8000
        li r2, 1
        store r2, 0(r1)
        halt
        """
    )
    waiter = assemble(
        """
        li r1, 0x8000
        spin:
        load r2, 0(r1)
        beq r2, zero, spin
        halt
        """
    )
    result = run_programs([waiter, attacker], SystemConfig(num_cores=2))
    assert result.core_instructions[0] > 0
    assert result.cycles > 0


def test_sampling_hook():
    program = assemble("li r1, 100\nloop:\nsub r1, r1, 1\nbne r1, zero, loop\nhalt")
    system = build_system([program], SystemConfig())
    result = system.run(sample_interval=50, sample_fn=lambda s: s.cores[0].time)
    assert len(result.samples) >= 3
    times = [value for _, value in result.samples]
    assert times == sorted(times)


def test_sampling_labels_multiples_of_retired_instructions():
    """The fused countdown retires ~200 instructions in one step; each
    multiple it crosses still gets its own sample."""
    program = assemble("li r1, 100\nloop:\nsub r1, r1, 1\nbne r1, zero, loop\nhalt")
    system = build_system([program], SystemConfig())
    result = system.run(sample_interval=50, sample_fn=lambda s: s.cores[0].time)
    assert result.instructions == 202
    assert [label for label, _ in result.samples] == [50, 100, 150, 200]


def test_prefetcher_spec_labels():
    assert PrefetcherSpec(kind="none").label == "Baseline"
    assert PrefetcherSpec(kind="tagged").label == "Tagged"
    assert PrefetcherSpec(kind="prefender").label == "Prefender"
    assert "Tagged" in PrefetcherSpec(kind="prefender+tagged").label


def test_prefetcher_spec_validation():
    with pytest.raises(ConfigError):
        PrefetcherSpec(kind="warp-drive")


@pytest.mark.parametrize(
    "kind,expected_type",
    [
        ("tagged", TaggedPrefetcher),
        ("stride", StridePrefetcher),
        ("prefender", Prefender),
        ("prefender+tagged", CompositePrefetcher),
        ("prefender+stride", CompositePrefetcher),
    ],
)
def test_build_prefetcher_types(kind, expected_type):
    prefetcher = build_prefetcher(PrefetcherSpec(kind=kind), AddressMap())
    assert isinstance(prefetcher, expected_type)


def test_composite_primary_is_prefender():
    composite = build_prefetcher(
        PrefetcherSpec(kind="prefender+tagged"), AddressMap()
    )
    assert isinstance(composite.primary, Prefender)


def test_run_result_totals():
    result = run_program(
        assemble("li r1, 0x7000\nload r2, 0(r1)\nhalt"),
        SystemConfig(prefetcher=PrefetcherSpec(kind="tagged")),
    )
    assert result.total_prefetches(0) >= 1
    assert result.l1d_stats[0]["demand_accesses"] == 1
