"""The ``python -m repro bench`` command and its JSON report."""

import json
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.sim import bench


def test_run_bench_report_shape():
    report = bench.run_bench(scale=0.05, repeats=1)
    assert report["schema"] == bench.SCHEMA
    assert set(report["scenarios"]) == set(bench.SCENARIO_NAMES)
    for name in bench.SCENARIO_NAMES:
        cell = report["scenarios"][name]
        assert cell["instructions"] > 0
        assert cell["cycles"] > 0
        assert cell["seconds"] > 0
        assert cell["instr_per_sec"] > 0


def test_each_scenario_warms_up_untimed():
    calls = []

    def run():
        calls.append(len(calls))
        return SimpleNamespace(instructions=10, cycles=20)

    result = bench._time_scenario("probe", run, repeats=1)
    assert len(calls) == 2  # one untimed warm-up, then the timed pass
    assert result.repeats == 1


def test_bench_cli_quick_emits_report(tmp_path, capsys):
    out = tmp_path / "BENCH_sim_throughput.json"
    assert main(["bench", "--quick", "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "single_core_victim" in printed
    report = json.loads(out.read_text())
    assert report["schema"] == bench.SCHEMA
    assert set(report["scenarios"]) == set(bench.SCENARIO_NAMES)
    # Quick mode shrinks the workload and times one pass per scenario.
    assert report["scale"] == bench.QUICK_SCALE
    assert report["repeats"] == 1


def test_bench_cli_rejects_bad_scale():
    with pytest.raises(SystemExit):
        main(["bench", "--scale", "-1"])


def test_render_report_lists_all_scenarios():
    report = bench.run_bench(scale=0.05, repeats=1)
    text = bench.render_report(report)
    for name in bench.SCENARIO_NAMES:
        assert name in text
    assert "instr/s" in text
