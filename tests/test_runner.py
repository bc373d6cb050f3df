"""The simulation-job runner: lossless keys, parallel batches, disk store.

The headline regression here: the old experiment memoiser keyed runs on
``(kind, st, at, rp, num_access_buffers)`` and rebuilt every other config
field from defaults, so sweeps varying ``at_threshold`` (or any other
knob) silently shared cycle counts.  The runner's content key hashes every
dataclass field, and ``test_job_key_covers_every_config_field`` walks the
field sets structurally so a newly added knob can never fall out again.
"""

import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from repro.core.config import PrefenderConfig
from repro.cpu.core import CoreConfig
from repro.errors import ConfigError, SimulationError
from repro.experiments import common, table4
from repro.isa.assembler import assemble
from repro.mem.hierarchy import HierarchyConfig
from repro.runner import (
    ATTACK_KINDS,
    ResultStore,
    ScenarioJob,
    SimJob,
    SimResult,
    job_key,
    run_batch,
)
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.workloads import REGISTRY, Workload

# Fields whose values are constrained (enums, registry names): a generic
# "+1"/flip perturbation would be invalid, so supply a valid alternative.
SPECIAL_VALUES = {
    "workload": "999.specrand",
    "attack": "evict-reload",
    "system.prefetcher.kind": "tagged",
    "options.victim_mode": "spectre",
    "options.probe_kind": "prefetch",
}


def _mutated(path: str, value):
    if path in SPECIAL_VALUES:
        assert SPECIAL_VALUES[path] != value
        return SPECIAL_VALUES[path]
    if isinstance(value, bool):
        return not value
    if value is None:
        return 1024  # Optional[int] knobs (e.g. sample_interval)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, str):
        return value + "-x"
    raise AssertionError(f"no perturbation rule for {path} = {value!r}")


def _perturbations(obj, prefix=""):
    """Yield (field path, copy of ``obj`` with exactly that field changed)."""
    for spec_field in dataclasses.fields(obj):
        value = getattr(obj, spec_field.name)
        path = f"{prefix}{spec_field.name}"
        if dataclasses.is_dataclass(value):
            for sub_path, mutated in _perturbations(value, path + "."):
                yield sub_path, replace(obj, **{spec_field.name: mutated})
        else:
            yield path, replace(obj, **{spec_field.name: _mutated(path, value)})


def _base_sim_job() -> SimJob:
    # st_at(8) keeps rp_enabled=False so every boolean flip stays a valid
    # PrefenderConfig (rp_enabled=True needs at_enabled=True, which holds).
    spec = PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.st_at(8))
    return SimJob(workload="462.libquantum", scale=0.25, system=common.perf_config(spec))


def test_job_key_covers_every_config_field():
    """Perturbing ANY field of the full config tree changes the key."""
    base = _base_sim_job()
    base_key = base.key()
    seen_paths = set()
    for path, mutated in _perturbations(base):
        seen_paths.add(path)
        assert mutated.key() != base_key, f"field {path} not in the job key"
    # The walk is driven by dataclasses.fields, so it must have visited every
    # field of every config dataclass — a new knob is covered automatically.
    for config_cls in (
        SimJob,
        SystemConfig,
        PrefetcherSpec,
        PrefenderConfig,
        CoreConfig,
        HierarchyConfig,
    ):
        for spec_field in dataclasses.fields(config_cls):
            # Scalar fields appear as a path leaf; nested-config fields
            # appear as an intermediate segment of their children's paths.
            assert any(
                spec_field.name in path.split(".") for path in seen_paths
            ), f"{config_cls.__name__}.{spec_field.name} never perturbed"


def test_attack_job_key_covers_every_field():
    # st_at keeps rp_enabled=False so boolean flips stay valid configs.
    system = SystemConfig(
        prefetcher=PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.st_at(8))
    )
    base = ScenarioJob.build("flush-reload", system=system)
    base_key = base.key()
    seen_paths = set()
    for path, mutated in _perturbations(base):
        seen_paths.add(path)
        assert mutated.key() != base_key, f"field {path} not in the job key"
    # Newly added AttackOptions knobs join the walk automatically; pin the
    # adversarial-prefetch probe primitive explicitly so it can never fall
    # out of the content key (A1 vs A2 differ in exactly this field).
    assert "options.probe_kind" in seen_paths


def test_adversarial_prefetch_kinds_get_distinct_keys():
    """A1 and A2 differ in kind name AND resolved probe_kind — never one key."""
    # st_at keeps rp_enabled=False so boolean flips stay valid configs.
    system = SystemConfig(
        prefetcher=PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.st_at(8))
    )
    a1 = ScenarioJob.build("adversarial-prefetch-a1", system=system)
    a2 = ScenarioJob.build("adversarial-prefetch-a2", system=system)
    assert a1.key() != a2.key()
    assert a1.options.probe_kind == "load"
    assert a2.options.probe_kind == "prefetch"
    assert a1.options.cross_core and a2.options.cross_core
    # Perturbation walk over an adversarial-prefetch job: every field of the
    # resolved options (including the new probe_kind) lands in the key.
    base_key = a1.key()
    for path, mutated in _perturbations(a1):
        assert mutated.key() != base_key, f"field {path} not in the job key"


def test_job_keys_distinguish_previously_dropped_fields():
    """Two specs differing only in a non-(kind,st,at,rp,buffers) field get
    distinct keys — exactly what the old ``_spec_key`` tuple lost."""
    base = PrefenderConfig.st_at(8)
    for change in (
        {"at_threshold": 6},
        {"entries_per_buffer": 4},
        {"st_max_prefetches": 5},
        {"scale_buffer_entries": 2},
        {"unprotect_prefetch_limit": 7},
        {"unprotect_idle_cycles": 123},
        {"at_max_prefetches": 3},
    ):
        job_a = common.sim_job(
            "462.libquantum", PrefetcherSpec(kind="prefender", prefender=base), 0.1
        )
        job_b = common.sim_job(
            "462.libquantum",
            PrefetcherSpec(kind="prefender", prefender=replace(base, **change)),
            0.1,
        )
        assert job_a.key() != job_b.key(), change


def test_cycle_cache_regression_at_threshold():
    """Headline bug: at_threshold sweeps must not share cached cycles.

    Under the old memoiser both calls mapped to the same tuple key, so the
    second returned the first's cycle count.  at_threshold genuinely changes
    libquantum's timing (prefetching starts earlier), so distinct caching is
    observable in the cycles themselves, not just in cache bookkeeping.
    """
    common.clear_cycle_cache()
    make = lambda threshold: PrefetcherSpec(
        kind="prefender",
        prefender=replace(PrefenderConfig.full(8), at_threshold=threshold),
    )
    early = common.workload_cycles("462.libquantum", make(2), 0.1)
    late = common.workload_cycles("462.libquantum", make(6), 0.1)
    stats = common.cache_stats()
    assert stats["misses"] == 2 and stats["hits"] == 0, stats
    assert early != late, "at_threshold=2 vs 6 must simulate differently"
    # Same spec again is a pure cache hit with the same answer.
    assert common.workload_cycles("462.libquantum", make(2), 0.1) == early
    assert common.cache_stats()["hits"] == 1


def test_parallel_batch_matches_sequential_table4():
    kwargs = dict(
        scale=0.1, workloads=["462.libquantum", "999.specrand"], buffer_sweep=(32,)
    )
    common.clear_cycle_cache()
    sequential = table4.render(table4.run(**kwargs))
    common.clear_cycle_cache()
    parallel = table4.render(table4.run(jobs=2, **kwargs))
    assert parallel == sequential, "parallel run must be byte-identical"


def test_run_batch_preserves_order_and_dedups():
    spec = PrefetcherSpec(kind="none")
    job_a = common.sim_job("999.specrand", spec, 0.05)
    job_b = common.sim_job("462.libquantum", spec, 0.05)
    results = run_batch([job_a, job_b, job_a])
    assert results[0].cycles == results[2].cycles
    assert results[0] is results[2], "duplicate keys run once"
    assert results[1].cycles != results[0].cycles


def _counting_builders(monkeypatch, names):
    """Wrap each named workload's builder; returns the per-name call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        workload = REGISTRY[name]

        def builder(scale, _name=name, _build=workload.builder):
            calls[_name] += 1
            return _build(scale)

        monkeypatch.setitem(REGISTRY, name, replace(workload, builder=builder))
    return calls


def test_run_batch_builds_each_program_once(monkeypatch):
    names = ["999.specrand", "462.libquantum"]
    specs = [
        PrefetcherSpec(kind="none"),
        PrefetcherSpec(kind="tagged"),
        PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.full(8)),
    ]
    # Interleaved, so each program must outlive jobs of the other one.
    jobs = [common.sim_job(name, spec, 0.05) for spec in specs for name in names]
    calls = _counting_builders(monkeypatch, names)
    batched = run_batch(jobs)
    assert calls == dict.fromkeys(names, 1)
    alone = [job.run() for job in jobs]
    assert [result.to_json() for result in batched] == [
        result.to_json() for result in alone
    ]


def _program_state(program):
    """Everything a run reads from a program, as comparable values."""
    return (
        program.decoded,
        [
            (ins.op, ins.rd, ins.rs0, ins.rs1, ins.imm, ins.target)
            for ins in program.instructions
        ],
        [(seg.base, tuple(seg.values), seg.stride) for seg in program.data_segments],
    )


def test_shared_program_is_not_modified_by_a_run():
    job = common.sim_job(
        "429.mcf",
        PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.full(8)),
        0.05,
    )
    program = job.build_program()
    program.finalize()
    before = _program_state(program)
    first = job.run(program)
    baseline = replace(job, system=common.perf_config(PrefetcherSpec(kind="none")))
    baseline.run(program)
    assert _program_state(program) == before
    assert job.run(program).to_json() == first.to_json() == job.run().to_json()


def _put_many(root, key, result, count):
    store = ResultStore(root)
    for _ in range(count):
        store.put(key, {"synthetic": key}, result)


def test_concurrent_puts_of_one_key_leave_one_valid_entry(tmp_path):
    result, _ = _filler_results(tmp_path)
    root = tmp_path / "shared"
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=4, mp_context=spawn) as pool:
        futures = [
            pool.submit(_put_many, root, "same-key", result, 40) for _ in range(4)
        ]
        for future in futures:
            future.result(timeout=120)  # re-raises any writer's exception
    store = ResultStore(root)
    assert len(store) == 1
    assert sorted(path.name for path in root.iterdir()) == ["same-key.json"]
    assert store.get("same-key").to_json() == result.to_json()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "failing, name",
    [
        (SimJob("429.mcf", scale=0.05, max_steps=50), "429.mcf"),
        (
            replace(
                ScenarioJob.build("flush-reload", victim="aes-ttable", secret=3),
                max_steps=50,
            ),
            "flush-reload x aes-ttable",
        ),
    ],
)
def test_exhausted_step_budget_names_its_job(workers, failing, name):
    jobs = [SimJob("999.specrand", scale=0.05), failing]
    with pytest.raises(SimulationError) as raised:
        run_batch(jobs, workers=workers)
    message = str(raised.value)
    assert message.startswith(f"{name} (job {failing.key()[:12]}): ")
    assert "exceeded 50 scheduler steps" in message


@pytest.mark.parametrize("workers", [1, 2])
def test_step_budget_stops_a_superblock_loop(monkeypatch, workers):
    """``add; jmp`` is one two-op superblock per iteration: each is one
    scheduler step, and the budget still ends the spin by name."""
    spin = Workload(
        name="spin-superblock",
        suite="spec2006",
        pattern="two-op ALU loop that never halts",
        builder=lambda scale: assemble("loop:\nadd r1, r1, 1\njmp loop"),
    )
    monkeypatch.setitem(REGISTRY, spin.name, spin)
    failing = SimJob(spin.name, max_steps=50)
    jobs = [SimJob("999.specrand", scale=0.05), failing]
    with pytest.raises(SimulationError) as raised:
        run_batch(jobs, workers=workers)
    message = str(raised.value)
    assert message.startswith(f"spin-superblock (job {failing.key()[:12]}): ")
    assert "exceeded 50 scheduler steps" in message


def test_run_batch_rejects_negative_workers():
    with pytest.raises(ConfigError):
        run_batch([], workers=-1)


def test_store_roundtrip_and_invalidation(tmp_path):
    store = ResultStore(tmp_path)
    job = common.sim_job("999.specrand", PrefetcherSpec(kind="none"), 0.05)
    (first,) = run_batch([job], store=store)
    assert len(store) == 1 and store.hits == 0

    # A fresh store instance serves the result from disk without simulating.
    reread = ResultStore(tmp_path)
    (cached,) = run_batch([job], store=reread)
    assert reread.hits == 1 and reread.misses == 0
    assert dataclasses.asdict(cached) == dataclasses.asdict(first)

    # Any config change is a different key -> disk miss, new entry.
    changed = replace(
        job, system=replace(job.system, core=replace(job.system.core, mul_cost=4))
    )
    assert changed.key() != job.key()
    run_batch([changed], store=reread)
    assert reread.misses == 1
    assert len(reread) == 2

    # A torn/garbage file degrades to a miss, never a wrong result.
    path = tmp_path / f"{job.key()}.json"
    path.write_text("{not json")
    third = ResultStore(tmp_path)
    assert third.get(job.key()) is None
    assert third.misses == 1

    # Valid JSON with the right key/version but a mangled result payload
    # (hand-edited or written by an older tool) is also just a miss.
    import json

    from repro.runner import KEY_VERSION

    path.write_text(
        json.dumps(
            {"version": KEY_VERSION, "key": job.key(), "result": {"cycles": "x"}}
        )
    )
    assert third.get(job.key()) is None
    path.write_text(
        json.dumps(
            {
                "version": KEY_VERSION,
                "key": job.key(),
                "result": dict(first.to_json(), l1d_stats="oops"),
            }
        )
    )
    assert third.get(job.key()) is None


def _filler_results(tmp_path):
    """One real SimResult + its on-disk entry size, for synthetic store tests."""
    probe = ResultStore(tmp_path / "probe")
    job = common.sim_job("999.specrand", PrefetcherSpec(kind="none"), 0.05)
    (result,) = run_batch([job], store=probe)
    return result, probe.size_bytes()


def test_store_eviction_is_lru_ordered(tmp_path):
    """Oldest-mtime entries are evicted first; a get() refreshes recency."""
    import os

    result, _ = _filler_results(tmp_path)
    # Measure a *synthetic* entry (tiny job fingerprint), then cap at 2.5x.
    sizer = ResultStore(tmp_path / "sizer")
    sizer.put("sample", {"synthetic": "sample"}, result)
    entry_size = sizer.size_bytes()
    store = ResultStore(tmp_path / "capped", max_bytes=int(entry_size * 2.5))

    def put(key: str, stamp: int) -> None:
        store.put(key, {"synthetic": key}, result)
        os.utime(store._path(key), (stamp, stamp))

    put("key-a", 100)
    put("key-b", 200)
    assert store.evictions == 0 and len(store) == 2

    # Third entry overflows the 2.5-entry cap: key-a (oldest) is evicted.
    put("key-c", 300)
    assert store.evictions == 1
    assert store.get("key-a") is None
    assert store.get("key-b") is not None  # hit refreshes key-b's mtime...
    os.utime(store._path("key-b"), (400, 400))  # (made explicit for the test)

    # ...so the next overflow evicts key-c, not the recently-read key-b.
    put("key-d", 500)
    assert store.evictions == 2
    assert store.get("key-c") is None
    assert store.get("key-b") is not None
    assert store.get("key-d") is not None


def test_store_never_evicts_the_just_written_entry(tmp_path):
    result, _ = _filler_results(tmp_path)
    sizer = ResultStore(tmp_path / "sizer")
    sizer.put("sample", {"synthetic": "sample"}, result)
    store = ResultStore(
        tmp_path / "tiny", max_bytes=max(1, sizer.size_bytes() // 2)
    )
    store.put("only", {"synthetic": "only"}, result)
    assert len(store) == 1, "an oversized single entry still caches"
    assert store.evictions == 0
    store.put("next", {"synthetic": "next"}, result)
    assert len(store) == 1 and store.evictions == 1
    assert store.get("next") is not None


def test_store_uncapped_by_default_and_rejects_bad_cap(tmp_path):
    result, _ = _filler_results(tmp_path)
    store = ResultStore(tmp_path / "free")
    for index in range(5):
        store.put(f"key-{index}", {"synthetic": index}, result)
    assert len(store) == 5 and store.evictions == 0
    with pytest.raises(ConfigError):
        ResultStore(tmp_path, max_bytes=0)


def test_store_roundtrips_attack_probes(tmp_path):
    """Plain attack jobs persist and reload as ScenarioProbe objects."""
    store = ResultStore(tmp_path)
    job = ScenarioJob.build("flush-reload")
    (probe,) = run_batch([job], store=store)
    assert probe.succeeded, "undefended flush-reload must succeed"
    reread = ResultStore(tmp_path)
    (cached,) = run_batch([job], store=reread)
    assert reread.hits == 1
    assert dataclasses.asdict(cached) == dataclasses.asdict(probe)


def test_job_keys_match_pinned_values():
    """Key schema pins: warm stores from earlier releases stay valid."""
    assert (
        SimJob(workload="999.specrand", scale=0.05).key()
        == "7fb563afd2f64fbfb6acfbdb728993486981e098766148c6302363c25062c59c"
    )
    assert (
        ScenarioJob.build("flush-reload", "aes-ttable", 1).key()
        == "12030bd7e5a4ab7a1cc6f3d55f3ce0c0e9a74d9d55287d72c738b2bb958b346a"
    )


@pytest.mark.parametrize("kind", sorted(ATTACK_KINDS))
@pytest.mark.parametrize("defense", ["Base", "FULL"])
def test_attack_probe_matches_direct_outcome(kind, defense):
    """A plain ScenarioJob probe agrees with running the attack directly.

    Pins that scoring by footprint (set equality against the direct
    victim's one-index footprint) is the outcome's own success test,
    ``candidates == [secret]``.
    """
    system = SystemConfig(prefetcher=common.security_spec(defense))
    probe = ScenarioJob.build(kind, system=system).run()
    outcome = ATTACK_KINDS[kind]().run(system)
    assert probe.challenges == outcome.challenges
    assert probe.secret == outcome.secret
    assert probe.succeeded == outcome.attack_succeeded
    assert probe.candidates == outcome.candidates
    assert probe.cycles == outcome.run_result.cycles


def test_store_result_kind_dispatch(tmp_path):
    """Entries missing result_kind stay readable (pre-eviction files were
    all SimResults); unknown kinds degrade to a miss."""
    import json

    store = ResultStore(tmp_path)
    job = common.sim_job("999.specrand", PrefetcherSpec(kind="none"), 0.05)
    (result,) = run_batch([job], store=store)
    path = tmp_path / f"{job.key()}.json"
    data = json.loads(path.read_text())
    assert data["result_kind"] == "SimResult"

    del data["result_kind"]
    path.write_text(json.dumps(data))
    legacy = ResultStore(tmp_path)
    assert legacy.get(job.key()) is not None

    # Unknown kinds, including the retired AttackProbe, are misses.
    for kind in ("Bogus", "AttackProbe"):
        data["result_kind"] = kind
        path.write_text(json.dumps(data))
        bogus = ResultStore(tmp_path)
        assert bogus.get(job.key()) is None and bogus.misses == 1, kind


def test_store_clear(tmp_path):
    store = ResultStore(tmp_path)
    job = common.sim_job("999.specrand", PrefetcherSpec(kind="none"), 0.05)
    run_batch([job], store=store)
    assert store.clear() == 1
    assert len(store) == 0
    assert store.get(job.key()) is None


def test_sim_result_json_roundtrip():
    job = SimJob(workload="999.specrand", scale=0.05, sample_interval=50)
    result = job.run()
    assert result.samples, "sampling interval must record samples"
    again = SimResult.from_json(result.to_json())
    assert dataclasses.asdict(again) == dataclasses.asdict(result)


def test_sim_result_exports_defense_stats():
    """AT/RP internals (allocation_failures, protection lifecycle) must
    survive into the JSON-able result so Fig. 12-style reporting and the
    scenario suite can read buffer starvation after the run."""
    spec = PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.full(8))
    result = SimJob(
        workload="462.libquantum", scale=0.1, system=common.perf_config(spec)
    ).run()
    assert len(result.defense_stats) == 1
    stats = result.defense_stats[0]
    for key in (
        "allocation_failures",
        "protections",
        "unprotections",
        "sweep_unprotections",
        "protected_buffers",
    ):
        assert key in stats, key
    again = SimResult.from_json(result.to_json())
    assert again.defense_stats == result.defense_stats
    # Baseline runs carry an empty per-core dict, not a missing field.
    baseline = SimJob(workload="999.specrand", scale=0.05).run()
    assert baseline.defense_stats == [{}]


def test_sim_job_rejects_non_positive_scale():
    with pytest.raises(ConfigError):
        SimJob(workload="999.specrand", scale=0.0)
    with pytest.raises(ConfigError):
        SimJob(workload="999.specrand", scale=-1.0)


def test_attack_job_unknown_kind():
    with pytest.raises(ConfigError):
        ScenarioJob(attack="rowhammer")
    with pytest.raises(ConfigError):
        ScenarioJob.build("rowhammer")


def test_attack_job_merges_class_default_options():
    job = ScenarioJob.build("prime-probe", system=SystemConfig(), noise_c3=True)
    assert job.options.noise_c3 is True
    # Prime+Probe's class defaults (48 monitored sets, secret 37) land in
    # the resolved options — and therefore in the job key.
    assert job.options.num_indices == 48
    assert job.options.secret == 37
    probe = job.run()
    assert probe.challenges == "C1+C2+C3"
