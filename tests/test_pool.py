"""The persistent WorkerPool: warm reuse across batches, parity, errors."""

import dataclasses
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.experiments import common
from repro.runner import ResultStore, WorkerPool, run_batch
from repro.sim.config import PrefetcherSpec


def _jobs(scales=(0.05, 0.06)):
    spec = PrefetcherSpec(kind="none")
    return [
        common.sim_job(name, spec, scale)
        for name in ("999.specrand", "462.libquantum")
        for scale in scales
    ]


@dataclass(frozen=True)
class _FailingJob:
    """Module-level so it pickles into pool workers."""

    message: str = "boom"

    def key(self) -> str:
        return f"failing-{self.message}"

    def run(self):
        raise ConfigError(self.message)


def test_pool_reuses_workers_across_batches():
    """The tentpole claim: consecutive run_batch calls share warm workers."""
    with WorkerPool(workers=2) as pool:
        first = run_batch(_jobs(), pool=pool)
        pids = pool.pids()
        assert len(pids) == 2 and pool.alive()
        second = run_batch(_jobs(scales=(0.07, 0.08)), pool=pool)
        third = run_batch(_jobs(), pool=pool)
        assert pool.pids() == pids, "workers must not be respawned"
        assert pool.alive() and pool.batches == 3
    assert len(first) == 4 and len(second) == 4
    # Identical jobs produce identical results on the reused workers.
    assert [dataclasses.asdict(r) for r in third] == [
        dataclasses.asdict(r) for r in first
    ]


def test_pool_results_match_inline_run_batch():
    jobs = _jobs()
    inline = run_batch(jobs, workers=1)
    with WorkerPool(workers=2) as pool:
        pooled = run_batch(jobs, pool=pool)
    assert [dataclasses.asdict(r) for r in pooled] == [
        dataclasses.asdict(r) for r in inline
    ]


def test_pool_feeds_the_store_like_the_executor(tmp_path):
    """Pool-run cacheable jobs land in the disk store; a rerun is all hits."""
    store = ResultStore(tmp_path)
    jobs = _jobs()
    with WorkerPool(workers=2) as pool:
        run_batch(jobs, store=store, pool=pool)
        assert len(store) == len(jobs)
        run_batch(jobs, store=store, pool=pool)
    assert store.hits == len(jobs)


def test_run_batch_parallel_reraises_earliest_job_error():
    """Without a caller pool, workers>1 runs on a short-lived pool that
    still re-raises the earliest failing job's error."""
    with pytest.raises(ConfigError, match="^first$"):
        run_batch([_FailingJob("first"), _FailingJob("second")], workers=2)


def test_pool_propagates_job_errors_and_stays_usable():
    with WorkerPool(workers=2) as pool:
        with pytest.raises(ConfigError, match="boom"):
            pool.run([_FailingJob(), _FailingJob("later")])
        # The failed batch is fully drained: the pool still works after it.
        results = pool.run(_jobs())
        assert len(results) == 4 and pool.alive()


def test_pool_empty_batch_spawns_nothing():
    pool = WorkerPool(workers=2)
    assert pool.run([]) == []
    assert pool.pids() == [] and pool.batches == 0
    pool.close()


def test_pool_close_is_idempotent_and_final():
    pool = WorkerPool(workers=1)
    pool.run(_jobs(scales=(0.05,)))
    pool.close()
    pool.close()
    assert not pool.alive() and pool.pids() == []
    with pytest.raises(ConfigError):
        pool.run(_jobs(scales=(0.05,)))


def test_pool_poisons_itself_when_a_worker_dies():
    """A killed worker must close the pool, not leave reusable stale queues."""
    import os
    import signal

    pool = WorkerPool(workers=1)
    pool.run(_jobs(scales=(0.05,)))
    os.kill(pool.pids()[0], signal.SIGKILL)
    with pytest.raises(RuntimeError, match="worker died"):
        pool.run(_jobs(scales=(0.06,)))
    assert not pool.alive()
    with pytest.raises(ConfigError):  # closed: a fresh pool is required
        pool.run(_jobs(scales=(0.07,)))
    pool.close()  # still a no-op, not an error


def test_pool_worker_count_validation():
    assert WorkerPool(0).workers >= 1  # 0 = all cores
    with pytest.raises(ConfigError):
        WorkerPool(-1)
