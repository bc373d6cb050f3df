"""Design-choice ablations called out in DESIGN.md §5.

Not a paper table — these sweep PREFENDER's own knobs to show which design
choices carry the defense:

* ST's trigger window (``cacheline < sc < page``): prefetching at scale 64
  (== cacheline) would be a no-op against the 0x200-stride attack.
* AT's activation threshold: the defense degrades gracefully as the
  threshold rises (fewer probes covered before prefetching starts).
* Access-buffer count under C3 noise: with RP disabled, more buffers than
  distinct noise PCs restore the AT defense — buffer count is a (costly)
  alternative to the Record Protector.

The sweeps run the attack class directly (not through the runner): the
ST-window check reads each run's per-component prefetch counts, which only
the full :class:`~repro.attacks.AttackOutcome` carries.
"""

from dataclasses import replace

from repro.attacks import FlushReloadAttack
from repro.core.config import PrefenderConfig
from repro.sim.config import PrefetcherSpec, SystemConfig


def prefender_system(config: PrefenderConfig) -> SystemConfig:
    return SystemConfig(
        prefetcher=PrefetcherSpec(kind="prefender", prefender=config)
    )


def test_at_threshold_sweep(benchmark):
    thresholds = (2, 4, 6)

    def sweep():
        return {
            threshold: FlushReloadAttack().run(
                prefender_system(
                    replace(
                        PrefenderConfig.at_only().with_buffers(8),
                        at_threshold=threshold,
                    )
                )
            )
            for threshold in thresholds
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for threshold, outcome in results.items():
        assert outcome.defended, f"threshold {threshold}"
    # Lower thresholds start prefetching earlier -> at least as many decoys.
    assert len(results[2].candidates) >= len(results[6].candidates) - 8


def test_buffer_count_vs_c3_noise(benchmark):
    """More buffers than noise PCs is the brute-force alternative to RP."""

    def sweep():
        return [
            FlushReloadAttack(noise_c3=True).run(
                prefender_system(PrefenderConfig.at_only().with_buffers(count))
            )
            for count in (8, 32)
        ]

    few, many = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert few.attack_succeeded, "8 buffers thrashed by 12 noise PCs"
    assert many.defended, "32 buffers absorb the noise without RP"


def test_st_scale_window_boundary(benchmark):
    """An attack at exactly cacheline stride never triggers ST."""

    def run():
        # scale == 64 == cacheline: ST must stay silent (sc not > cacheline).
        system = prefender_system(PrefenderConfig.st_only())
        outcome = FlushReloadAttack(secret=20).run(system)
        at_64 = FlushReloadAttack(secret=20, scale=64, num_indices=64).run(system)
        inrange = outcome.run_result.prefetch_counts[0].get("st", 0)
        silent = at_64.run_result.prefetch_counts[0].get("st", 0)
        return inrange, silent

    inrange, silent = benchmark.pedantic(run, rounds=1, iterations=1)
    assert inrange > 0, "0x200-scale attack triggers ST"
    assert silent == 0, "cacheline-scale access must not trigger ST"
