"""Sweep engine bench: end-to-end speedup of the fig6 grid vs the seed path.

The reference leg disables memoization and routes the simulator through the
scalar per-kernel oracle (``tests/oracles/simulator.py``) — the seed
implementation's algorithm — then the engine regenerates the same grid cold
(empty cache) and warm.  Output rows must be byte-identical across all
three; the measured speedups land in the benchmark's extra_info (and
``scripts/bench_sweep.py`` writes them to ``BENCH_sweep.json``).  A second benchmark times the persistent-store tier:
a fresh in-memory cache backed by a warm artifact store, i.e. what every new
process pays.
"""

import time

from repro.analysis import run_fig6
from repro.sweep.cache import PLAN_CACHE
from repro.sweep.store import ArtifactStore
from tests.oracles.simulator import scalar_simulator


def test_sweep_engine_speedup(benchmark, results_dir):
    # detach the persistent store: this benchmark measures the *in-process*
    # tiers, and a warm disk store would silently turn the cold leg into a
    # disk-warm one (test_disk_warm_store_speedup covers that tier).
    original_store = PLAN_CACHE.store
    try:
        PLAN_CACHE.store = None
        PLAN_CACHE.clear()
        with PLAN_CACHE.disabled(), scalar_simulator():
            start = time.perf_counter()
            reference = run_fig6(iterations=2)
            reference_s = time.perf_counter() - start

        PLAN_CACHE.clear()
        result = benchmark.pedantic(
            lambda: run_fig6(iterations=2), rounds=1, iterations=1
        )
        cold_s = benchmark.stats.stats.mean

        start = time.perf_counter()
        warm = run_fig6(iterations=2)
        warm_s = time.perf_counter() - start
    finally:
        PLAN_CACHE.store = original_store
        PLAN_CACHE.clear()

    # the engine is an optimization, not a remodel: identical output rows
    assert result.rows == reference.rows
    assert warm.rows == reference.rows

    benchmark.extra_info["reference_s"] = round(reference_s, 4)
    benchmark.extra_info["engine_warm_s"] = round(warm_s, 4)
    benchmark.extra_info["speedup_cold"] = round(reference_s / cold_s, 2)
    benchmark.extra_info["speedup_warm"] = round(reference_s / warm_s, 2)

    # loose floors so CI noise cannot flake the suite; nominal values are
    # ~5-6x cold and >50x warm (see BENCH_sweep.json)
    assert reference_s / cold_s > 2.0
    assert reference_s / warm_s > 10.0


def test_disk_warm_store_speedup(benchmark, tmp_path):
    """Warm-from-disk: a fresh process against a populated artifact store.

    The in-memory cache is cleared between legs, so the benchmarked leg pays
    exactly what a new pytest/CLI/CI process pays: store loads instead of
    graph construction and plan lowering.
    """
    original_store = PLAN_CACHE.store
    try:
        PLAN_CACHE.store = None
        PLAN_CACHE.clear()
        start = time.perf_counter()
        cold = run_fig6(iterations=2)
        cold_s = time.perf_counter() - start

        PLAN_CACHE.store = ArtifactStore(tmp_path / "store")
        PLAN_CACHE.clear()
        populated = run_fig6(iterations=2)

        PLAN_CACHE.clear()
        disk_warm = benchmark.pedantic(
            lambda: run_fig6(iterations=2), rounds=1, iterations=1
        )
        disk_warm_s = benchmark.stats.stats.mean
    finally:
        PLAN_CACHE.store = original_store
        PLAN_CACHE.clear()

    # the store is an accelerator, not a remodel: identical output rows
    assert populated.rows == cold.rows
    assert disk_warm.rows == cold.rows

    benchmark.extra_info["engine_cold_s"] = round(cold_s, 4)
    benchmark.extra_info["speedup_disk_warm"] = round(cold_s / disk_warm_s, 2)
    # loose floor (nominal ~9-10x, see BENCH_sweep.json); the acceptance
    # target for the persistent path is >= 3x vs today's cold suite
    assert cold_s / disk_warm_s > 2.0
