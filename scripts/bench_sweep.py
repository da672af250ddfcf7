"""Benchmark the sweep engine against the seed-equivalent reference path.

Times the figure-6 grid (the repo's heaviest harness) across five tiers:

* ``reference``         — memoization disabled and the scalar per-kernel
  simulator oracle (``tests/oracles/simulator.py``, swapped in by
  ``scalar_simulator()``): the seed implementation's algorithm (per-point
  build/lower/simulate with 142k Python-level ``estimate_kernel`` calls),
  run through today's harness.
* ``engine_cold``       — the sweep engine from an empty cache, no disk
  store: vectorized simulation, content-hash memoized builds/plans/memory,
  derived CPU plans.
* ``engine_populate``   — the same cold run while writing a fresh persistent
  artifact store (the one-time population cost).
* ``engine_disk_warm``  — a fresh in-memory cache backed by the warm store:
  what every *new process* (pytest run, CLI call, CI job) pays once the
  store exists.  Plans, memory profiles, and transform stats come off disk;
  graphs are never built (lazy GraphRefs).
* ``engine_warm``       — the engine re-running the same grid in-session,
  the steady state of interactive/sweep workloads.

All tiers produce byte-identical rows (asserted).  Besides the fig6 grid,
the same five tiers run the N-device Platform C grid, a reduced serving
grid (the discrete-event engine), and a reduced cluster grid (the
fault-tolerant fleet) — the latter two gated on their cold-vs-warm ratios.
A separate ``serving_1m`` tier exercises the columnar fast backend:
fast-vs-reference cross-checks at 10^5 requests (fifo gated at 5x; dynamic
and continuous at 6x now that they dispatch through dense batch-cost
tables) and 10^6-request traces in a subprocess reporting wall time and
peak RSS at a served and an overloaded rate (the overloaded row's p99 is
labeled ``regime: overload`` — it measures the queueing ramp, not a
service tail).  The ``cluster_1m`` tier does the same for the columnar
*fleet* fast path: a 4-replica cross-check asserted bit-identical and
gated at 5x, plus a faulted cross-check (crash window + timeout retries
on the event-replaying faulted rail) gated at 5x, plus a 10^6-request
fleet run.  Outside ``--quick`` every cross-check gate times
``GATE_PAIRS`` alternating fast/reference pairs, asserts equality and the
expected backends on each, and gates on the median pair ratio (each pair's
ratio is recorded).  Results land in ``BENCH_sweep.json`` at the repo
root for the performance trajectory.

Usage::

    PYTHONPATH=src python scripts/bench_sweep.py [--full] [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import platform as platform_mod
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import analysis
from repro.sweep.cache import PLAN_CACHE
from repro.sweep.store import ArtifactStore

REPO_ROOT = Path(__file__).resolve().parent.parent
# the reference tier's scalar simulator is a test oracle under tests/oracles/
sys.path.insert(0, str(REPO_ROOT))
from tests.oracles.simulator import scalar_simulator  # noqa: E402

#: fast/reference pairs each speedup gate times outside ``--quick``; the gate
#: reads the median pair ratio, so one pair slowed by a noisy neighbour on a
#: shared machine cannot flip it.
GATE_PAIRS = 3

#: the full harness suite, with the iteration counts the benchmarks use
SUITE = {
    "fig1": lambda: analysis.run_fig1(iterations=3),
    "fig5": lambda: analysis.run_fig5(iterations=2),
    "fig6": lambda: analysis.run_fig6(iterations=2),
    "fig7": lambda: analysis.run_fig7(iterations=3),
    "fig8": lambda: analysis.run_fig8(iterations=2),
    "fig9": lambda: analysis.run_fig9(iterations=2),
    "table1": lambda: analysis.run_table1(),
    "table4": lambda: analysis.run_table4(iterations=2),
    "table5": lambda: analysis.run_table5(iterations=2),
    "ext1": lambda: analysis.run_ext1(iterations=2),
    "ext2": lambda: analysis.run_ext2(iterations=2),
    "ext3": lambda: analysis.run_ext3(iterations=2),
}


def timed(fn):
    """Time one workload run with the GC's scan set frozen.

    Later tiers run with millions of objects from earlier tiers still
    alive; without freezing, generational collections re-traverse that
    baseline on every threshold crossing, taxing whichever side of a
    ratio allocates faster (the columnar paths) and skewing the gates by
    2x+.  Objects allocated *during* the run are still collected normally.
    """
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        result = fn()
        elapsed = time.perf_counter() - start
    finally:
        gc.unfreeze()
    return elapsed, result


def timed_pairs(fast, reference, check, pairs: int) -> tuple:
    """Time ``pairs`` fast/reference runs of one cross-check, alternating
    which side goes first so drift in machine load hits both sides.

    ``check(fast_result, reference_result)`` runs on every pair.  Returns
    the last pair's fast result and the timing payload: median times, each
    pair's ratio, and ``speedup`` — the median ratio the gates read.
    """
    fast_times, reference_times, ratios = [], [], []
    for pair in range(pairs):
        if pair % 2:
            reference_s, reference_result = timed(reference)
            fast_s, fast_result = timed(fast)
        else:
            fast_s, fast_result = timed(fast)
            reference_s, reference_result = timed(reference)
        check(fast_result, reference_result)
        fast_times.append(fast_s)
        reference_times.append(reference_s)
        ratios.append(reference_s / fast_s)
    return fast_result, {
        "pairs": pairs,
        "reference_s": round(statistics.median(reference_times), 4),
        "fast_s": round(statistics.median(fast_times), 4),
        "pair_speedups": [round(ratio, 2) for ratio in ratios],
        "speedup": round(statistics.median(ratios), 2),
        "byte_identical": True,
    }


def equal_on_rail(label: str, rail: str):
    """A :func:`timed_pairs` check: the fast result equals the reference
    one, and each side rode its expected backend (``backend_used`` is
    excluded from result equality, so it is asserted separately)."""

    def check(fast_result, reference_result) -> None:
        assert fast_result == reference_result, f"{label}: fast diverged from reference!"
        assert fast_result.backend_used == rail, (
            f"{label}: fast run rode {fast_result.backend_used!r}, not {rail!r}"
        )
        assert reference_result.backend_used == "reference", (
            f"{label}: reference run rode {reference_result.backend_used!r}"
        )

    return check


def bench_tiers(runner, describe) -> tuple:
    """Run one workload through all five engine tiers and check equivalence.

    ``runner`` executes the workload; ``describe`` extracts the comparison
    payload from its result.  Returns ``(payload, timings)`` so callers can
    report on the output without re-running the workload.
    """
    original_store = PLAN_CACHE.store
    store_dir = tempfile.mkdtemp(prefix="bench-sweep-store-")
    try:
        PLAN_CACHE.store = None
        PLAN_CACHE.clear()
        with PLAN_CACHE.disabled(), scalar_simulator():
            reference_s, reference = timed(runner)

        PLAN_CACHE.clear()
        cold_s, cold = timed(runner)

        PLAN_CACHE.store = ArtifactStore(store_dir)
        PLAN_CACHE.clear()
        populate_s, populated = timed(runner)

        # fresh in-memory tier against the warm store: a new process's view
        # (modulo interpreter startup and imports, which are engine-independent)
        PLAN_CACHE.clear()
        disk_warm_s, disk_warm = timed(runner)

        warm_s, warm = timed(runner)

        tiers = [reference, cold, populated, disk_warm, warm]
        payloads = [describe(result) for result in tiers]
        assert all(p == payloads[0] for p in payloads), "engine output diverged!"
    finally:
        PLAN_CACHE.store = original_store
        PLAN_CACHE.clear()
        shutil.rmtree(store_dir, ignore_errors=True)
    return payloads[0], {
        "reference_s": round(reference_s, 4),
        "engine_cold_s": round(cold_s, 4),
        "engine_populate_s": round(populate_s, 4),
        "engine_disk_warm_s": round(disk_warm_s, 4),
        "engine_warm_s": round(warm_s, 4),
        "speedup_cold": round(reference_s / cold_s, 2),
        "speedup_disk_warm": round(cold_s / disk_warm_s, 2),
        "speedup_warm": round(reference_s / warm_s, 2),
        "byte_identical": True,
    }


def bench_fig6(models: tuple[str, ...] | None = None) -> dict:
    runner = lambda: analysis.run_fig6(iterations=2, models=models)  # noqa: E731
    rows, payload = bench_tiers(runner, lambda result: result.rows)
    payload["rows"] = len(rows)
    return payload


def bench_platform_c(models: tuple[str, ...] | None = None) -> dict:
    """Perf-gate the N-device simulator path: the ext1 edge grid on the
    3-device Platform C (CPU/iGPU pytorch columns plus the NPU offload
    column), through the same five tiers as fig6."""
    runner = lambda: analysis.run_ext1(  # noqa: E731
        platform_ids=("C",), models=models, iterations=2
    )
    rows, payload = bench_tiers(runner, lambda result: result.rows)
    payload["rows"] = len(rows)
    return payload


def bench_serving() -> dict:
    """Perf-gate the serving tier: a reduced ext2 grid (one model/platform,
    two loads, no-batching vs continuous) through the same five tiers.
    Plans are lowered per batch size here, so the cold->warm ratio measures
    how well the serving path leans on the plan cache and artifact store."""
    runner = lambda: analysis.run_ext2(  # noqa: E731
        platform_ids=("A",),
        models=("gpt2",),
        loads=(0.5, 2.0),
        schedulers=("fifo", "continuous"),
        num_requests=16,
        iterations=2,
    )
    rows, payload = bench_tiers(runner, lambda result: result.rows)
    payload["rows"] = len(rows)
    return payload


def bench_cluster() -> dict:
    """Perf-gate the cluster tier: a reduced ext3 grid (one platform, one
    scheduler/policy, the none and crash profiles plus both focused studies)
    through the same five tiers.  The fleet's replicas share one plan cache,
    so a warm run should be pure event loop — no lowering, no simulation."""
    runner = lambda: analysis.run_ext3(  # noqa: E731
        platform_ids=("A",),
        schedulers=("continuous",),
        policies=("least-loaded",),
        fault_profiles=("none", "crash"),
        num_requests=24,
        iterations=2,
    )
    rows, payload = bench_tiers(runner, lambda result: result.rows)
    payload["rows"] = len(rows)
    return payload


def bench_autoscale() -> dict:
    """Perf-gate the elastic tier: a reduced ext5 grid (one static fleet
    vs the goodput controller at the overload demand) through the same
    five tiers.  Autoscaled rows always run the reference event loop, so
    the cold->warm ratio measures how completely the plan cache removes
    lowering and batch-cost work from under the elastic lifecycle."""
    runner = lambda: analysis.run_ext5(  # noqa: E731
        platform_ids=("A",),
        static_fleets=(2,),
        controllers=("goodput",),
        demands=(4.0,),
        num_requests=256,
        iterations=2,
    )
    rows, payload = bench_tiers(runner, lambda result: result.rows)
    payload["rows"] = len(rows)
    return payload


#: child script for the million-request tier: run in a fresh interpreter so
#: ``ru_maxrss`` measures this trace alone, not the parent's sweep caches.
_SERVING_1M_CHILD = """\
import json, resource, sys, time
import numpy as np
from repro.serving import ServingConfig, ServingEngine, make_trace
from repro.sweep.cache import PLAN_CACHE

num_requests = int(sys.argv[1])
load_factor = float(sys.argv[2])
config = ServingConfig(
    model="gpt2", scheduler="fifo", backend="fast", record_requests=512
)
engine = ServingEngine(config, cache=PLAN_CACHE)
rate = load_factor / engine.base_latency_s()
trace = make_trace(
    "poisson", rate, num_requests, rng=np.random.default_rng(0),
    decode_steps=(1, 4),
)
start = time.perf_counter()
result = engine.run(trace, offered_rate_rps=rate)
wall_s = time.perf_counter() - start
print(json.dumps({
    "wall_s": round(wall_s, 4),
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    ),
    "num_served": result.num_requests_served,
    "records_kept": len(result.records),
    "p99_ms": round(result.p99_s * 1e3, 4),
}))
"""


#: rate factors for the 10^6-request rows: 0.8 / batch-1 step latency
#: oversubscribes the serial fifo server 2x once the 1-4 decode-step draws
#: (mean 2.5 steps per request) are paid — exactly what the RSS measurement
#: wants, since the queue grows to the full trace; dividing the same knob by
#: the mean draw instead offers a *served* load 0.8 whose p99 is a readable
#: tail latency rather than a queueing ramp.
_OVERLOAD_FACTOR = 0.8
_SERVED_FACTOR = 0.8 / 2.5


def bench_serving_1m(quick: bool = False) -> dict:
    """The million-request tier: how far the columnar fast backend scales.

    Two measurements:

    * cross-checks — fifo, dynamic, and continuous at 10^5 requests (10^4
      under ``--quick``), fast vs reference backend in-process over
      ``GATE_PAIRS`` alternating pairs (one under ``--quick``), results
      asserted equal on every pair with a ``record_requests`` cap so both
      sides build the same streamed metrics.  The reference backend cannot
      reasonably run 10^6 requests, so the speedup gates live here, on the
      median pair ratio: fifo (the highest events-per-second scheduler,
      nothing batched to amortize the scalar loop) at 5x; dynamic and
      continuous at 6x — their kernels resolve batch costs through dense
      ``BatchCostModel.cost_table`` lookups, so they carry the same
      columnar headroom as fifo rather than paying a per-launch cost-model
      call.
    * ``trace_1m`` / ``trace_1m_served`` — 10^6 requests (10^5 under
      ``--quick``) on the fast backend in a subprocess, reporting wall time
      and peak RSS: once 2x oversubscribed (the RSS high-water mark) and
      once at served load 0.8 (a readable p99).  The rows carry a
      ``regime`` label: the oversubscribed p99 is a queueing ramp (latency
      grows with queue position for the whole trace), not a service tail,
      and must not be read as one.  With the record cap the per-request
      memory is flat: the child's high-water mark is the trace columns
      plus O(1) streaming state, not a million ``RequestRecord`` objects.
    """
    import os
    import subprocess

    import numpy as np

    from repro.serving import ServingConfig, ServingEngine, make_trace

    crosscheck_n = 10_000 if quick else 100_000
    trace_n = 100_000 if quick else 1_000_000
    pairs = 1 if quick else GATE_PAIRS

    def build(scheduler: str, backend: str) -> ServingEngine:
        config = ServingConfig(
            model="gpt2", scheduler=scheduler, backend=backend, record_requests=512
        )
        return ServingEngine(config, cache=PLAN_CACHE)

    crosschecks = {}
    for scheduler in ("fifo", "dynamic", "continuous"):
        fast_engine = build(scheduler, "fast")
        rate = _OVERLOAD_FACTOR / fast_engine.base_latency_s()
        trace = make_trace(
            "poisson", rate, crosscheck_n, rng=np.random.default_rng(0),
            decode_steps=(1, 4),
        )
        _, timing = timed_pairs(
            lambda: fast_engine.run(trace, offered_rate_rps=rate),
            lambda: build(scheduler, "reference").run(trace, offered_rate_rps=rate),
            equal_on_rail(scheduler, "columnar"),
            pairs,
        )
        crosschecks[scheduler] = {"num_requests": crosscheck_n, **timing}

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

    def child_row(load_factor: float, regime: str) -> dict:
        child = subprocess.run(
            [sys.executable, "-c", _SERVING_1M_CHILD, str(trace_n), str(load_factor)],
            capture_output=True, text=True, env=env, check=True,
        )
        row = {"num_requests": trace_n, "regime": regime, **json.loads(child.stdout)}
        if regime == "overload":
            # 2x oversubscribed: every request queues behind the whole
            # backlog, so p99 tracks the queueing ramp (~minutes at 10^6
            # requests), not the service-time tail.  Label it so downstream
            # readers of BENCH_sweep.json never quote it as a latency.
            row["p99_note"] = (
                "overload regime: p99 is the queueing ramp of a 2x"
                " oversubscribed serial server, not a service tail"
            )
        return row

    return {
        "crosscheck": crosschecks["fifo"],
        "crosscheck_dynamic": crosschecks["dynamic"],
        "crosscheck_continuous": crosschecks["continuous"],
        "trace_1m": child_row(_OVERLOAD_FACTOR, "overload"),
        "trace_1m_served": child_row(_SERVED_FACTOR, "served"),
    }


#: child script for the fleet-scale tier: the columnar cluster fast path in
#: a fresh interpreter, so ``ru_maxrss`` measures the fleet run alone.
_CLUSTER_1M_CHILD = """\
import json, resource, sys, time
import numpy as np
from repro.serving import ClusterConfig, ClusterRouter, make_trace
from repro.sweep.cache import PLAN_CACHE

num_requests = int(sys.argv[1])
num_replicas = int(sys.argv[2])
config = ClusterConfig(
    model="gpt2", platforms=("A",) * num_replicas, scheduler="fifo",
    policy="round-robin", backend="fast", record_requests=512,
)
router = ClusterRouter(config, cache=PLAN_CACHE)
rate = 0.8 * router.fleet_capacity_rps()
trace = make_trace(
    "poisson", rate, num_requests, rng=np.random.default_rng(0),
    decode_steps=(1, 4),
)
start = time.perf_counter()
result = router.run(trace, offered_rate_rps=rate)
wall_s = time.perf_counter() - start
print(json.dumps({
    "wall_s": round(wall_s, 4),
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    ),
    "num_completed": result.num_completed,
    "records_kept": len(result.records),
    "p99_ms": round(result.p99_s * 1e3, 4),
}))
"""


def bench_cluster_1m(quick: bool = False) -> dict:
    """The fleet-scale tier: the columnar cluster fast path at 10^5-10^6.

    * ``crosscheck`` — a 4-replica round-robin fifo fleet at 10^5 requests
      (10^4 under ``--quick``), fast vs reference router in-process over
      ``GATE_PAIRS`` alternating pairs (one under ``--quick``), the full
      ``ClusterResult`` asserted equal on every pair under the same record
      cap; every gate below reads the median pair ratio.  The
      reference heap cannot reasonably run 10^6 fleet events, so the >= 5x
      speedup gate lives here.
    * ``crosscheck_faulted`` — the same fleet under the dynamic scheduler
      at the served rate, with a crash window and ~13k timeout-driven
      retries, which rides the event-replaying faulted rail
      (``run_fast_faulted``) instead of the closed forms.  Asserted
      bit-identical to the reference and that the faulted rail was actually
      taken (``backend_used == "columnar-faulted"``); gated at >= 5x.
    * ``crosscheck_least_loaded`` — the no-fault fifo fleet under
      least-loaded at the served rate, which runs the routing pass on the
      replica machines (round-robin without shedding is the ``i mod R``
      closed form and never builds one).  Asserted bit-identical and on the
      ``columnar`` rail; gated at >= 5x.  The served rate keeps the
      reference loop to seconds: at the overload rate it takes minutes.
    * ``fleet_1m`` — 10^6 requests (10^5 under ``--quick``) across the same
      fleet on the fast path in a subprocess, reporting wall time and peak
      RSS; with the record cap the memory high-water mark tracks the trace
      columns, not per-request router state.
    """
    import os
    import subprocess

    import numpy as np

    from repro.serving import ClusterConfig, ClusterRouter, make_trace

    crosscheck_n = 10_000 if quick else 100_000
    fleet_n = 100_000 if quick else 1_000_000
    replicas = 4
    pairs = 1 if quick else GATE_PAIRS

    def build(
        backend: str, faulted: bool = False, policy: str = "round-robin"
    ) -> ClusterRouter:
        knobs = (
            # the faulted tier runs the dynamic scheduler at the served rate
            # with tight timeouts: the crash window plus ~13k timeout-driven
            # retries all replay on the event-replaying faulted rail.
            dict(
                scheduler="dynamic",
                fault_profile="crash",
                timeout_s=0.02,
                timeout_cap_s=0.16,
                max_retries=3,
            )
            if faulted
            else dict(scheduler="fifo")
        )
        config = ClusterConfig(
            model="gpt2", platforms=("A",) * replicas,
            policy=policy, backend=backend, record_requests=512,
            **knobs,
        )
        return ClusterRouter(config, cache=PLAN_CACHE)

    fast_router = build("fast")
    rate = _OVERLOAD_FACTOR * fast_router.fleet_capacity_rps()
    trace = make_trace(
        "poisson", rate, crosscheck_n, rng=np.random.default_rng(0),
        decode_steps=(1, 4),
    )
    _, fleet_timing = timed_pairs(
        lambda: fast_router.run(trace, offered_rate_rps=rate),
        lambda: build("reference").run(trace, offered_rate_rps=rate),
        equal_on_rail("round-robin fleet", "columnar"),
        pairs,
    )

    served_rate = _SERVED_FACTOR * fast_router.fleet_capacity_rps()
    served_trace = make_trace(
        "poisson", served_rate, crosscheck_n, rng=np.random.default_rng(0),
        decode_steps=(1, 4),
    )
    faulted_fast, faulted_timing = timed_pairs(
        lambda: build("fast", faulted=True).run(
            served_trace, offered_rate_rps=served_rate
        ),
        lambda: build("reference", faulted=True).run(
            served_trace, offered_rate_rps=served_rate
        ),
        equal_on_rail("faulted fleet", "columnar-faulted"),
        pairs,
    )
    assert faulted_fast.num_retries > 0, (
        "faulted crosscheck produced no retries — the crash window missed"
        " the trace, so nothing was exercised"
    )

    _, least_loaded_timing = timed_pairs(
        lambda: build("fast", policy="least-loaded").run(
            served_trace, offered_rate_rps=served_rate
        ),
        lambda: build("reference", policy="least-loaded").run(
            served_trace, offered_rate_rps=served_rate
        ),
        equal_on_rail("least-loaded fleet", "columnar"),
        pairs,
    )

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", _CLUSTER_1M_CHILD, str(fleet_n), str(replicas)],
        capture_output=True, text=True, env=env, check=True,
    )
    fleet_1m = json.loads(child.stdout)
    return {
        "crosscheck": {
            "num_requests": crosscheck_n,
            "num_replicas": replicas,
            **fleet_timing,
        },
        "crosscheck_faulted": {
            "num_requests": crosscheck_n,
            "num_replicas": replicas,
            "scheduler": "dynamic",
            "load_factor": _SERVED_FACTOR,
            "fault_profile": "crash",
            "timeout_ms": 20.0,
            "num_retries": faulted_fast.num_retries,
            "num_failed": faulted_fast.num_failed,
            **faulted_timing,
        },
        "crosscheck_least_loaded": {
            "num_requests": crosscheck_n,
            "num_replicas": replicas,
            "policy": "least-loaded",
            "load_factor": _SERVED_FACTOR,
            **least_loaded_timing,
        },
        "fleet_1m": {"num_requests": fleet_n, "num_replicas": replicas, **fleet_1m},
    }


def bench_suite() -> dict:
    def runner():
        return {name: fn() for name, fn in SUITE.items()}

    def describe(results):
        return {name: result.rows for name, result in results.items()}

    _, payload = bench_tiers(runner, describe)
    payload["harnesses"] = len(SUITE)
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="also bench the whole suite")
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: a four-model fig6 subset (for CI)",
    )
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_sweep.json"))
    args = parser.parse_args(argv)

    models = ("swin-t", "vit-b", "gpt2", "segformer") if args.quick else None
    payload: dict = {
        "benchmark": "sweep-engine",
        "mode": "quick" if args.quick else "standard",
        "python": sys.version.split()[0],
        "machine": platform_mod.machine(),
        "fig6": bench_fig6(models),
        "platform_c": bench_platform_c(models),
        "serving": bench_serving(),
        "cluster": bench_cluster(),
        "autoscale": bench_autoscale(),
        "serving_1m": bench_serving_1m(quick=args.quick),
        "cluster_1m": bench_cluster_1m(quick=args.quick),
    }
    if args.full:
        payload["suite"] = bench_suite()

    out_path = Path(args.output)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    fig6 = payload["fig6"]
    print(
        f"fig6: reference {fig6['reference_s']}s -> engine cold {fig6['engine_cold_s']}s"
        f" ({fig6['speedup_cold']}x), disk-warm {fig6['engine_disk_warm_s']}s"
        f" ({fig6['speedup_disk_warm']}x vs cold), warm {fig6['engine_warm_s']}s"
        f" ({fig6['speedup_warm']}x); rows byte-identical"
    )
    plat_c = payload["platform_c"]
    print(
        f"platform C (N-device): reference {plat_c['reference_s']}s ->"
        f" cold {plat_c['engine_cold_s']}s ({plat_c['speedup_cold']}x),"
        f" disk-warm {plat_c['engine_disk_warm_s']}s, warm {plat_c['engine_warm_s']}s"
    )
    serving = payload["serving"]
    serving_warm_gain = round(serving["engine_cold_s"] / serving["engine_warm_s"], 2)
    print(
        f"serving (discrete-event): reference {serving['reference_s']}s ->"
        f" cold {serving['engine_cold_s']}s ({serving['speedup_cold']}x),"
        f" disk-warm {serving['engine_disk_warm_s']}s,"
        f" warm {serving['engine_warm_s']}s ({serving_warm_gain}x vs cold)"
    )
    cluster = payload["cluster"]
    cluster_warm_gain = round(cluster["engine_cold_s"] / cluster["engine_warm_s"], 2)
    print(
        f"cluster (fault-tolerant fleet): reference {cluster['reference_s']}s ->"
        f" cold {cluster['engine_cold_s']}s ({cluster['speedup_cold']}x),"
        f" disk-warm {cluster['engine_disk_warm_s']}s,"
        f" warm {cluster['engine_warm_s']}s ({cluster_warm_gain}x vs cold)"
    )
    autoscale = payload["autoscale"]
    autoscale_warm_gain = round(
        autoscale["engine_cold_s"] / autoscale["engine_warm_s"], 2
    )
    print(
        f"autoscale (elastic fleet): reference {autoscale['reference_s']}s ->"
        f" cold {autoscale['engine_cold_s']}s ({autoscale['speedup_cold']}x),"
        f" disk-warm {autoscale['engine_disk_warm_s']}s,"
        f" warm {autoscale['engine_warm_s']}s ({autoscale_warm_gain}x vs cold)"
    )
    serving_1m = payload["serving_1m"]
    crosscheck = serving_1m["crosscheck"]
    check_dynamic = serving_1m["crosscheck_dynamic"]
    check_continuous = serving_1m["crosscheck_continuous"]
    trace_1m = serving_1m["trace_1m"]
    trace_served = serving_1m["trace_1m_served"]
    print(
        f"serving_1m: crosscheck@{crosscheck['num_requests']} fifo"
        f" {crosscheck['speedup']}x, dynamic {check_dynamic['speedup']}x,"
        f" continuous {check_continuous['speedup']}x (all bit-identical);"
        f" {trace_1m['num_requests']}-request fast trace {trace_1m['wall_s']}s,"
        f" peak RSS {trace_1m['peak_rss_mb']} MB,"
        f" {trace_1m['records_kept']} records kept,"
        f" p99 {trace_1m['p99_ms']} ms (overload regime — queueing ramp,"
        f" not a service tail);"
        f" served-load p99 {trace_served['p99_ms']} ms"
    )
    cluster_1m = payload["cluster_1m"]
    fleet_check = cluster_1m["crosscheck"]
    faulted_check = cluster_1m["crosscheck_faulted"]
    least_loaded_check = cluster_1m["crosscheck_least_loaded"]
    fleet_1m = cluster_1m["fleet_1m"]
    print(
        f"cluster_1m: crosscheck@{fleet_check['num_requests']}"
        f"x{fleet_check['num_replicas']} reference {fleet_check['reference_s']}s ->"
        f" fast {fleet_check['fast_s']}s ({fleet_check['speedup']}x,"
        f" bit-identical); faulted crosscheck (crash +"
        f" {faulted_check['timeout_ms']}ms timeouts,"
        f" {faulted_check['num_retries']} retries)"
        f" {faulted_check['reference_s']}s -> {faulted_check['fast_s']}s"
        f" ({faulted_check['speedup']}x, bit-identical);"
        f" least-loaded crosscheck {least_loaded_check['reference_s']}s ->"
        f" {least_loaded_check['fast_s']}s ({least_loaded_check['speedup']}x,"
        f" bit-identical);"
        f" {fleet_1m['num_requests']}-request fleet"
        f" {fleet_1m['wall_s']}s, peak RSS {fleet_1m['peak_rss_mb']} MB,"
        f" {fleet_1m['records_kept']} records kept"
    )
    if args.full:
        suite = payload["suite"]
        print(
            f"suite: reference {suite['reference_s']}s -> cold {suite['engine_cold_s']}s"
            f" ({suite['speedup_cold']}x), disk-warm {suite['engine_disk_warm_s']}s"
            f" ({suite['speedup_disk_warm']}x vs cold), warm {suite['engine_warm_s']}s"
            f" ({suite['speedup_warm']}x)"
        )
    print(f"wrote {out_path}")
    # the speedup gates apply to the full grid; the --quick subset has
    # proportionally less cross-point reuse and only smoke-checks correctness.
    if not args.quick and fig6["speedup_cold"] < 5.0:
        print("WARNING: cold speedup below the 5x target", file=sys.stderr)
        return 1
    if not args.quick and fig6["speedup_disk_warm"] < 3.0:
        print("WARNING: disk-warm speedup below the 3x target", file=sys.stderr)
        return 1
    # the serving gate is cold-vs-warm: a warm run must skip all lowering
    # and simulation (batch costs served from the cache), so the event loop
    # itself is what remains.
    if not args.quick and serving_warm_gain < 2.0:
        print("WARNING: serving warm speedup below the 2x target", file=sys.stderr)
        return 1
    # same contract for the cluster: all replicas share one plan cache, so
    # a warm fleet run pays only for the router's event loop.
    if not args.quick and cluster_warm_gain < 2.0:
        print("WARNING: cluster warm speedup below the 2x target", file=sys.stderr)
        return 1
    # the elastic tier's controller evaluations and drain/provision events
    # live in the event loop; everything below it (lowering, batch costs)
    # must come out of the warm cache.
    if not args.quick and autoscale_warm_gain < 2.0:
        print("WARNING: autoscale warm speedup below the 2x target", file=sys.stderr)
        return 1
    # the columnar gate runs on the fifo cross-check (the highest
    # events-per-second scheduler, with no batching to amortize the scalar
    # loop's overhead) — the 10^6 run has no reference to compare against.
    if not args.quick and crosscheck["speedup"] < 5.0:
        print("WARNING: columnar speedup below the 5x target", file=sys.stderr)
        return 1
    # the batched kernels now resolve costs through dense cost-table lookups
    # instead of per-launch cost-model calls (~18x dynamic / ~9x continuous
    # measured) — gate at 6x to catch regressions back to scalar dispatch.
    if not args.quick and check_dynamic["speedup"] < 6.0:
        print("WARNING: columnar dynamic speedup below the 6x target", file=sys.stderr)
        return 1
    if not args.quick and check_continuous["speedup"] < 6.0:
        print("WARNING: columnar continuous speedup below the 6x target", file=sys.stderr)
        return 1
    # the fleet gate runs on the 4-replica cross-check: the fast path must
    # beat the reference heap by 5x while staying bit-identical.
    if not args.quick and fleet_check["speedup"] < 5.0:
        print("WARNING: columnar cluster speedup below the 5x target", file=sys.stderr)
        return 1
    # same bar for the faulted rail: replaying crash windows and timeout
    # retries through the lazy machines must still clear 5x.
    if not args.quick and faulted_check["speedup"] < 5.0:
        print("WARNING: columnar faulted-cluster speedup below the 5x target", file=sys.stderr)
        return 1
    # and for the routing pass: least-loaded probes every replica machine
    # on every arrival, yet must still clear 5x.
    if not args.quick and least_loaded_check["speedup"] < 5.0:
        print("WARNING: columnar least-loaded speedup below the 5x target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
