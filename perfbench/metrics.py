"""Metric definitions and the arithmetic that turns measurements into them.

``END_TO_END`` and ``PER_LAYER`` are the single list of every metric the
runner prints, as ``(name, unit, better)``; ``BENCHMARK.json`` declares the
same names and units (a harness test keeps the two in step).  What each one
means and which end-to-end metric a layer metric should move is in
``METRICS.md`` next to this file.
"""

from __future__ import annotations

import statistics

from perfbench.tracing import PASS_NAMES

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cold_items_per_s", "items/s", "higher"),
    ("warm_items_per_s", "items/s", "higher"),
    ("fidelity_err_pp", "pp", "lower"),
    ("fidelity_group_match", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "fraction", "higher"),
)

#: traced layers reported as ``<name>_s`` (self seconds per round) and
#: ``<name>_calls`` (calls per round); the tracer layer has the same name.
TIMED_LAYERS = (
    "models.build",
    "flows.lower",
    "flows.derive",
    *(f"flows.pass.{name}" for name in PASS_NAMES + ("other",)),
    "runtime.simulate",
    "runtime.memory",
    "profiler.profile",
    "sweep.cache",
    "store.get",
    "store.put",
    "serving.trace",
    "serving.cost",
    "serving.kernel",
    "cluster.choose",
    "serving.dispatch",
    "autoscale.decide",
    "serving.metrics",
)

#: PlanCache stages whose hit/miss/disk-hit counters are reported
CACHE_STAGES = ("graph", "plan", "memory", "transform", "serving")
CACHE_COUNTERS = (("hits", "higher"), ("misses", "lower"), ("disk_hits", "higher"))

SIM_COUNTS = (
    ("sim.completed", "count", "higher"),
    ("sim.shed", "count", "lower"),
    ("sim.failed", "count", "lower"),
    ("sim.retries", "count", "lower"),
    ("sim.dispatches", "count", "lower"),
    ("sim.iterations", "count", "lower"),
    ("sim.mean_batch", "requests", "higher"),
    ("sim.scale_events", "count", "lower"),
    ("sim.replica_seconds", "s", "lower"),
    ("sim.p99_ms", "ms", "lower"),
    ("sim.goodput", "fraction", "higher"),
)

PER_LAYER = (
    *(
        metric
        for layer in TIMED_LAYERS
        for metric in ((f"{layer}_s", "s", "lower"), (f"{layer}_calls", "count", "lower"))
    ),
    ("analysis.self_s", "s", "lower"),
    ("cluster.run_self_s", "s", "lower"),
    ("cluster.run_calls", "count", "lower"),
    ("runtime.ns_per_kernel", "ns", "lower"),
    ("store.get_hit_ratio", "fraction", "higher"),
    ("store.bytes", "B", "lower"),
    *(
        (f"sweep.cache.{stage}.{counter}", "count", better)
        for stage in CACHE_STAGES
        for counter, better in CACHE_COUNTERS
    ),
    ("sweep.cache.hit_ratio", "fraction", "higher"),
    ("cluster.host_us_per_request", "us", "lower"),
    ("cluster.host_ns_per_dispatch", "ns", "lower"),
    *SIM_COUNTS,
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("host.probe_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def report(values: dict[str, float]) -> dict[str, dict]:
    """``{name: {"value": v, "unit": u}}`` in declaration order."""
    return {name: {"value": values[name], "unit": UNITS[name]} for name in values}


# -- fidelity -----------------------------------------------------------------


def share_column(group_label: str) -> str:
    """The fig6 row column holding a group's share (``<label>_pct``)."""
    return group_label.lower().replace(" ", "_").replace("-", "_") + "_pct"


def fidelity(
    rows: list[dict], anchors: dict[str, tuple[str, float]], gemm_label: str
) -> tuple[float, float, list[str]]:
    """Gap to the paper's Table IV over the anchored models present in ``rows``.

    Table IV's definition: platform A, CPU+GPU, each group's share averaged
    over batch 1 and 8.  Returns the mean absolute gap (percentage points)
    between the paper's share and the simulated share of the paper's named
    group, the fraction of models whose simulated dominant non-GEMM group
    is the paper's, and one report line per model.
    """
    excluded = {"non_gemm_pct", share_column(gemm_label)}
    gaps: list[float] = []
    matches = 0
    lines = []
    for model, (group, paper_share) in anchors.items():
        picked = [
            r
            for r in rows
            if r["model"] == model
            and r["platform"] == "A"
            and r["device"] == "cpu+gpu"
            and r["batch"] in (1, 8)
        ]
        if not picked:
            continue
        columns = [c for c in picked[0] if c.endswith("_pct") and c not in excluded]
        mean = {c: sum(r[c] for r in picked) / len(picked) for c in columns}
        dominant = max(columns, key=lambda c: mean[c])
        simulated = mean[share_column(group)]
        gap = abs(100.0 * paper_share - simulated)
        matched = dominant == share_column(group)
        gaps.append(gap)
        matches += matched
        lines.append(
            f"fidelity {model:14s} paper {group} {100 * paper_share:5.1f}%"
            f"  simulated {simulated:5.2f}%  gap {gap:5.2f} pp"
            f"  dominant {dominant[:-4]}{'' if matched else '  MISS'}"
        )
    if not gaps:
        raise ValueError("no Table IV anchor among the workload's rows")
    return sum(gaps) / len(gaps), matches / len(gaps), lines


# -- per-layer assembly -------------------------------------------------------


def per_layer(
    tracer, setup_tracer, traced, untraced, run, store_bytes: int, sim: dict, items: int
):
    """Per-round layer figures.

    ``setup_tracer`` traced the set-ups, which alone generate fleet traces,
    so the ``serving.trace`` figures are per set-up.  ``traced`` and ``untraced`` hold each round's (reference seconds, wall
    seconds); ``run`` is the runner's :class:`~perfbench.run.Run`, with the
    reference seconds of every untraced operation, the speed probes, and
    PlanCache counter deltas summed over the traced rounds.
    """
    rounds = len(traced)
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}_s"] = tracer.self_s(layer) / rounds
        out[f"{layer}_calls"] = tracer.calls(layer) / rounds
    setups = setup_tracer.calls("bench.setup")
    out["serving.trace_s"] = setup_tracer.self_s("serving.trace") / setups
    out["serving.trace_calls"] = setup_tracer.calls("serving.trace") / setups
    out["analysis.self_s"] = tracer.self_s("analysis") / rounds
    out["cluster.run_self_s"] = tracer.self_s("cluster.run") / rounds
    out["cluster.run_calls"] = tracer.calls("cluster.run") / rounds
    kernels = tracer.counts.get("runtime.kernels", 0)
    out["runtime.ns_per_kernel"] = (
        1e9 * tracer.self_s("runtime.simulate") / kernels if kernels else 0.0
    )
    gets = tracer.calls("store.get")
    out["store.get_hit_ratio"] = tracer.counts.get("store.get_hits", 0) / gets if gets else 0.0
    out["store.bytes"] = store_bytes
    lookups = found = 0
    for stage in CACHE_STAGES:
        for counter, _ in CACHE_COUNTERS:
            value = run.cache.get(counter, {}).get(stage, 0)
            out[f"sweep.cache.{stage}.{counter}"] = value / rounds
            lookups += value
            found += value if counter != "misses" else 0
    out["sweep.cache.hit_ratio"] = found / lookups if lookups else 0.0
    # the median untraced warm operation, at reference speed
    warm = statistics.median(run.seconds["warm"])
    dispatches = sim.get("sim.dispatches", 0)
    out["cluster.host_us_per_request"] = 1e6 * warm / items if sim else 0.0
    out["cluster.host_ns_per_dispatch"] = 1e9 * warm / dispatches if dispatches else 0.0
    for name, _, _ in SIM_COUNTS:
        out[name] = sim.get(name, 0)
    walls = [wall for _, wall in traced]
    out["trace.wall_s"] = statistics.median(walls)
    out["trace.unattributed_pct"] = 100.0 * tracer.self_s("bench.op") / sum(walls)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(ref for ref, _ in traced)
        / statistics.median(ref for ref, _ in untraced)
        - 1.0
    )
    out["host.probe_ms"] = 1e3 * statistics.median(run.probes)
    return out


def sim_counts(result) -> dict[str, float]:
    """The simulated outcome of one fleet run, as exact counts."""
    iterations = sum(r.num_iterations for r in result.replicas)
    batched = sum(r.mean_batch_size * r.num_iterations for r in result.replicas)
    return {
        "sim.completed": result.num_completed,
        "sim.shed": result.num_shed,
        "sim.failed": result.num_failed,
        "sim.retries": result.num_retries,
        "sim.dispatches": sum(r.num_dispatches for r in result.replicas),
        "sim.iterations": iterations,
        "sim.mean_batch": batched / iterations if iterations else 0.0,
        "sim.scale_events": len(result.scale_events),
        "sim.replica_seconds": result.replica_seconds,
        "sim.p99_ms": 1e3 * result.p99_s,
        "sim.goodput": result.goodput,
    }
