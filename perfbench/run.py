"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced rounds with rounds traced by
:class:`perfbench.tracing.Tracer` and reports the per-layer metrics.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; lines before it are a human-readable report.  See
``perfbench/METRICS.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: repeats of the set-up (and of the import probe) whose median is setup_s
SETUP_REPEATS = 3
#: the imports a workload process pays before it can do anything
IMPORTS = "import repro.analysis, repro.serving, repro.sweep.runner"
#: checkout files the benchmark reads besides its own
REQUIRED = ("src/repro", "scripts/calibrate.py", "results/fig6_breakdown.csv")


def _program_env() -> dict[str, str]:
    """Environment for the program: sources from the checkout and the
    persistent artifact store off (the sweep workload attaches its own store
    under the checkout; nothing may land in the user's cache)."""
    env = dict(os.environ, REPRO_CACHE_DIR="off")
    paths = [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def import_seconds() -> float:
    """Median reference-speed time a fresh interpreter spends on imports."""
    from perfbench import speed

    child_code = (
        "import time; start = time.perf_counter(); "
        f"{IMPORTS}; wall = time.perf_counter() - start; "
        "from perfbench.speed import probe; print(wall, probe())"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        child = subprocess.run(
            [sys.executable, "-c", child_code],
            cwd=ROOT, env=_program_env(), capture_output=True, text=True, check=True,
        )
        wall, after = map(float, child.stdout.split())
        samples.append(speed.reference_seconds(wall, before, after))
    return statistics.median(samples)


def load_table4() -> dict[str, tuple[str, float]]:
    """The paper's Table IV anchors, as ``scripts/calibrate.py`` defines them."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("calibrate", ROOT / "scripts" / "calibrate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PAPER_TABLE4


def measured(fn, probes: list[float]) -> tuple[float, float, object]:
    """Run ``fn`` between two speed probes: (reference s, wall s, result).

    The GC's scan set is frozen during the call: earlier rounds leave
    long-lived objects behind, and generational collections would otherwise
    re-scan them inside the timed call.  Probe times go to ``probes``.
    """
    from perfbench import speed

    before = speed.probe()
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        result = fn()
        wall = time.perf_counter() - start
    finally:
        gc.unfreeze()
    after = speed.probe()
    probes += (before, after)
    return speed.reference_seconds(wall, before, after), wall, result


class Run:
    """Attempt/failure bookkeeping and samples across a run's operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: kind -> reference seconds of each correct untraced operation
        self.seconds: dict[str, list[float]] = {}
        self.probes: list[float] = []
        #: the last correct operation's result
        self.last: object = None
        #: PlanCache counter deltas summed over traced operations
        self.cache: dict[str, dict[str, int]] = {}

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def round(self, workload, tracer=None) -> tuple[float, float]:
        """One round of the workload's operations: (reference s, wall s).

        With a ``tracer`` each operation runs inside a ``bench.op`` root span
        and its PlanCache counter deltas are summed into :attr:`cache`.
        """
        from repro.sweep.cache import PLAN_CACHE

        reference_total = wall_total = 0.0
        for kind, prepare, fn in workload.ops():
            prepare()
            before = PLAN_CACHE.stats.snapshot()
            if tracer is not None:
                fn = _in_span(tracer, fn)
            try:
                reference_s, wall_s, result = measured(fn, self.probes)
            except Exception:  # noqa: BLE001 - a failed operation must not end the run
                self.record(kind, [traceback.format_exc(limit=4)])
                continue
            reference_total += reference_s
            wall_total += wall_s
            if self.record(kind, workload.check(kind, result)):
                if tracer is None:
                    self.seconds.setdefault(kind, []).append(reference_s)
                self.last = result
            if tracer is not None:
                delta = PLAN_CACHE.stats.delta_since(before)
                for counter in ("hits", "misses", "disk_hits"):
                    bucket = self.cache.setdefault(counter, {})
                    for stage, count in delta[counter].items():
                        bucket[stage] = bucket.get(stage, 0) + count
        return reference_total, wall_total


def _in_span(tracer, fn, layer: str = "bench.op"):
    def traced():
        with tracer.span(layer):
            return fn()

    return traced


def measure(args, workload, run: Run) -> dict[str, float]:
    from perfbench import metrics
    from perfbench.tracing import Tracer

    from repro.ops.base import OpCategory

    values: dict[str, float] = {}
    setup_tracer = Tracer()
    setup = []
    for _ in range(SETUP_REPEATS):
        if args.trace:
            with setup_tracer.installed():
                fn = _in_span(setup_tracer, workload.setup, "bench.setup")
                setup.append(measured(fn, run.probes)[0])
        else:
            setup.append(measured(workload.setup, run.probes)[0])
    if not args.trace:
        values["setup_s"] = import_seconds() + statistics.median(setup)

    tracer = Tracer() if args.trace else None
    traced: list[tuple[float, float]] = []
    untraced: list[tuple[float, float]] = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(run.round(workload))
        if tracer is not None:
            with tracer.installed():
                traced.append(run.round(workload, tracer))
        if run.failed:
            break

    run.record("verify", workload.verify())
    if run.failed or set(run.seconds) != {"cold", "warm"}:
        return values
    mean_gap, match, lines = metrics.fidelity(
        workload.fidelity_rows(), load_table4(), OpCategory.GEMM.value
    )
    print("\n".join(lines))
    sim = metrics.sim_counts(run.last) if hasattr(run.last, "replicas") else {}
    if sim:
        print(", ".join(f"{name}={value}" for name, value in sim.items()))
    print(
        f"{workload.name}: {len(run.seconds['cold'])} cold and {len(run.seconds['warm'])}"
        f" warm operations of {workload.items} items;"
        f" median speed probe {1e3 * statistics.median(run.probes):.2f} ms"
    )
    if tracer is not None:
        return metrics.per_layer(
            tracer,
            setup_tracer,
            traced,
            untraced,
            run,
            workload.store_bytes,
            sim,
            workload.items,
        )
    values["cold_items_per_s"] = workload.items / statistics.median(run.seconds["cold"])
    values["warm_items_per_s"] = workload.items / statistics.median(run.seconds["warm"])
    values["fidelity_err_pp"] = mean_gap
    values["fidelity_group_match"] = match
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["success_rate"] = 1.0 - run.failed / run.attempted
    return values


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing is salted per process, which moves dict layouts,
        # peak RSS and timings between runs; fix it for a steadier run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"not a repository checkout: {', '.join(missing)} missing", file=sys.stderr)
        return 2
    os.environ.update(_program_env())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import metrics
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    run = Run()
    try:
        values = measure(args, make_workload(args.workload, args.seed, ROOT, workdir), run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still owns a sibling directory
    for problem in run.problems:
        print(f"FAILED {problem}")
    expected = {name for name, _, _ in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)}
    correct = not run.failed and set(values) == expected
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if correct else max(run.failed, 1),
        "metrics": metrics.report(values),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
