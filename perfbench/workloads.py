"""The benchmark's workloads, driven through public entry points only.

Every workload runs in *rounds* of timed operations.  An operation is one
grid pass (``analysis.run_fig6``) or one fleet run (``ClusterRouter.run``),
tagged ``cold`` or ``warm``:

* ``sweep-grid`` — cold: the fig6 grid from an empty in-memory cache while
  writing a fresh :class:`ArtifactStore`; warm: the same grid from a fresh
  in-memory cache backed by that store (what a new process pays).
* ``fleet-*`` — cold: a freshly built router over an empty plan cache (the
  fleet's first run pays plan lowering and batch-cost tables); warm: the
  router built at set-up re-running the trace.

Each workload also checks its outputs (:meth:`check`, per operation, and
:meth:`verify`, once per run outside the timed section) and yields the
``run_fig6`` rows its fidelity figures are computed from.
"""

from __future__ import annotations

import csv
import io
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro import analysis, serving
from repro.serving import AutoscaleConfig, ClusterConfig, ClusterRouter, RequestTrace
from repro.sweep.cache import PLAN_CACHE
from repro.sweep.store import ArtifactStore

#: the fig6 harness' iteration count, as its committed artifact uses.
GRID_ITERATIONS = 2
#: 17 paper models x batch {1, 8} x {CPU-only, CPU+GPU} x platforms {A, B}
GRID_POINTS = 136
#: disk-warm passes per cold pass: a warm pass is ~15x shorter, so three
#: of them per round keep both medians on enough samples.
WARM_PASSES = 3
#: requests of each fleet trace replayed through the reference router to
#: pin the fast result to it (outside the timed section).
PREFIX_REQUESTS = 2000

#: one operation of a round: (kind, untimed preparation, timed run).
Op = tuple[str, Callable[[], None], Callable[[], object]]


class Workload:
    """Interface the runner drives (see the module docstring)."""

    name = ""
    #: work items per operation: grid points or simulated requests
    items = 0
    #: bytes the last cold operation wrote to the artifact store
    store_bytes = 0

    def setup(self) -> None:
        """Generate inputs and build the program state; run several times."""

    def ops(self) -> list[Op]:
        """One round: ``(kind, prepare, run)``; only ``run`` is timed."""
        raise NotImplementedError

    def check(self, kind: str, result: object) -> list[str]:
        """Problems with one operation's output (empty when correct)."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Once-per-run checks on top of :meth:`check`."""
        return []

    def fidelity_rows(self) -> list[dict]:
        """``run_fig6`` rows covering the paper models this workload runs."""
        raise NotImplementedError


class SweepGrid(Workload):
    name = "sweep-grid"
    items = GRID_POINTS

    def __init__(self, seed: int, workdir: Path, committed_csv: Path):
        self.seed = seed
        self.committed_csv = committed_csv
        self.store_dir = workdir / "store"
        self.first: "analysis.ExperimentResult | None" = None

    def _grid(self):
        return analysis.run_fig6(iterations=GRID_ITERATIONS, seed=self.seed)

    def setup(self) -> None:
        # the grid itself is fixed; the seed drives the profiler's sampling
        # jitter.  Set-up only points the plan cache at a fresh store.
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir.mkdir(parents=True)
        PLAN_CACHE.store = ArtifactStore(self.store_dir)
        PLAN_CACHE.clear()

    def _cold(self):
        result = self._grid()
        self.store_bytes = PLAN_CACHE.store.info().total_bytes
        return result

    def ops(self) -> list[Op]:
        # each cold pass starts over from a fresh store, as set-up does
        return [("cold", self.setup, self._cold)] + [
            ("warm", PLAN_CACHE.clear, self._grid)
        ] * WARM_PASSES

    def check(self, kind: str, result) -> list[str]:
        if len(result.rows) != GRID_POINTS:
            return [f"{kind} pass produced {len(result.rows)} rows, not {GRID_POINTS}"]
        if self.first is None:
            self.first = result
            return _share_sum_problems(result.rows)
        if result.rows != self.first.rows:
            return [f"{kind} pass rows differ from the first cold pass"]
        return []

    def verify(self) -> list[str]:
        if self.first is None:
            return ["no grid pass completed"]
        if self.seed != 0:
            return []
        # at seed 0 the grid is exactly the committed figure-6 artifact
        buffer = io.StringIO(newline="")
        columns = list(self.first.rows[0])
        writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(self.first.rows)
        if buffer.getvalue().encode() != self.committed_csv.read_bytes():
            return [f"seed-0 grid differs from {self.committed_csv.name}"]
        return []

    def fidelity_rows(self) -> list[dict]:
        return self.first.rows if self.first is not None else []


def _share_sum_problems(rows: list[dict]) -> list[str]:
    """Each row's group shares must add up to its whole latency."""
    problems = []
    for row in rows:
        total = sum(v for k, v in row.items() if k.endswith("_pct") and k != "non_gemm_pct")
        if abs(total - 100.0) > 0.1:
            problems.append(f"{row['model']} b{row['batch']} {row['device']}: shares sum to {total}")
    return problems


class Fleet(Workload):
    """One fleet scenario: a config, a trace shape, and the rail it must take."""

    def __init__(
        self,
        name: str,
        seed: int,
        config: ClusterConfig,
        trace_kind: str,
        load: float,
        num_requests: int,
        expect_backend: str,
        expect_fallback: str | None = None,
    ):
        self.name = name
        self.seed = seed
        self.config = config
        self.trace_kind = trace_kind
        self.load = load
        self.items = num_requests
        self.expect_backend = expect_backend
        #: start of the fallback reason the run must report (None: no fallback)
        self.expect_fallback = expect_fallback
        self.first = None
        self.router: ClusterRouter | None = None
        self.trace: RequestTrace | None = None
        self.rate = 0.0

    def setup(self) -> None:
        PLAN_CACHE.store = None
        PLAN_CACHE.clear()
        self.router = ClusterRouter(self.config, cache=PLAN_CACHE)
        self.rate = self.load * self.router.fleet_capacity_rps()
        # looked up on the package at call time, so a traced run sees it
        self.trace = serving.make_trace(
            self.trace_kind,
            self.rate,
            self.items,
            rng=np.random.default_rng(self.seed),
            decode_steps=(1, 4),
        )

    def _cold(self):
        return ClusterRouter(self.config, cache=PLAN_CACHE).run(
            self.trace, offered_rate_rps=self.rate
        )

    def _warm(self):
        return self.router.run(self.trace, offered_rate_rps=self.rate)

    def ops(self) -> list[Op]:
        return [("cold", PLAN_CACHE.clear, self._cold), ("warm", lambda: None, self._warm)]

    def check(self, kind: str, result) -> list[str]:
        problems = []
        reason = result.fast_path_fallback_reason
        if self.expect_fallback is None:
            reason_ok = reason is None
        else:
            reason_ok = (reason or "").startswith(self.expect_fallback)
        if result.backend_used != self.expect_backend or not reason_ok:
            problems.append(
                f"{kind} run took {result.backend_used!r}"
                f" (fallback: {reason}), not {self.expect_backend!r}"
            )
        accounted = result.num_completed + result.num_shed + result.num_failed
        if accounted != self.items or result.num_requests_total != self.items:
            problems.append(
                f"{kind} run accounts for {accounted} of {self.items} requests"
            )
        for index, (replica, utilization) in enumerate(
            zip(result.replicas, result.utilization())
        ):
            if not all(0.0 <= u <= 1.0 for u in utilization.values()):
                problems.append(f"replica {index} utilization {utilization} outside [0, 1]")
            if any(busy > result.makespan_s for busy in replica.busy_s.values()):
                problems.append(f"replica {index} busy longer than the makespan")
        if self.first is None:
            self.first = result
        elif result != self.first:
            problems.append(f"{kind} run differs from the first run")
        return problems

    def verify(self) -> list[str]:
        """Replay a trace prefix through the reference router: it must give
        the fast result exactly."""
        arrivals = self.trace.arrival_column()[:PREFIX_REQUESTS]
        steps = self.trace.decode_column()[:PREFIX_REQUESTS]
        prefix = RequestTrace(self.trace.name, arrival_s=arrivals, decode_steps=steps)
        fast = ClusterRouter(self.config, cache=PLAN_CACHE).run(
            prefix, offered_rate_rps=self.rate
        )
        reference = ClusterRouter(
            replace(self.config, backend="reference"), cache=PLAN_CACHE
        ).run(prefix, offered_rate_rps=self.rate)
        if fast != reference:
            return [f"fast and reference routers differ on a {PREFIX_REQUESTS}-request prefix"]
        return []

    def fidelity_rows(self) -> list[dict]:
        platforms = tuple(sorted(set(self.config.platforms)))
        return analysis.run_fig6(
            platform_ids=platforms,
            models=(self.config.model,),
            iterations=GRID_ITERATIONS,
            seed=self.seed,
        ).rows


def make_workload(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Build the named workload for ``seed``; ``root`` is the checkout."""
    gpt2_a4 = dict(model="gpt2", platforms=("A",) * 4)
    if name == "sweep-grid":
        return SweepGrid(seed, workdir, root / "results" / "fig6_breakdown.csv")
    if name == "fleet-least-loaded":
        config = ClusterConfig(
            **gpt2_a4,
            scheduler="fifo",
            policy="least-loaded",
            deadline_s=0.1,
            record_requests=512,
        )
        return Fleet(name, seed, config, "poisson", 0.32, 100_000, "columnar")
    if name == "fleet-faulted":
        config = ClusterConfig(
            **gpt2_a4,
            scheduler="dynamic",
            policy="round-robin",
            fault_profile="crash",
            timeout_s=0.02,
            timeout_cap_s=0.16,
            max_retries=3,
            record_requests=512,
        )
        return Fleet(name, seed, config, "poisson", 0.32, 100_000, "columnar-faulted")
    if name == "fleet-elastic":
        ceiling = 8
        config = ClusterConfig(
            model="gpt2",
            platforms=("A",) * ceiling,
            scheduler="continuous",
            policy="least-loaded",
            deadline_s=0.1,
            record_requests=4096,
            autoscale=AutoscaleConfig(
                controller="goodput",
                min_replicas=1,
                max_replicas=ceiling,
                interval_s=0.1,
                cooldown_s=0.0,
                provision_delay_s=0.1,
                slo_s=0.1,
            ),
        )
        # demand 4x one replica's capacity, spread over the 8-replica ceiling
        return Fleet(
            name, seed, config, "bursty", 4.0 / ceiling, 30_000, "reference", "autoscale"
        )
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


WORKLOADS = ("sweep-grid", "fleet-least-loaded", "fleet-faulted", "fleet-elastic")
