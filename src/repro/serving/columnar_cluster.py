"""Columnar rails for the multi-replica cluster router.

On ``backend="fast"`` a :class:`~repro.serving.cluster.ClusterConfig` that
one of these rails covers never builds the reference router's per-event
heap.  The **no-fault / no-retry / no-hedge rail** (:func:`run_fast_cluster`)
works in three passes:

1. **Routing pass** — every policy is its own
   :meth:`~repro.serving.cluster.AdmissionPolicy.choose`, called once per
   arrival on per-replica :class:`_Machine` virtual clocks instead of the
   router's replicas: recurrences over (host_free, accel_free, pending
   decode steps) that replay each scheduler's launch times without
   scheduler objects, ``Request`` objects, or heap events, and answer
   ``est_delay_s`` exactly as the reference replica would.  Built-in and
   custom policies alike; the one shortcut is round-robin without
   shedding, which is closed form (``i mod R``).
2. **Serving pass** — each replica's admitted sub-stream is a column slice
   of the trace, fed through the existing per-scheduler columnar kernels of
   :mod:`repro.serving.columnar`.  The only cluster-specific wrinkle is the
   *global* ``arrivals_pending`` flag: static/dynamic batching hold a
   partial final batch until the whole trace's last arrival has been
   drained, which the kernels model with their ``more_until`` horizon.
3. **Assembly** — each replica's result comes from
   :meth:`~repro.serving.columnar._Run.finalize`, the one builder of a
   columnar ``ServingResult``, fed the permutation to the reference
   router's record order (``(admitted_s, id)``); cluster records come from
   :func:`_assemble_cluster`.  The result is **bit-identical** to
   ``backend="reference"``: same ``ClusterResult``, same float
   accumulations, same capped/streaming blocks.

Two rails share one replica machine.  :class:`_Machine` holds the queue
columns, the next-launch rule, the launch recurrence, and the delay
estimate; the routing pass above runs on it as is.  Fault schedules that
actually perturb the run (crash / accel-loss / straggler windows) and
timeout retries ride the **fault-capable replay** (:func:`run_fast_faulted`):
a minimal event heap holding only fault transitions and retry timers, and
one :class:`_SimReplica` per replica — the same machine plus straggler
multipliers, the accel-loss table swap, crashes, a dispatch log, and lazily
resolved completions — with all accounting folded vectorized at assembly.
Its per-replica columns and folds fill a ``_Run`` too, so both rails share
one per-replica assembly and one cluster-record assembly.
Both rails call the configured policy's ``choose``, so custom registered
policies ride them too.  :func:`fast_path_fallback_reason` names the only
remaining fallback conditions — autoscaling, hedged dispatch, and
schedulers that declare no columnar kernel — and
:meth:`~repro.serving.cluster.ClusterRouter.run` falls back to the
reference event loop automatically (silently, with the reason recorded on
the result).

Why launch times are a recurrence: the reference loop runs one decision
pass per distinct event time, *after* draining that time's arrivals, and a
replica launches at most one dispatch per pass (every dispatch pushes its
``ready_s`` strictly past the clock).  So a replica's next launch time is a
pure function of its queue and occupancy registers — ``max(ready, head
admit)`` for fifo/continuous, ``max(host_free, cap-th admit)`` for a full
batch, ``max(host_free, head admit + max_wait)`` for a dynamic flush.  Each
machine caches that time in ``next_s`` (``inf`` when nothing is pending),
and every mutation of the registers refreshes it: the end of a launch, a
queued-copy cancellation, a crash, the arrival stream draining, and an
admission that leaves an idle machine or fills a batch (other appends move
neither the head nor the cap-th admit).  Admissions at time T strictly
precede launches at T, so an admission or delay probe at T first runs the
launches with ``next_s < T`` — one float compare when there are none.
During routing the global arrival stream is never exhausted, so static
batching never flushes a partial batch inside the machines.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

import numpy as np

from repro.errors import ServingError
from repro.serving.columnar import _Run, _running_total, kernel_for
from repro.serving.metrics import (
    REQUEST_FAILED,
    REQUEST_OK,
    REQUEST_SHED,
    ClusterRequestRecord,
    ClusterResult,
    ServingResult,
    apply_static_lifecycle,
    sample_record_indices,
    streaming_stats,
)
from repro.serving.scheduler import get_scheduler
from repro.serving.trace import RequestTrace

_INF = float("inf")


def fast_path_fallback_reason(config, scheduler) -> "str | None":
    """Why this cluster run must take the reference event loop, or ``None``.

    Everything here mirrors a documented fallback condition: the README's
    "rail conditions" list and the fallback test battery enumerate exactly
    these knobs.  Fault windows, stragglers, timeout retries and custom
    admission policies ride the columnar rails; only autoscaling, hedging,
    and schedulers that declare no columnar kernel route to the reference
    loop.  The returned string is surfaced as
    ``ClusterResult.fast_path_fallback_reason`` so a silent fallback is
    diagnosable from the CLI.
    """
    if config.backend != "fast":
        return "backend='reference' requested"
    if config.autoscale is not None:
        return "autoscale set (elastic lifecycle runs in the event loop)"
    if config.hedge_after_s is not None:
        return "hedge_after_s set (hedged dispatch is not replayed in columns)"
    if kernel_for(scheduler) is None:
        return f"scheduler {scheduler.name!r} declares no columnar kernel"
    return None


def needs_faulted_path(config, injector) -> bool:
    """Does this run need the event-replaying faulted rail (vs the closed
    forms)?  True when the drawn schedule perturbs anything or timeouts can
    re-route work; the check is semantic, so a fault profile that yields no
    windows and no stragglers still takes the cheaper no-fault rail.
    """
    return config.timeout_s is not None or injector.schedule.perturbs


# -- the replica machine ------------------------------------------------------


class _Machine:
    """Virtual clock of one replica: replays launch times and queue-delay
    estimates without a scheduler object or heap events.

    State is what :meth:`_Replica.est_delay_s` reads — ``host_free``,
    ``accel_free``, the scheduler's pending decode steps, and the batch-1
    latency of the active cost table — plus the admitted queue (admit time,
    steps, trace position), the in-flight positions and remaining steps of
    continuous batching, and ``flush_at``.  ``accel_free`` is one float: every
    accelerator row a machine prices targets its engine's one device (the
    accel-loss fallback table runs on the host and never touches it).

    Two cached registers keep probes and admissions at a float compare:
    ``next_s``, the next launch time (``inf`` when none is pending), and
    ``horizon``, ``max(host_free, accel_free)``.  ``advance(T)`` executes
    every launch before ``T`` with the reference launch arithmetic verbatim,
    so a delay probe at an arrival time sees the same registers as the
    scalar router's policy does.

    The routing pass runs on this class as is; :class:`_SimReplica` adds
    faults and bookkeeping through two per-launch hooks,
    :meth:`_multiplier` and :meth:`_record`.
    """

    __slots__ = (
        "index",
        "kind",
        "max_batch",
        "max_wait_s",
        "active",
        "_unit_s",
        "host_free",
        "ready_s",
        "accel_free",
        "horizon",
        "next_s",
        "pending_steps",
        "q_admit",
        "q_steps",
        "q_pos",
        "head",
        "flight_pos",
        "flight_rem",
        "flush_at",
    )

    def __init__(self, index: int, engine, kind: str, max_batch: int, max_wait_s: float):
        self.index = index
        self.kind = kind
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        #: the dense cost table launches price against (shared with the
        #: kernels); ``_unit_s`` caches its batch-1 latency.
        self.active = engine.costs.cost_table(max_batch)
        self._unit_s: "float | None" = None
        self.host_free = 0.0
        self.ready_s = 0.0
        self.accel_free = 0.0
        self.horizon = 0.0
        self.next_s = _INF
        self.pending_steps = 0
        self.q_admit: list[float] = []
        self.q_steps: list[int] = []
        self.q_pos: list[int] = []
        self.head = 0
        self.flight_pos: list[int] = []
        self.flight_rem: list[int] = []
        #: set to the last arrival time once the trace drains: static/dynamic
        #: partial batches flush from then on (the reference's
        #: ``arrivals_pending`` turning false).  The routing pass never
        #: drains the stream, so there it stays ``None``.
        self.flush_at: "float | None" = None

    def est_delay_s(self, now: float) -> float:
        """:meth:`_Replica.est_delay_s` over the machine registers, after
        executing every launch decided strictly before ``now``; the busy
        horizon is the cached ``horizon``."""
        if self.next_s < now:
            self.advance(now)
        # row(1) on the *active* table: lazily priced exactly when the
        # reference's unit_latency_s() would first price it, then cached
        # until the active table swaps (probing policies call this for
        # every candidate on every arrival).
        unit = self._unit_s
        if unit is None:
            unit = self._unit_s = self.active.row(1).total_s
        backlog = self.pending_steps * unit
        delay = self.horizon - now
        if delay < 0.0:
            delay = 0.0
        return delay + backlog

    def admit(self, when: float, steps: int, pos: int) -> None:
        if self.next_s < when:
            self.advance(when)
        self.q_admit.append(when)
        self.q_steps.append(steps)
        self.q_pos.append(pos)
        self.pending_steps += steps
        # an append moves the next launch only off an idle machine or when
        # it fills a batch (the head and cap-th admits are otherwise fixed).
        if self.next_s == _INF or len(self.q_admit) - self.head == self.max_batch:
            self._refresh()

    def drain(self, at: float) -> None:
        """The global arrival stream ran out at ``at``: partial batches flush
        from now on.  Launches decided under the pre-drain rules materialize
        first; advancing lazily across the switch would re-decide them under
        the flush rule."""
        self.advance(at)
        self.flush_at = at
        self._refresh()

    def advance(self, until: float) -> None:
        """Execute every launch decided strictly before ``until``."""
        while self.next_s < until:
            self._launch(self.next_s)

    def _refresh(self) -> None:
        """Recompute ``next_s`` from the queue and occupancy registers; every
        mutation of them ends here."""
        kind = self.kind
        qlen = len(self.q_admit) - self.head
        if kind == "continuous" and self.flight_pos:
            t = self.ready_s
        elif qlen == 0:
            t = _INF
        elif kind == "fifo" or kind == "continuous":
            a = self.q_admit[self.head]
            t = a if a > self.ready_s else self.ready_s
        elif qlen >= self.max_batch:
            a = self.q_admit[self.head + self.max_batch - 1]
            t = a if a > self.host_free else self.host_free
        elif self.flush_at is not None:
            # arrivals drained: partial batches dispatch at the first decide
            # pass, for static and dynamic alike (the deadline rule is gone).
            a = self.q_admit[self.head]
            if self.flush_at > a:
                a = self.flush_at
            t = a if a > self.host_free else self.host_free
        elif kind == "dynamic":
            d = self.q_admit[self.head] + self.max_wait_s
            t = d if d > self.host_free else self.host_free
        else:
            # static partial batches flush only once the *global* arrival
            # stream is exhausted.
            t = _INF
        self.next_s = t

    def _launch(self, t: float) -> None:
        kind = self.kind
        multiplier = self._multiplier()
        start = t if t > self.host_free else self.host_free
        if kind == "continuous":
            free = self.max_batch - len(self.flight_pos)
            if free > 0:
                qlen = len(self.q_admit) - self.head
                take = free if free < qlen else qlen
                if take:
                    stop = self.head + take
                    self.flight_pos.extend(self.q_pos[self.head : stop])
                    self.flight_rem.extend(self.q_steps[self.head : stop])
                    self.head = stop
            members = self.flight_pos
            size = len(members)
            iterations = 1
            end = self._iterate(self.active.row(size), start, 1, multiplier)
            completes: list[int] = []
            keep_pos: list[int] = []
            keep_rem: list[int] = []
            for pos, rem in zip(members, self.flight_rem):
                if rem == 1:
                    completes.append(pos)
                else:
                    keep_pos.append(pos)
                    keep_rem.append(rem - 1)
            self.flight_pos = keep_pos
            self.flight_rem = keep_rem
            self.pending_steps -= size
            self.ready_s = end  # barrier
        elif kind == "fifo":
            pos = self.q_pos[self.head]
            iterations = self.q_steps[self.head]
            self.head += 1
            size = 1
            members = completes = (pos,)
            end = self._iterate(self.active.row(1), start, iterations, multiplier)
            self.pending_steps -= iterations
            self.ready_s = end  # barrier
        else:  # static / dynamic full-or-flush batch
            qlen = len(self.q_admit) - self.head
            size = qlen if qlen < self.max_batch else self.max_batch
            stop = self.head + size
            members = completes = self.q_pos[self.head : stop]
            steps = self.q_steps[self.head : stop]
            self.head = stop
            iterations = max(steps)
            end = self._iterate(self.active.row(size), start, iterations, multiplier)
            self.pending_steps -= sum(steps)
            # non-barrier: ready is max(when, host_free), and host_free has
            # just advanced past the dispatch start.
            self.ready_s = t if t > self.host_free else self.host_free
        self._record(start, end, size, iterations, multiplier, members, completes)
        if self.head >= 8192:  # amortized queue compaction
            del self.q_admit[: self.head]
            del self.q_steps[: self.head]
            del self.q_pos[: self.head]
            self.head = 0
        self._refresh()

    def _multiplier(self) -> float:
        """Straggler multiplier for the next launch (exactly 1.0 here)."""
        return 1.0

    def _record(self, start, end, size, iterations, multiplier, members, completes) -> None:
        """Per-launch bookkeeping hook; the routing pass keeps none."""

    def _iterate(self, cost, start: float, iterations: int, multiplier: float) -> float:
        """The reference ``launch()`` occupancy arithmetic, verbatim,
        straggler multiplier included (1.0 stays bit-exact)."""
        host_s = cost.host_s * multiplier
        accel_s = cost.accel_s * multiplier
        total_s = cost.total_s * multiplier
        cursor = start
        if cost.has_accel:
            # only the accelerator's free time and the host cursor evolve
            # inside the loop.
            accel_start = self.accel_free
            host_end = cursor
            for _ in range(iterations):
                host_end = cursor + host_s
                if accel_start < host_end:
                    accel_start = host_end
                if accel_start == host_end:
                    end = cursor + total_s
                else:
                    end = accel_start + accel_s
                accel_start = end
                cursor = end
            self.accel_free = accel_start
            self.host_free = host_end
            top = accel_start if accel_start > host_end else host_end
        else:
            for _ in range(iterations):
                cursor = cursor + total_s
            self.host_free = top = cursor
        # both registers only grow between crashes, so the busy horizon is
        # their running max.
        if top > self.horizon:
            self.horizon = top
        return cursor


# -- routing pass -------------------------------------------------------------


def _route(config, engines, trace: RequestTrace, policy, rng) -> np.ndarray:
    """Assign every arrival to a replica index (``-1``: shed).

    Sequential in trace order — exactly the drain order of the reference
    loop — calling the policy's own ``choose`` on the machines, then the
    shed check, like the reference's arrival handler.  Round-robin without
    shedding is closed form: the cursor advances once per arrival.
    """
    from repro.serving.cluster import RoundRobinPolicy

    n = trace.num_requests
    shed_s = config.shed_queue_s
    if type(policy) is RoundRobinPolicy and shed_s is None:
        return np.arange(n, dtype=np.int64) % len(engines)

    kind = type(get_scheduler(config.scheduler)).__dict__["columnar_kernel"]
    machines = [
        _Machine(index, engine, kind, config.max_batch, config.max_wait_s)
        for index, engine in enumerate(engines)
    ]
    arrivals = trace.arrival_column().tolist()
    steps = trace.decode_column().tolist()
    assigned = np.empty(n, dtype=np.int64)
    choose = policy.choose
    for i in range(n):
        when = arrivals[i]
        chosen = choose(when, machines, rng)
        if shed_s is not None and chosen.est_delay_s(when) > shed_s:
            assigned[i] = -1
            continue
        chosen.admit(when, steps[i], i)
        assigned[i] = chosen.index
    return assigned


# -- serving pass -------------------------------------------------------------


def _serve_replica(
    engine, config, trace: RequestTrace, indices: np.ndarray, more_until: float, rate: float
) -> "tuple[ServingResult, np.ndarray]":
    """Run one replica's admitted sub-stream through its columnar kernel.

    Returns the per-replica :class:`ServingResult` (in the reference
    router's record order and capping shape) and the completion column in
    sub-stream (trace) order for cluster-level scatter.  A replica that
    admitted nothing runs no kernel: the reference never prices a batch
    for it.
    """
    sub = RequestTrace(
        trace.name,
        arrival_s=trace.arrival_column()[indices],
        decode_steps=trace.decode_column()[indices],
        request_ids=trace.id_column()[indices],
    )
    scheduler = get_scheduler(
        config.scheduler, max_batch=config.max_batch, max_wait_s=config.max_wait_s
    )
    run = _Run(engine, sub, scheduler, config.record_requests)
    if run.n:
        kernel_for(scheduler)(run, more_until=more_until)
    # the reference router lists a replica's records by (admitted_s, id) —
    # identical to sub-stream order except when equal-time arrivals carry
    # out-of-order ids, so order stats and records through the permutation.
    perm = np.lexsort((sub.id_column(), run.arrival))
    return run.finalize(rate, perm), run.completion


# -- cluster assembly ---------------------------------------------------------

#: per-request status codes of the rails' status columns.
_PENDING = 0
_ST_OK = 1
_ST_SHED = 2
_ST_FAILED = 3
_STATUS_NAMES = {_ST_OK: REQUEST_OK, _ST_SHED: REQUEST_SHED, _ST_FAILED: REQUEST_FAILED}


def _assemble_cluster(
    result: ClusterResult, config, trace: RequestTrace, status, completion, replica, attempts
) -> ClusterResult:
    """Fill the cluster-level counters, records and capped stats of
    ``result`` from per-request columns in trace order.

    ``status`` holds the ``_ST_*`` codes, ``completion`` the completion
    times (read only where the status is ``_ST_OK``), ``replica`` the
    replica that served each request (``-1``: none) and ``attempts`` its
    admission count.  With ``record_requests`` set this is
    metrics.cap_cluster_result's counters and streaming block, fed from
    columns — the full record list is never materialized.
    """
    n = trace.num_requests
    arrivals = trace.arrival_column()
    ok = status == _ST_OK
    result.num_shed = int((status == _ST_SHED).sum())
    result.num_failed = int((status == _ST_FAILED).sum())
    latencies = completion[ok] - arrivals[ok]
    if latencies.size:
        result.makespan_s = float(completion[ok].max()) - float(arrivals[0])
    cap = config.record_requests
    if cap is None:
        keep = np.arange(n, dtype=np.int64)
    else:
        result.stats = streaming_stats(latencies)
        result.num_requests_total = n
        result.num_completed = int(latencies.size)
        if config.deadline_s is None:
            result.num_good = int(latencies.size)
        else:
            result.num_good = int((latencies <= config.deadline_s).sum())
        result.record_cap = cap
        keep = sample_record_indices(n, cap)
    result.records = [
        ClusterRequestRecord(
            request_id,
            arrival_s,
            completion_s if code == _ST_OK else None,
            _STATUS_NAMES[code],
            replica_index,
            tries,
            False,
            False,
        )
        for request_id, arrival_s, code, completion_s, replica_index, tries in zip(
            trace.id_column()[keep].tolist(),
            arrivals[keep].tolist(),
            status[keep].tolist(),
            completion[keep].tolist(),
            replica[keep].tolist(),
            attempts[keep].tolist(),
        )
    ]
    # the columnar rails only serve fixed fleets (autoscale falls back),
    # so the lifecycle fields are the static single-step form.
    return apply_static_lifecycle(result)


# -- entry point --------------------------------------------------------------


def run_fast_cluster(
    router, trace: RequestTrace, result: ClusterResult, policy, policy_rng
) -> ClusterResult:
    """Serve ``trace`` through the fleet on the columnar rail.

    ``result`` is the pre-populated :class:`ClusterResult` shell from
    :meth:`ClusterRouter.run`; the caller has already checked
    :func:`fast_path_fallback_reason`.  Bit-identical to the reference
    event loop.
    """
    config = router.config
    engines = router.engines
    n = trace.num_requests
    arrivals = trace.arrival_column()
    rate = result.offered_rate_rps
    result.backend_used = "columnar"

    assigned = _route(config, engines, trace, policy, policy_rng)
    more_until = float(arrivals[-1])

    completion_all = np.empty(n, dtype=np.float64)
    for index, engine in enumerate(engines):
        indices = np.nonzero(assigned == index)[0]
        replica_result, completions = _serve_replica(
            engine, config, trace, indices, more_until, rate
        )
        result.replicas.append(replica_result)
        completion_all[indices] = completions

    served = assigned >= 0
    return _assemble_cluster(
        result,
        config,
        trace,
        np.where(served, _ST_OK, _ST_SHED),
        completion_all,
        assigned,
        served.astype(np.int64),
    )


# -- fault-capable replay (Route B) -------------------------------------------
#
# Crash / accelerator-loss / straggler windows and timeout retries re-route
# work at event times the closed forms above cannot see, so this rail keeps a
# tiny event heap — but only for the *rare* events (fault transitions, retry
# timers, the arrival cursor).  Completions are resolved lazily (no heap
# events), dispatches launch lazily inside the per-replica machines, and all
# accounting folds vectorized at assembly in the reference's completion-pop
# order.  Every float is produced by the same IEEE operations in the same
# order as the reference loop, so results stay bit-identical.

#: event priorities, mirroring the reference heap's canonical order at equal
#: times (completions, priority 1, are resolved lazily and never enqueued).
_PRIO_FAULT = 0
_PRIO_ARRIVE = 2
_PRIO_RETRY = 3

class _SimReplica(_Machine):
    """Replica machine for the faulted rail: the shared :class:`_Machine`
    plus what faults and retries touch — straggler multipliers, the
    accel-loss cost-table swap, crash resets, queued-copy cancellation, and
    per-request bookkeeping (admit times, first starts, depth samples,
    dispatch log, completion resolution).

    The dispatch log is columnar (parallel ``log_*`` lists, one entry per
    launch) holding only the fold *inputs* — end time, size, iterations,
    straggler multiplier, which cost table priced it, and which trace
    positions complete; the per-device second/joule deltas are
    reconstructed in columns at assembly, in completion order.

    ``started``, ``live_end``, ``status``, ``completion``, and ``winner``
    are arrays shared with the router closures: one live copy exists per
    request (no hedging on this rail), so a request's launch state and
    completion live in per-request slots rather than per-copy objects.
    Machines the schedule never crashes resolve their completions at
    materialization time (a launched dispatch there is final); machines
    with crash windows leave resolution to the router's lazy checks, since
    a later crash can still cancel an apparently-complete dispatch.
    """

    __slots__ = (
        "engine",
        "injector",
        "table",
        "fallback_table",
        "down",
        "accel_down",
        "has_crash",
        "starts",
        "admitted",
        "depth_samples",
        "log_end",
        "log_size",
        "log_iter",
        "log_mult",
        "log_fb",
        "log_completes",
        "log_cancelled",
        "open",
        "started",
        "live_end",
        "status",
        "completion",
        "winner",
    )

    def __init__(
        self, index, engine, kind, max_batch, max_wait_s, injector,
        has_crash, started, live_end, status, completion, winner,
    ):
        super().__init__(index, engine, kind, max_batch, max_wait_s)
        self.engine = engine
        self.injector = injector
        self.table = self.active
        self.fallback_table = None
        self.down = False
        self.accel_down = False
        #: does the schedule ever crash this replica?  Gates the open-record
        #: list so fault-free replicas pay nothing for crash bookkeeping.
        self.has_crash = has_crash
        self.starts: dict[int, float] = {}
        self.admitted: dict[int, float] = {}
        self.depth_samples: list[tuple[float, int]] = []
        #: columnar dispatch log, one entry per launch.
        self.log_end: list[float] = []
        self.log_size: list[int] = []
        self.log_iter: list[int] = []
        self.log_mult: list[float] = []
        self.log_fb: list[bool] = []
        self.log_completes: list = []
        #: per-launch cancellation flags (crash machines only; empty means
        #: every logged dispatch is live).
        self.log_cancelled: list[bool] = []
        #: log indices a future crash could still cancel.
        self.open: list[int] = []
        self.started = started
        self.live_end = live_end
        self.status = status
        self.completion = completion
        self.winner = winner

    # -- admission / cancellation -----------------------------------------

    def admit(self, when: float, steps: int, pos: int) -> None:
        super().admit(when, steps, pos)
        self.admitted[pos] = when
        self.depth_samples.append((when, len(self.q_admit) - self.head))

    def cancel_queued(self, pos: int) -> None:
        """Withdraw an un-started copy (the reference's scheduler.cancel,
        which always succeeds for queued work)."""
        i = self.q_pos.index(pos, self.head)
        self.pending_steps -= self.q_steps[i]
        del self.q_admit[i]
        del self.q_steps[i]
        del self.q_pos[i]
        self._refresh()

    # -- fault transitions -------------------------------------------------

    def set_accel_down(self, flag: bool) -> None:
        self.accel_down = flag
        self._unit_s = None
        if not flag:
            self.active = self.table
            return
        if self.fallback_table is None:
            self.fallback_table = self.engine.cpu_fallback_costs().cost_table(
                self.max_batch
            )
        self.active = self.fallback_table

    def crash(self, when: float) -> list[int]:
        """Drop all queued and running work; returns the positions whose
        live copy may now be lost (the router applies the liveness check)."""
        self.down = True
        cancelled_members: list[int] = []
        if self.open:
            log_end = self.log_end
            log_cancelled = self.log_cancelled
            for i in self.open:
                if log_end[i] >= when:
                    log_cancelled[i] = True
                    cancelled_members.extend(self.log_completes[i])
            self.open.clear()
        lost_now = self.q_pos[self.head :] + self.flight_pos + cancelled_members
        self.q_admit.clear()
        self.q_steps.clear()
        self.q_pos.clear()
        self.head = 0
        self.flight_pos = []
        self.flight_rem = []
        self.pending_steps = 0
        self.host_free = 0.0
        self.accel_free = 0.0
        self.horizon = 0.0
        self.ready_s = when
        self.next_s = _INF
        return lost_now

    # -- per-launch hooks ----------------------------------------------------

    def _multiplier(self) -> float:
        return self.injector.dispatch_multiplier(self.index)

    def _record(self, start, end, size, iterations, multiplier, members, completes) -> None:
        self.log_end.append(end)
        self.log_size.append(size)
        self.log_iter.append(iterations)
        self.log_mult.append(multiplier)
        self.log_fb.append(self.accel_down)
        self.log_completes.append(completes)
        starts = self.starts
        started = self.started
        for pos in members:
            if pos not in starts:
                starts[pos] = start
            started[pos] = True
        if self.has_crash:
            self.open.append(len(self.log_cancelled))
            self.log_cancelled.append(False)
            live_end = self.live_end
            for pos in completes:
                live_end[pos] = end
        else:
            # this machine never crashes, so a materialized dispatch is
            # final: resolve its completions now.  The outcome is the same
            # one the lazy path (or the reference's completion pop) would
            # produce; later retry timers for these requests exit at the
            # status check.
            status = self.status
            completion = self.completion
            winner = self.winner
            index = self.index
            for pos in completes:
                status[pos] = _ST_OK
                completion[pos] = end
                winner[pos] = index
        self.depth_samples.append((start, len(self.q_admit) - self.head))


def run_fast_faulted(
    router, trace: RequestTrace, result: ClusterResult, policy, policy_rng, injector
) -> ClusterResult:
    """Serve ``trace`` through the fleet with faults/retries on the columnar
    rail.

    ``result`` is the pre-populated shell from :meth:`ClusterRouter.run` and
    ``injector`` the run's already-built fault injector.  The event heap
    holds only fault transitions and retry timers; arrivals stay a cursor
    over the trace columns, launches replay inside :class:`_SimReplica`
    machines, and completions are resolved lazily — a request's fate is
    decided by its live dispatch record the first time an event (or the
    final sweep) looks at it, exactly as the reference's completion events
    would have decided it.  Bit-identical to ``backend="reference"``.
    """
    config = router.config
    n = trace.num_requests
    arrival_times = trace.arrival_column().tolist()
    decode_counts = trace.decode_column().tolist()
    kind = type(get_scheduler(config.scheduler)).__dict__["columnar_kernel"]

    started = [False] * n
    live_end: list = [None] * n
    status = [_PENDING] * n
    attempts = [0] * n
    timeouts: list = [config.timeout_s] * n
    live_replica: list = [None] * n
    lost = [False] * n
    completion: list = [None] * n
    winner = [-1] * n
    crash_replicas = injector.schedule.crash_replicas()
    machines = [
        _SimReplica(
            index, engine, kind, config.max_batch, config.max_wait_s,
            injector, index in crash_replicas, started, live_end,
            status, completion, winner,
        )
        for index, engine in enumerate(router.engines)
    ]
    retries = 0

    heap: list = []
    #: retry timers whose fire times arrive in nondecreasing order (the
    #: common case: every first admission arms ``arrival + timeout_s``).
    #: Kept out of the heap — the event loop merges deque, heap, and the
    #: arrival cursor by the same (time, prio, seq) tuples a single heap
    #: would order, so processing order is unchanged.
    timer_q: deque = deque()
    seq = itertools.count()

    def push(time_s: float, prio: int, pos: int) -> None:
        heapq.heappush(heap, (time_s, prio, next(seq), pos))

    for t in injector.transitions():
        push(t, _PRIO_FAULT, -1)

    # generous, mirroring the reference loop's stall guard: every event
    # admits, re-routes, resolves, or toggles a fault window.
    max_events = 64 + 32 * (2 + config.max_retries) * (
        n + trace.total_decode_steps()
    ) + 8 * len(injector.transitions())
    events = 0

    def stall(when: float, detail: str) -> ServingError:
        unresolved = sum(1 for s in status if s == _PENDING)
        return ServingError(
            f"cluster made no progress at t={when:.6f}s ({detail}):"
            f" scheduler {config.scheduler!r}, policy {config.policy!r},"
            f" {unresolved}/{n} requests unresolved"
        )

    def resolve(pos: int, when: float) -> bool:
        """Materialize completion if the live copy's dispatch has ended —
        the reference's completion event would have popped by ``when``.
        A cancelled dispatch always marked its live copy lost (it ended at
        or after the crash instant), so ``lost`` doubles as the
        cancellation check."""
        end = live_end[pos]
        if end is not None and end <= when and not lost[pos]:
            status[pos] = _ST_OK
            completion[pos] = end
            winner[pos] = live_replica[pos]
            return True
        return False

    def admit_copy(pos: int, machine: _SimReplica, when: float) -> None:
        live_replica[pos] = machine.index
        started[pos] = False
        lost[pos] = False
        live_end[pos] = None
        machine.admit(when, decode_counts[pos], pos)
        attempts[pos] += 1
        if timeouts[pos] is not None:
            t = when + timeouts[pos]
            if not timer_q or t >= timer_q[-1][0]:
                timer_q.append((t, _PRIO_RETRY, next(seq), pos))
            else:
                push(t, _PRIO_RETRY, pos)

    #: replicas not currently crashed; rebuilt only on fault transitions.
    alive = list(machines)

    def route_primary(pos: int, when: float) -> None:
        nonlocal retries
        if attempts[pos] >= 1 + config.max_retries:
            status[pos] = _ST_FAILED
            return
        previous = live_replica[pos]
        candidates = [m for m in alive if m.index != previous] or alive
        if not candidates:
            if timeouts[pos] is None:
                raise stall(when, "no alive replica and no timeout to wait on")
            push(when + timeouts[pos], _PRIO_RETRY, pos)
            return
        if attempts[pos] >= 1:
            retries += 1
            backoff = timeouts[pos] * 2.0
            if config.timeout_cap_s is not None:
                backoff = min(backoff, config.timeout_cap_s)
            timeouts[pos] = backoff
        chosen = policy.choose(when, candidates, policy_rng)
        admit_copy(pos, chosen, when)

    def on_arrival(pos: int, when: float) -> None:
        if not alive:
            if config.shed_queue_s is not None:
                status[pos] = _ST_SHED
                return
            route_primary(pos, when)  # defers on the timeout
            return
        chosen = policy.choose(when, alive, policy_rng)
        if (
            config.shed_queue_s is not None
            and chosen.est_delay_s(when) > config.shed_queue_s
        ):
            status[pos] = _ST_SHED
            return
        admit_copy(pos, chosen, when)

    def on_retry(pos: int, when: float) -> None:
        if status[pos] != _PENDING:
            return
        holder_index = live_replica[pos]
        holder = machines[holder_index] if holder_index is not None else None
        if holder is not None and not holder.down:
            # launches decided strictly before the timer may have started or
            # completed this copy; materialize them before judging it.
            holder.advance(when)
        if resolve(pos, when):
            return
        if holder is None or lost[pos] or holder.down:
            route_primary(pos, when)
            return
        if not started[pos]:
            holder.cancel_queued(pos)
            route_primary(pos, when)
            return
        # in service on a live replica: let it finish, but keep watching so
        # a later crash of that replica is still detected.  A replica the
        # schedule never crashes cannot lose started work, so the watch
        # chain (pure re-arms in the reference, never a re-route) is
        # dropped and the copy resolves lazily.
        if timeouts[pos] is not None and holder.has_crash:
            push(when + timeouts[pos], _PRIO_RETRY, pos)

    def on_fault(when: float) -> None:
        nonlocal alive
        for machine in machines:
            crashed = injector.is_crashed(machine.index, when)
            if crashed and not machine.down:
                machine.advance(when)
                for pos in machine.crash(when):
                    if live_replica[pos] != machine.index or status[pos] != _PENDING:
                        continue
                    end = live_end[pos]
                    if end is not None and end < when:
                        # resolved before the crash, just lazily.  end == when
                        # means the dispatch was cancelled by this crash
                        # (crash() cancels end_s >= when), so it is lost.
                        continue
                    lost[pos] = True
            elif not crashed and machine.down:
                machine.down = False
            accel = injector.accel_lost(machine.index, when)
            if accel != machine.accel_down:
                machine.advance(when)
                machine.set_accel_down(accel)
        alive = [m for m in machines if not m.down]

    # -- the event loop ----------------------------------------------------

    arrive_index = 0
    while True:
        # the next non-arrival event: smallest (time, prio, seq) across the
        # monotone timer deque and the heap.
        head = timer_q[0] if timer_q else None
        from_heap = head is None or (heap and heap[0] < head)
        if from_heap:
            head = heap[0] if heap else None
        if arrive_index < n:
            arrival_s = arrival_times[arrive_index]
            # merge the arrival cursor against the event head: comparing
            # (time, prio) reproduces the reference heap's processing order.
            if head is None or (arrival_s, _PRIO_ARRIVE) < (head[0], head[1]):
                events += 1
                if events > max_events:
                    raise stall(arrival_s, f"no progress after {max_events} events")
                pos = arrive_index
                arrive_index += 1
                on_arrival(pos, arrival_s)
                if arrive_index == n:
                    for machine in machines:
                        machine.drain(arrival_s)
                continue
        if head is None:
            break
        if from_heap:
            when, prio, _, pos = heapq.heappop(heap)
        else:
            when, prio, _, pos = timer_q.popleft()
        events += 1
        if events > max_events:
            raise stall(when, f"no progress after {max_events} events")
        if prio == _PRIO_FAULT:
            on_fault(when)
        else:
            on_retry(pos, when)

    for machine in machines:
        machine.advance(_INF)
    for pos in range(n):
        if status[pos] != _PENDING:
            continue
        end = live_end[pos]
        if end is None or lost[pos]:
            raise stall(
                float("inf"), f"request at trace position {pos} never completed"
            )
        status[pos] = _ST_OK
        completion[pos] = end
        winner[pos] = live_replica[pos]

    # -- assembly (reference aggregate orders, vectorized folds) -----------

    id_column = trace.id_column()
    decode_column = trace.decode_column()
    ids_list = id_column.tolist()
    scheduler = get_scheduler(
        config.scheduler, max_batch=config.max_batch, max_wait_s=config.max_wait_s
    )
    for machine in machines:
        ends = np.asarray(machine.log_end, dtype=np.float64)
        sizes = np.asarray(machine.log_size, dtype=np.int64)
        iters = np.asarray(machine.log_iter, dtype=np.int64)
        mults = np.asarray(machine.log_mult, dtype=np.float64)
        log_completes = machine.log_completes
        if machine.log_cancelled:
            # only crash-capable machines maintain the cancellation column;
            # everywhere else the whole log is live.
            keep = ~np.asarray(machine.log_cancelled, dtype=bool)
            ends = ends[keep]
            sizes = sizes[keep]
            iters = iters[keep]
            mults = mults[keep]
            log_completes = [
                c for c, k in zip(log_completes, keep.tolist()) if k
            ]
        # per-replica accounting folds at completion-pop order: stable sort
        # by end time over the launch-ordered log.
        order = np.argsort(ends, kind="stable")
        completions: dict[int, tuple[float, int]] = {}
        ends_list = ends.tolist()
        sizes_list = sizes.tolist()
        for i in order.tolist():
            entry = (ends_list[i], sizes_list[i])
            for pos in log_completes[i]:
                completions[pos] = entry
        admitted = machine.admitted
        # the reference router lists a replica's records by (admitted, id).
        order_pos = sorted(completions, key=lambda p: (admitted[p], ids_list[p]))
        positions = np.array(order_pos, dtype=np.int64)
        run = _Run(
            machine.engine,
            RequestTrace(
                trace.name,
                arrival_s=[admitted[p] for p in order_pos],
                decode_steps=decode_column[positions],
                request_ids=id_column[positions],
            ),
            scheduler,
            config.record_requests,
        )
        run.start = np.array([machine.starts[p] for p in order_pos])
        run.completion = np.array([completions[p][0] for p in order_pos])
        run.batch = np.array([completions[p][1] for p in order_pos], dtype=np.int64)

        fallback_table = machine.fallback_table
        use_fb = fallback_table is not None and fallback_table is not machine.table
        if use_fb:
            fb = np.asarray(machine.log_fb, dtype=bool)
            if machine.log_cancelled:
                fb = fb[keep]
            use_fb = bool(fb.any())

        def fold(base_col, fb_col) -> float:
            vals = base_col[sizes]
            if use_fb:
                # device kinds the cpu-only fallback platform lacks
                # contribute exact 0.0 terms — bit-neutral in the fold.
                alt = np.zeros(sizes.size) if fb_col is None else fb_col[sizes]
                vals = np.where(fb, alt, vals)
            return _running_total(((vals * mults) * iters)[order])

        table = machine.table
        run.busy = {
            dev_kind: fold(
                col, fallback_table.busy_s.get(dev_kind) if use_fb else None
            )
            for dev_kind, col in table.busy_s.items()
        }
        run.energy = {
            dev_kind: fold(
                col, fallback_table.energy_j.get(dev_kind) if use_fb else None
            )
            for dev_kind, col in table.energy_j.items()
        }
        run.gemm = fold(table.gemm_s, fallback_table.gemm_s if use_fb else None)
        run.non_gemm = fold(
            table.non_gemm_s, fallback_table.non_gemm_s if use_fb else None
        )
        run.dispatches = int(ends.size)
        run.iterations = int(iters.sum())
        run.weighted = int((sizes * iters).sum())
        if run.full:
            run.timeline = machine.depth_samples
        else:
            depths = [depth for _, depth in machine.depth_samples]
            run.depth_count = len(depths)
            run.depth_sum = sum(depths)
            run.depth_max = max(depths) if depths else 0
        result.replicas.append(run.finalize(result.offered_rate_rps))

    result.num_retries = retries
    recovery = 0.0
    for window in injector.schedule.windows:
        victim = machines[window.replica]
        if victim.log_cancelled:
            ends = sorted(
                e
                for e, cancelled in zip(victim.log_end, victim.log_cancelled)
                if not cancelled
            )
        else:
            ends = sorted(victim.log_end)
        after = next((e for e in ends if e >= window.end_s), None)
        if after is not None:
            recovery = max(recovery, after - window.end_s)
    result.time_to_recovery_s = recovery
    result.backend_used = "columnar-faulted"
    return _assemble_cluster(
        result,
        config,
        trace,
        np.array(status, dtype=np.int64),
        np.array(completion, dtype=np.float64),  # None (unresolved) -> nan
        np.array(winner, dtype=np.int64),
        np.array(attempts, dtype=np.int64),
    )
