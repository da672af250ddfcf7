"""The columnar cluster fast paths: bit-identity, rails, and fallback.

``serving/columnar_cluster.py`` replays the reference router's event loop in
columns on two rails: ``run_fast_cluster`` (closed forms + per-scheduler
columnar kernels, no faults/retries) and ``run_fast_faulted`` (minimal event
heap over fault transitions and retry timers, lazy launches and lazily
resolved completions).  These tests pin these contracts:

* **equivalence** — on the no-fault rail the fast path's ``ClusterResult``
  equals the reference router's, field for field, across schedulers,
  policies, shedding, capped streaming metrics, heterogeneous fleets, and
  trace shapes;
* **the single-replica rail** — a 1-replica no-fault fast cluster stays
  bit-identical to plain ``ServingEngine.run`` for every registered
  scheduler;
* **faulted equivalence** — crash / accel-loss / straggler windows and
  timeout retries ride ``run_fast_faulted`` (the no-fault kernels must not
  run) and stay bit-identical to the reference loop, including retry
  exhaustion, shed-under-fault, and capped streaming metrics;
* **cached launch registers** — configs where a stale cached next launch
  or busy horizon on a replica machine would change the result;
* **record order under ties** — equal-time arrivals with out-of-order ids
  keep the reference router's ``(admitted_s, id)`` record order on both
  rails and on the single engine;
* **custom riders** — registered custom policies, and custom schedulers
  that declare a columnar kernel, ride both columnar rails;
* **fallback** — hedging and schedulers without a declared kernel route to
  the reference loop (neither fast entry point may run), still returning
  identical results, with the reason recorded on the result;
* **differential fuzz** — hypothesis-drawn fleets, faults and traces give
  ``fast == reference`` and account for every request.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    ClusterConfig,
    ClusterRouter,
    RequestTrace,
    ServingConfig,
    ServingEngine,
    make_trace,
)
from repro.serving import columnar_cluster
from repro.serving.cluster import (
    _POLICIES,
    AdmissionPolicy,
    register_policy,
)
from repro.serving.columnar_cluster import (
    fast_path_fallback_reason,
    needs_faulted_path,
)
from repro.serving.faults import FaultInjector
from repro.serving.scheduler import (
    _SCHEDULERS,
    FIFOScheduler,
    get_scheduler,
    register_scheduler,
)
from tests.conftest import fuzz_settings

POLICIES = ("round-robin", "least-loaded", "power-of-two-choices")
SCHEDULERS = ("fifo", "static", "dynamic", "continuous")

#: fault knobs that must ride the fault-capable fast rail.
FAULT_KNOBS = {
    "crash": dict(fault_profile="crash", timeout_s=0.02, timeout_cap_s=0.32),
    "accel-loss": dict(fault_profile="accel-loss", timeout_s=0.02, timeout_cap_s=0.32),
    "straggler": dict(fault_profile="straggler"),
    "retries": dict(timeout_s=0.05, timeout_cap_s=0.4),
}


def run_cluster(
    backend,
    *,
    num_requests=400,
    load=1.5,
    seed=0,
    trace_kind="poisson",
    decode_steps=(1, 4),
    **overrides,
):
    config = ClusterConfig(model="gpt2", backend=backend, **overrides)
    router = ClusterRouter(config)
    rate = load * router.fleet_capacity_rps()
    trace = make_trace(
        trace_kind,
        rate,
        num_requests,
        rng=np.random.default_rng(seed),
        decode_steps=decode_steps,
    )
    return router.run(trace, offered_rate_rps=rate)


def assert_backends_identical(expect_backend="columnar", **overrides):
    fast = run_cluster("fast", **overrides)
    reference = run_cluster("reference", **overrides)
    assert fast == reference
    assert fast.backend_used == expect_backend
    assert fast.fast_path_fallback_reason is None
    assert reference.backend_used == "reference"
    return fast


class TestFastPathEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_matches_reference(self, scheduler, policy):
        assert_backends_identical(
            scheduler=scheduler, policy=policy, platforms=("A", "A")
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_shedding_matches_reference(self, policy):
        result = assert_backends_identical(
            scheduler="fifo",
            policy=policy,
            platforms=("A", "A"),
            shed_queue_s=0.02,
            load=2.0,
        )
        assert result.num_shed > 0

    def test_capped_metrics_and_deadline_match_reference(self):
        result = assert_backends_identical(
            scheduler="continuous",
            policy="least-loaded",
            platforms=("A", "A", "A"),
            record_requests=64,
            deadline_s=0.05,
        )
        assert result.record_cap == 64
        assert len(result.records) <= 64
        assert 0.0 < result.goodput <= 1.0

    def test_heterogeneous_fleet_matches_reference(self):
        assert_backends_identical(
            scheduler="dynamic", policy="least-loaded", platforms=("A", "B", "C")
        )

    @pytest.mark.parametrize("trace_kind", ("bursty", "closed-loop"))
    def test_other_trace_shapes_match_reference(self, trace_kind):
        assert_backends_identical(
            scheduler="static",
            policy="round-robin",
            platforms=("A", "A"),
            trace_kind=trace_kind,
        )

    def test_policy_seed_respected(self):
        draws = [
            run_cluster(
                "fast",
                scheduler="fifo",
                policy="power-of-two-choices",
                platforms=("A",) * 4,
                policy_seed=policy_seed,
            )
            for policy_seed in (1, 2)
        ]
        assert draws[0] != draws[1]

    def test_fast_rail_actually_taken(self, monkeypatch):
        calls = []
        original = columnar_cluster.run_fast_cluster

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", spy)
        run_cluster("fast", scheduler="fifo", policy="round-robin")
        assert len(calls) == 1


class TestSingleReplicaRail:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_matches_plain_engine(self, scheduler):
        config = ClusterConfig(
            model="gpt2",
            platforms=("A",),
            scheduler=scheduler,
            policy="round-robin",
            backend="fast",
        )
        router = ClusterRouter(config)
        rate = 1.5 * router.fleet_capacity_rps()
        trace = make_trace(
            "poisson", rate, 300, rng=np.random.default_rng(0), decode_steps=(1, 4)
        )
        cluster = router.run(trace, offered_rate_rps=rate)
        solo = ServingEngine(
            ServingConfig(model="gpt2", scheduler=scheduler, backend="fast")
        ).run(trace, offered_rate_rps=rate)
        assert cluster.replicas[0] == solo


class TestFaultedFastPath:
    """Crash / accel-loss / straggler windows and timeout retries ride the
    fault-capable replay — never the no-fault kernels — bit-identically."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", ("fifo", "dynamic", "continuous"))
    @pytest.mark.parametrize("knob", ("crash", "accel-loss", "straggler"))
    def test_fault_windows_match_reference(
        self, knob, scheduler, policy, monkeypatch
    ):
        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", _refuse_fast_path)
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler=scheduler,
            policy=policy,
            platforms=("A", "A", "A"),
            **FAULT_KNOBS[knob],
        )
        assert result.num_failed + result.num_shed < len(result.records)

    def test_timeout_retries_match_reference(self, monkeypatch):
        monkeypatch.setattr(columnar_cluster, "run_fast_cluster", _refuse_fast_path)
        assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="static",
            policy="round-robin",
            platforms=("A", "A"),
            **FAULT_KNOBS["retries"],
        )

    def test_retry_exhaustion_matches_reference(self):
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="static",
            policy="round-robin",
            platforms=("A", "A", "A"),
            fault_profile="crash",
            timeout_s=0.004,
            timeout_cap_s=0.004,
            max_retries=1,
        )
        assert result.num_failed > 0

    def test_shed_under_fault_matches_reference(self):
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="dynamic",
            policy="least-loaded",
            platforms=("A", "A", "A"),
            fault_profile="crash",
            timeout_s=0.02,
            timeout_cap_s=0.32,
            shed_queue_s=0.05,
            load=2.0,
        )
        assert result.num_shed > 0
        assert result.num_retries > 0

    def test_capped_streaming_metrics_match_reference(self):
        result = assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="dynamic",
            policy="power-of-two-choices",
            platforms=("A", "A", "A"),
            fault_profile="crash",
            timeout_s=0.02,
            timeout_cap_s=0.32,
            record_requests=64,
            deadline_s=0.1,
        )
        assert result.record_cap == 64
        assert len(result.records) <= 64

    def test_heterogeneous_accel_loss_matches_reference(self):
        assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="dynamic",
            policy="least-loaded",
            platforms=("A", "B", "C"),
            fault_profile="accel-loss",
            timeout_s=0.02,
            timeout_cap_s=0.32,
        )

    def test_faulted_rail_actually_taken(self, monkeypatch):
        calls = []
        original = columnar_cluster.run_fast_faulted

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(columnar_cluster, "run_fast_faulted", spy)
        result = run_cluster(
            "fast",
            scheduler="dynamic",
            policy="round-robin",
            fault_profile="crash",
            timeout_s=0.02,
            timeout_cap_s=0.32,
        )
        assert len(calls) == 1
        assert result.backend_used == "columnar-faulted"


class TestCachedLaunchRegisters:
    """The machines cache their next launch (``next_s``) and busy horizon
    (``horizon``); these configs diverge from the reference when either
    register goes stale."""

    @pytest.mark.parametrize("faults", ("none", "crash"))
    @pytest.mark.parametrize("load", (0.5, 0.9, 1.3))
    @pytest.mark.parametrize("max_batch", (2, 4))
    @pytest.mark.parametrize("policy", ("least-loaded", "power-of-two-choices"))
    def test_batch_filling_admit_moves_next_launch(
        self, policy, max_batch, load, faults
    ):
        # a dynamic queue that reaches max_batch launches at its cap-th
        # admit instead of its head's max_wait deadline.
        knobs = (
            dict(fault_profile="crash", timeout_s=0.05) if faults == "crash" else {}
        )
        assert_backends_identical(
            expect_backend="columnar-faulted" if knobs else "columnar",
            scheduler="dynamic",
            policy=policy,
            max_batch=max_batch,
            platforms=("A", "A", "B"),
            load=load,
            seed=1,
            **knobs,
        )

    def test_crash_resets_busy_horizon(self):
        # long decodes keep one dispatch running past the crash window, so a
        # horizon left over from before the crash would skew the next probe.
        assert_backends_identical(
            expect_backend="columnar-faulted",
            scheduler="fifo",
            policy="least-loaded",
            platforms=("A", "A"),
            fault_profile="crash",
            fault_seed=0,
            timeout_s=0.5,
            max_retries=3,
            num_requests=16,
            load=0.5,
            decode_steps=(16, 64),
        )


def tie_trace(rate: float, num_requests: int = 60, seed: int = 0) -> RequestTrace:
    """Poisson arrivals snapped onto a coarse grid, so many land on the same
    instant, with shuffled request ids: equal-time arrivals carry
    out-of-order ids, where the router's ``(admitted_s, id)`` record order
    differs from trace order."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, num_requests)
    grid = 2.0 / rate
    return RequestTrace(
        "ties",
        arrival_s=np.floor(np.cumsum(gaps) / grid) * grid,
        decode_steps=rng.integers(1, 5, num_requests),
        request_ids=rng.permutation(num_requests),
    )


class TestTieOrder:
    """Equal-time arrivals with out-of-order ids: fast == reference on the
    single engine and on both fleet rails, capped and uncapped."""

    @pytest.mark.parametrize("record_requests", (None, 16))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_single_engine(self, scheduler, record_requests):
        results = []
        for backend in ("fast", "reference"):
            engine = ServingEngine(
                ServingConfig(
                    model="gpt2",
                    scheduler=scheduler,
                    backend=backend,
                    record_requests=record_requests,
                )
            )
            rate = 1.5 / engine.base_latency_s()
            results.append(engine.run(tie_trace(rate), offered_rate_rps=rate))
        fast, reference = results
        assert fast == reference
        assert fast.backend_used == "columnar"

    @pytest.mark.parametrize("record_requests", (None, 16))
    @pytest.mark.parametrize("profile", ("none", "crash", "straggler"))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_fleet(self, scheduler, policy, profile, record_requests):
        results = []
        for backend in ("fast", "reference"):
            router = ClusterRouter(
                ClusterConfig(
                    model="gpt2",
                    platforms=("A", "A", "B"),
                    scheduler=scheduler,
                    policy=policy,
                    fault_profile=profile,
                    timeout_s=0.02 if profile == "crash" else None,
                    record_requests=record_requests,
                    backend=backend,
                )
            )
            rate = 1.5 * router.fleet_capacity_rps()
            trace = tie_trace(rate)
            results.append(router.run(trace, offered_rate_rps=rate))
        fast, reference = results
        assert fast == reference
        rail = "columnar" if profile == "none" else "columnar-faulted"
        assert fast.backend_used == rail


def _refuse_fast_path(*args, **kwargs):
    raise AssertionError("the fast path must not run for unsupported knobs")


def _refuse_both_fast_paths(monkeypatch):
    """Hedged / kernel-less runs must enter neither fast entry point."""
    monkeypatch.setattr(columnar_cluster, "run_fast_cluster", _refuse_fast_path)
    monkeypatch.setattr(columnar_cluster, "run_fast_faulted", _refuse_fast_path)


#: every unsupported-knob combination that must take the reference rail.
FALLBACK_KNOBS = {
    "hedging": dict(hedge_after_s=0.01),
    "hedging-with-faults": dict(
        hedge_after_s=0.01,
        fault_profile="crash",
        timeout_s=0.02,
        timeout_cap_s=0.32,
    ),
}


class TestFallback:
    @pytest.mark.parametrize("knob", sorted(FALLBACK_KNOBS))
    def test_unsupported_knob_runs_reference_loop(self, knob, monkeypatch):
        _refuse_both_fast_paths(monkeypatch)
        overrides = FALLBACK_KNOBS[knob]
        fast = run_cluster(
            "fast", scheduler="continuous", policy="least-loaded", **overrides
        )
        reference = run_cluster(
            "reference", scheduler="continuous", policy="least-loaded", **overrides
        )
        assert fast == reference
        assert fast.backend_used == "reference"
        assert "hedge_after_s" in fast.fast_path_fallback_reason
        assert reference.fast_path_fallback_reason is None

    def test_subclassed_scheduler_falls_back(self, monkeypatch):
        class SubclassedFIFOScheduler(FIFOScheduler):
            name = "test-fifo-subclass"
            description = "fifo subclass without its own columnar kernel"

        register_scheduler(SubclassedFIFOScheduler, replace=True)
        _refuse_both_fast_paths(monkeypatch)
        try:
            fast = run_cluster(
                "fast", scheduler="test-fifo-subclass", policy="round-robin"
            )
            reference = run_cluster(
                "reference", scheduler="test-fifo-subclass", policy="round-robin"
            )
        finally:
            _SCHEDULERS.pop(SubclassedFIFOScheduler.name, None)
        assert fast == reference


class HighestIndexPolicy(AdmissionPolicy):
    """Test-only: always the highest alive index."""

    name = "test-highest-index"
    description = "always the highest alive index (test-only)"

    def choose(self, now, candidates, rng):
        return candidates[-1]


class MostLoadedPolicy(AdmissionPolicy):
    """Test-only load prober: the largest ``est_delay_s``, ties to the
    highest index."""

    name = "test-most-loaded"
    description = "largest estimated queue delay (test-only)"

    def choose(self, now, candidates, rng):
        return max(candidates, key=lambda r: (r.est_delay_s(now), r.index))


class CoinFlipPolicy(AdmissionPolicy):
    """Test-only randomized policy: a uniform draw from the router's
    generator."""

    name = "test-coin-flip"
    description = "uniformly random alive replica (test-only)"

    def choose(self, now, candidates, rng):
        return candidates[int(rng.integers(len(candidates)))]


class DeclaredFIFOScheduler(FIFOScheduler):
    """Test-only fifo subclass that redeclares its columnar kernel."""

    name = "test-fifo-declared"
    description = "fifo subclass declaring the fifo kernel (test-only)"
    columnar_kernel = "fifo"


#: the two rails a custom rider must take, with the knobs that select them.
RAILS = {
    "columnar": {},
    "columnar-faulted": dict(fault_profile="crash", timeout_s=0.02, timeout_cap_s=0.32),
}


class TestCustomRiders:
    def test_custom_policy_rides_columnar(self):
        register_policy(HighestIndexPolicy, replace=True)
        try:
            for rail, knobs in RAILS.items():
                assert_backends_identical(
                    rail, scheduler="fifo", policy="test-highest-index", **knobs
                )
        finally:
            _POLICIES.pop(HighestIndexPolicy.name, None)

    def test_kernel_declaring_scheduler_subclass_rides_both_rails(self):
        register_scheduler(DeclaredFIFOScheduler, replace=True)
        try:
            for rail, knobs in RAILS.items():
                assert_backends_identical(
                    rail, scheduler="test-fifo-declared", policy="least-loaded", **knobs
                )
        finally:
            _SCHEDULERS.pop(DeclaredFIFOScheduler.name, None)


class TestSupportsFastPath:
    def _config(
        self,
        *,
        profile="none",
        scheduler="fifo",
        policy="round-robin",
        backend="fast",
        **config_overrides,
    ):
        return ClusterConfig(
            model="gpt2",
            platforms=("A", "A"),
            scheduler=scheduler,
            policy=policy,
            fault_profile=profile,
            backend=backend,
            **config_overrides,
        )

    def _probe(self, **kwargs):
        config = self._config(**kwargs)
        return (
            fast_path_fallback_reason(config, get_scheduler(config.scheduler))
            is None
        )

    def _reason(self, **kwargs):
        config = self._config(**kwargs)
        return fast_path_fallback_reason(config, get_scheduler(config.scheduler))

    def test_rail_conditions_hold(self):
        for scheduler in SCHEDULERS:
            for policy in POLICIES:
                assert self._probe(scheduler=scheduler, policy=policy)
        # shedding, capping, and deadlines stay on the rail
        assert self._probe(shed_queue_s=0.01, record_requests=32, deadline_s=0.1)
        # faults and timeout retries now ride the fault-capable rail
        assert self._probe(profile="crash", timeout_s=0.02)
        assert self._probe(profile="accel-loss", timeout_s=0.02)
        assert self._probe(profile="straggler")
        assert self._probe(timeout_s=0.02)

    def test_unsupported_knobs_fall_off(self):
        assert "hedge_after_s" in self._reason(hedge_after_s=0.01)
        assert "backend" in self._reason(backend="reference")
        assert not self._probe(hedge_after_s=0.01)
        assert not self._probe(backend="reference")

    def test_faulted_rail_selection(self):
        def needs(**kwargs):
            config = self._config(**kwargs)
            injector = FaultInjector(config.fault_profile, 2, 100.0, seed=0)
            return needs_faulted_path(config, injector)

        # the drawn schedule (not the profile name) decides the rail
        assert not needs()
        assert needs(profile="crash", timeout_s=0.02)
        assert needs(profile="accel-loss")
        assert needs(profile="straggler")
        assert needs(timeout_s=0.02)


#: test-only custom policies the fuzz registers for its own examples.
FUZZ_POLICIES = (MostLoadedPolicy, CoinFlipPolicy)

#: one drawn cluster scenario: ClusterConfig overrides plus trace knobs.
fleet_scenarios = st.fixed_dictionaries(
    {
        "scheduler": st.sampled_from(SCHEDULERS),
        # the built-ins plus two custom policies registered by the test.
        "policy": st.sampled_from(POLICIES + tuple(p.name for p in FUZZ_POLICIES)),
        "shed_queue_s": st.sampled_from((None, 0.005, 0.02, 0.1)),
        "platforms": st.lists(
            st.sampled_from(("A", "B")), min_size=1, max_size=4
        ).map(tuple),
        # about half the draws stay fault- and timeout-free, so the
        # closed-form rail gets as many examples as the faulted replay.
        "faults": st.one_of(
            st.just(("none", None)),
            st.tuples(
                st.sampled_from(("none", "crash", "accel-loss", "straggler")),
                st.sampled_from((None, 0.01, 0.05)),
            ),
        ),
        "fault_seed": st.integers(0, 3),
        "max_retries": st.integers(0, 3),
        # applied only when the scenario sets a timeout.
        "timeout_cap_s": st.sampled_from((None, 0.03, 0.2)),
        "deadline_s": st.sampled_from((None, 0.05)),
        "max_batch": st.sampled_from((1, 2, 4, 8)),
        "record_requests": st.sampled_from((None, 1, 16)),
        "trace_kind": st.sampled_from(("poisson", "bursty", "closed-loop")),
        "num_requests": st.integers(1, 200),
        "decode_steps": st.sampled_from(((1, 4), (16, 64))),
        "load": st.sampled_from((0.5, 1.0, 2.0)),
        "seed": st.integers(0, 2**16),
    }
)


@pytest.mark.fuzz
class TestDifferentialFuzz:
    @settings(fuzz_settings())
    @given(fleet_scenarios)
    def test_fast_matches_reference_and_accounts_for_every_request(self, scenario):
        scenario = dict(scenario)
        profile, timeout_s = scenario.pop("faults")
        if profile == "crash" and timeout_s is None:
            # crash windows lose work that only a timeout can re-route.
            timeout_s = 0.02
        if timeout_s is None:
            scenario["timeout_cap_s"] = None
        scenario.update(fault_profile=profile, timeout_s=timeout_s)
        for policy_cls in FUZZ_POLICIES:
            register_policy(policy_cls, replace=True)
        try:
            fast = run_cluster("fast", **scenario)
            reference = run_cluster("reference", **scenario)
        finally:
            for policy_cls in FUZZ_POLICIES:
                _POLICIES.pop(policy_cls.name, None)
        assert fast == reference
        assert fast.backend_used in ("columnar", "columnar-faulted")
        n = scenario["num_requests"]
        completed = (
            fast.num_completed
            if fast.num_completed is not None
            else len(fast.completed())
        )
        assert completed + fast.num_shed + fast.num_failed == n
        # every completion is served by exactly one replica.
        served = sum(
            replica.num_served
            if replica.num_served is not None
            else len(replica.records)
            for replica in fast.replicas
        )
        assert served == completed
