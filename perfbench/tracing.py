"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces public functions and methods of the simulator with
timing wrappers for the duration of a ``with tracer.installed():`` block and
puts every original back afterwards.  Each wrapper keeps, per layer name, the
number of calls and the *self* time: the span minus the part of it covered
by wrapped callees.  Self times therefore partition the traced wall time,
and a root span opened around each benchmark operation collects whatever no
layer claims.

Only public entry points are wrapped (see :data:`FUNCTIONS` and
:func:`layer_methods`); private helpers such as the columnar router's
routing pass stay inside their caller's self time, so a rewrite of those
helpers is measured by the layer that owns them without changing the
benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: module-level functions: (defining module, attribute, layer name).  Every
#: ``repro`` module that imported the function by name gets the wrapper too.
FUNCTIONS = (
    ("repro.analysis.fig6", "run_fig6", "analysis"),
    ("repro.profiler.profiler", "profile_graph", "profiler.profile"),
    ("repro.runtime.simulator", "simulate", "runtime.simulate"),
    ("repro.runtime.memory", "profile_memory", "runtime.memory"),
    ("repro.serving.trace", "make_trace", "serving.trace"),
    ("repro.serving.metrics", "streaming_stats", "serving.metrics"),
)

#: the lowering passes named in the per-layer metrics; any other
#: ``LoweringPass`` subclass is reported under ``flows.pass.other``.
PASS_NAMES = (
    "FusionPass",
    "PlacementPass",
    "KernelConstructionPass",
    "CompositeExpansionPass",
    "TransferInsertionPass",
    "SyncInsertionPass",
    "MetadataElisionPass",
    "RetargetPass",
)


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass currently defined, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def layer_methods() -> list[tuple[type, str, str]]:
    """Methods to wrap: (class, attribute, layer name).

    Only attributes a class defines in its own body are listed, so an
    inherited method is wrapped once, on the class that owns it.
    """
    from repro.flows.base import DeploymentFlow
    from repro.flows.passes.manager import LoweringPass
    from repro.models.registry import ModelEntry
    from repro.serving.autoscale import Autoscaler
    from repro.serving.cluster import AdmissionPolicy, ClusterRouter
    from repro.serving.cost import BatchCostModel
    from repro.serving.scheduler import BatchScheduler
    from repro.sweep.cache import PlanCache
    from repro.sweep.store import ArtifactStore

    methods: list[tuple[type, str, str]] = [
        (ModelEntry, "build", "models.build"),
        (ArtifactStore, "get", "store.get"),
        (ArtifactStore, "put", "store.put"),
        (BatchCostModel, "cost_table", "serving.cost"),
        (BatchCostModel, "cost", "serving.cost"),
        (ClusterRouter, "run", "cluster.run"),
    ]
    for attr in ("graph", "graph_ref", "plan", "serving_cost", "memory", "transform"):
        methods.append((PlanCache, attr, "sweep.cache"))
    hierarchies = (
        (DeploymentFlow, "lower", "flows.lower"),
        (DeploymentFlow, "derive_plan", "flows.derive"),
        (AdmissionPolicy, "choose", "cluster.choose"),
        (BatchScheduler, "next_dispatch", "serving.dispatch"),
        (Autoscaler, "desired_replicas", "autoscale.decide"),
    )
    for base, attr, layer in hierarchies:
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                methods.append((cls, attr, layer))
    for cls in _subclasses(LoweringPass):
        if "run" in cls.__dict__ and cls is not LoweringPass:
            name = cls.__name__ if cls.__name__ in PASS_NAMES else "other"
            methods.append((cls, "run", f"flows.pass.{name}"))
    return methods


class Tracer:
    """Per-layer call counts and self time, plus result counters."""

    def __init__(self) -> None:
        #: layer -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        #: named counters fed by wrappers' ``count`` callbacks
        self.counts: dict[str, int] = {}
        # one child-time accumulator per open span; the bottom one belongs
        # to whatever runs outside every span and is never read.
        self._stack: list[list[float]] = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self, layer: str, fn: Callable, count: "tuple[str, Callable] | None" = None
    ) -> Callable:
        """A timing wrapper around ``fn`` charging ``layer``.

        ``count`` is ``(counter, f)``: after each call ``f(result)`` is
        added to ``self.counts[counter]``.
        """
        stats = self.stats.setdefault(layer, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts
        if count is not None:
            counts.setdefault(count[0], 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[0]
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time a block as a span of ``layer`` (used for the root span)."""
        stats = self.stats.setdefault(layer, [0, 0.0])
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._stack[-1][0] += elapsed
            stats[0] += 1
            stats[1] += elapsed - frame[0]

    def self_s(self, layer: str) -> float:
        return self.stats.get(layer, (0, 0.0))[1]

    def calls(self, layer: str) -> int:
        return self.stats.get(layer, (0, 0.0))[0]

    # -- installation -------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point (see the module docstring)."""
        import importlib

        from repro.serving import columnar

        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            count = None
            if layer == "runtime.simulate":
                count = ("runtime.kernels", lambda result: len(result.latencies))
            self._patch_everywhere(original, self.wrap(layer, original, count))
        for cls, attr, layer in layer_methods():
            original = cls.__dict__[attr]
            count = None
            if layer == "store.get":
                count = ("store.get_hits", lambda value: value is not None)
            self._patch(cls, attr, self.wrap(layer, original, count))

        # columnar kernels are plain functions looked up through kernel_for;
        # hand out wrapped kernels instead (one wrapper per kernel).
        kernel_for = columnar.kernel_for
        wrapped: dict[object, Callable] = {}

        def traced_kernel_for(scheduler):
            kernel = kernel_for(scheduler)
            if kernel is None:
                return None
            if kernel not in wrapped:
                wrapped[kernel] = self.wrap("serving.kernel", kernel)
            return wrapped[kernel]

        self._patch_everywhere(kernel_for, traced_kernel_for)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
