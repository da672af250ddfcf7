"""Tests for the benchmark's own harness: metric names, tracing, fidelity."""

from __future__ import annotations

import csv
import importlib
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import metrics
from perfbench.run import ROOT, load_table4
from perfbench.tracing import FUNCTIONS, Tracer, layer_methods
from perfbench.workloads import WORKLOADS, make_workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def _restore_plan_cache():
    """Workloads repoint the process-wide plan cache; put it back."""
    from repro.sweep.cache import PLAN_CACHE

    store = PLAN_CACHE.store
    yield
    PLAN_CACHE.store = store
    PLAN_CACHE.clear()


def test_metric_names_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for section, ours in (
        ("end_to_end", metrics.END_TO_END),
        ("per_layer", metrics.PER_LAYER),
    ):
        assert [(m["name"], m["unit"], m["better"]) for m in declared[section]] == list(ours)
    names = [name for name, _, _ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def _committed_fig6_rows() -> list[dict]:
    def number(text: str):
        try:
            return int(text)
        except ValueError:
            try:
                return float(text)
            except ValueError:
                return text

    with open(ROOT / "results" / "fig6_breakdown.csv", newline="") as handle:
        return [{k: number(v) for k, v in row.items()} for row in csv.DictReader(handle)]


def test_fidelity_of_the_committed_grid():
    from repro.ops.base import OpCategory

    table4 = load_table4()
    error_pp, match, lines = metrics.fidelity(
        _committed_fig6_rows(), table4, OpCategory.GEMM.value
    )
    assert len(lines) == len(table4) == 17
    assert match == 14 / 17
    misses = {line.split()[1] for line in lines if line.endswith("MISS")}
    assert misses == {"faster-rcnn", "mask-rcnn", "segformer"}
    assert 0.0 < error_pp < 100.0


def _small_grid():
    from repro import analysis

    return analysis.run_fig6(platform_ids=("A",), models=("gpt2",), iterations=1)


def _traced_small_grid() -> Tracer:
    from repro.sweep.cache import PLAN_CACHE

    tracer = Tracer()
    with PLAN_CACHE.disabled(), tracer.installed():
        with tracer.span("bench.op"):
            _small_grid()
    return tracer


def test_injected_sleep_shows_in_its_layer_only(monkeypatch):
    from repro.models.registry import ModelEntry

    delay = 0.1
    base = _traced_small_grid()
    original = ModelEntry.build

    def slow_build(self, *args, **kwargs):
        time.sleep(delay)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ModelEntry, "build", slow_build)
    slow = _traced_small_grid()

    calls = slow.calls("models.build")
    assert calls == base.calls("models.build") > 0
    injected = delay * calls
    grown = slow.self_s("models.build") - base.self_s("models.build")
    assert injected * 0.99 <= grown <= injected * 1.25
    for layer in set(slow.stats) - {"models.build"}:
        change = slow.self_s(layer) - base.self_s(layer)
        assert abs(change) < 0.25 * injected, (layer, change)


def _bindings() -> dict[tuple, object]:
    """Every binding the tracer may replace, keyed by (owner, attribute)."""
    from repro.serving import columnar

    originals = [
        getattr(importlib.import_module(module), attr) for module, attr, _ in FUNCTIONS
    ] + [columnar.kernel_for]
    found: dict[tuple, object] = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                if any(value is original for original in originals):
                    found[(module, attr)] = value
    for cls, attr, _ in layer_methods():
        found[(cls, attr)] = cls.__dict__[attr]
    return found


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_outputs_equal_untraced_and_bindings_are_restored(tmp_path):
    fleets = []
    for name in WORKLOADS[1:]:
        fleet = make_workload(name, 0, ROOT, tmp_path)
        fleet.items = 1500
        fleet.setup()
        fleets.append(fleet)

    def run_fleet(fleet):
        problems = []
        for kind, prepare, fn in fleet.ops():
            prepare()
            problems.append(fleet.check(kind, fn()))
        return problems

    def run_all():
        return _small_grid().rows, [run_fleet(fleet) for fleet in fleets]

    untraced_grid, untraced_problems = run_all()
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        assert all(_current(*key) is not value for key, value in before.items())
        traced_grid, traced_problems = run_all()
    assert all(_current(*key) is value for key, value in before.items())
    assert _bindings() == before

    assert traced_grid == untraced_grid
    # check() compares every run with each fleet's first (untraced) run
    assert untraced_problems == traced_problems == [[[], []]] * len(fleets)
    assert tracer.calls("cluster.run") == 2 * len(fleets)
    assert tracer.calls("serving.kernel") > 0
    assert tracer.calls("autoscale.decide") > 0
    assert tracer.calls("flows.pass.KernelConstructionPass") > 0


def test_runner_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
