"""Root pytest plumbing: a hermetic persistent store for the whole suite.

The process-global ``PLAN_CACHE`` attaches a persistent
:class:`~repro.sweep.store.ArtifactStore` from ``REPRO_CACHE_DIR`` at import
time.  Under pytest, an explicitly-set ``REPRO_CACHE_DIR`` is respected (CI
uses this to share a store across runs); otherwise the store is redirected to
a per-session temporary directory, so the disk tier is still exercised
end-to-end but test runs neither depend on developer-machine cache state nor
leak synthetic test graphs into the real user cache.  The redirect goes
through the environment variable as well, so process-pool sweep workers
spawned by tests inherit the hermetic directory too.
"""

from __future__ import annotations

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "fuzz: hypothesis-driven differential tests (25 examples in tier-1;"
        " --hypothesis-profile=fuzz-ci runs ~1000, see tests/conftest.py)",
    )


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_store(tmp_path_factory):
    # presence check, not truthiness: an empty value is the documented way
    # to *disable* the store, which must be respected too.
    if "REPRO_CACHE_DIR" in os.environ:
        yield
        return
    from repro.sweep.cache import PLAN_CACHE
    from repro.sweep.store import ArtifactStore

    store_dir = tmp_path_factory.mktemp("artifact-store")
    original_store = PLAN_CACHE.store
    PLAN_CACHE.store = ArtifactStore(store_dir)
    os.environ["REPRO_CACHE_DIR"] = str(store_dir)
    try:
        yield
    finally:
        PLAN_CACHE.store = original_store
        os.environ.pop("REPRO_CACHE_DIR", None)
