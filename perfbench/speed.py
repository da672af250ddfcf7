"""A fixed machine-speed probe, so host times compare across machine load.

On a shared machine the same operation can take 20% longer from one minute
to the next.  The probe is a fixed mix of interpreter work (integer loop,
dict building, sorting) and small numpy kernels, timed right before and
right after each measured operation.  An operation's *reference time* is
its wall time scaled by ``REFERENCE_S / probe``: the time it would take on
a machine where the probe takes ``REFERENCE_S``.  A change to the program
moves the operation and not the probe, so it moves the reference time by
the same factor as the wall time.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: probe time that defines reference speed (about a 2-core cloud VM's)
REFERENCE_S = 0.04


def probe() -> float:
    """Seconds the fixed probe workload takes now.

    The collector is off while it runs: a collection would scan whatever
    the program left alive, tying the probe to the heap instead of the
    machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        rows = [{"key": i, "value": float(i % 977)} for i in range(40_000)]
        rows.sort(key=lambda row: row["value"])
        column = np.arange(200_000, dtype=np.float64)
        for _ in range(5):
            column = np.sqrt(column * 1.0001 + 1.0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_seconds(wall_s: float, probe_before: float, probe_after: float) -> float:
    """``wall_s`` at reference speed, from the probes around it."""
    return wall_s * REFERENCE_S / ((probe_before + probe_after) / 2.0)
