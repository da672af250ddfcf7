"""The scalar roofline simulator, kept as an executable specification.

:func:`repro.runtime.simulator.simulate` estimates every kernel of a plan
in one vectorized numpy pass.  This module preserves the original
kernel-by-kernel implementation it was derived from: :func:`estimate_kernel`
evaluates the roofline for one kernel with Python floats,
:class:`EnergyAccumulator` integrates one device's power model kernel by
kernel, and :func:`simulate_reference` walks a plan with both.  Only tests
and benchmark harnesses use it — the equivalence suite
(``tests/test_sweep.py``) asserts the vectorized simulator matches it bit
for bit on every registered platform, the same role
``tests/oracles/lowering.py`` plays for the pass pipeline.

:func:`scalar_simulator` swaps the oracle in under every ``repro`` call
site of ``simulate``, so a whole harness (profiling, sweeps, serving cost
tables) can be timed or cross-checked on the scalar path.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.flows.plan import ExecutionPlan
from repro.hardware.calibration import (
    CUSTOM_KERNEL_PENALTY,
    FALLBACK_SYNC_S,
    dispatch_profile,
    efficiency_for_kind,
    gemm_saturation,
)
from repro.hardware.cost_model import BOUND_LABELS, BatchEstimates, LatencyEstimate
from repro.hardware.device import DeviceSpec
from repro.hardware.platform import Platform
from repro.ir.dtype import DType
from repro.ops.base import OpCategory, OpCost
from repro.runtime import simulator
from repro.runtime.simulator import KernelRecord, SimulationResult, _transfer_peer


def estimate_kernel(
    device: DeviceSpec,
    category: OpCategory,
    cost: OpCost,
    dtype: DType,
    dispatch_s: float,
    is_custom: bool = False,
    metadata_only: bool = False,
    launch_count: int = 1,
    gemm_peak_scale_f32: float = 1.0,
    gemm_saturation_scale: float = 1.0,
) -> LatencyEstimate:
    """Estimate wall-clock latency of one kernel.

    ``dispatch_s`` is the deployment flow's host-side per-kernel overhead;
    ``is_custom`` applies the custom-kernel efficiency penalty (non vendor-
    library implementations, e.g. DETR's FrozenBatchNorm2d).
    ``launch_count > 1`` models composite Python ops that issue several
    device kernels per call (the cost's traffic must already include the
    repeated tensor passes — flows do this when lowering).
    """
    host_s = dispatch_s * launch_count
    if metadata_only:
        return LatencyEstimate(
            total_s=host_s,
            host_s=host_s,
            device_s=0.0,
            compute_s=0.0,
            memory_s=0.0,
            launch_s=0.0,
            bound="dispatch",
        )

    eff = efficiency_for_kind(category, device.kind)
    scale = CUSTOM_KERNEL_PENALTY if is_custom else 1.0
    if category is OpCategory.GEMM:
        saturation = gemm_saturation(
            cost.flops, device.gemm_saturation_flops * gemm_saturation_scale
        )
        peak = device.gemm_peak(dtype)
        # the f32 scale models TF32 tensor cores — GPU-only hardware
        if dtype == DType.F32 and device.is_gpu:
            peak *= gemm_peak_scale_f32
        peak_flops = peak * saturation
    else:
        peak_flops = device.vector_flops
    compute_s = cost.flops / (peak_flops * eff.compute * scale) if cost.flops else 0.0
    memory_s = (
        cost.total_bytes / (device.mem_bandwidth * eff.memory * scale)
        if cost.total_bytes
        else 0.0
    )
    work_s = max(compute_s, memory_s)
    launch_s = device.kernel_launch_s * launch_count
    device_s = launch_s + work_s

    # async accelerators (GPU/NPU command queues) overlap host dispatch with
    # device work; CPUs run the kernel inline on the dispatching thread.
    is_async = device.async_dispatch
    if is_async:
        total_s = max(host_s, device_s)
    else:
        total_s = host_s + work_s

    if work_s <= 0.0:
        bound = "launch" if is_async and launch_s >= host_s else "dispatch"
    elif is_async and host_s >= device_s:
        bound = "dispatch"
    elif is_async and launch_s >= work_s:
        bound = "launch"
    elif compute_s >= memory_s:
        bound = "compute"
    else:
        bound = "memory"

    return LatencyEstimate(
        total_s=total_s,
        host_s=host_s,
        device_s=device_s,
        compute_s=compute_s,
        memory_s=memory_s,
        launch_s=launch_s,
        bound=bound,
    )


@dataclass
class EnergyAccumulator:
    """Accumulates one device's energy over a simulated run, one kernel at a
    time (the two-term power model of ``simulator._device_energy``)."""

    device: DeviceSpec
    dynamic_j: float = 0.0
    busy_s: float = 0.0

    def add_kernel(self, estimate: LatencyEstimate) -> None:
        dynamic_power = (self.device.peak_power_w - self.device.idle_power_w)
        self.dynamic_j += dynamic_power * estimate.utilization * estimate.device_s
        self.busy_s += estimate.device_s

    def total_j(self, wall_s: float) -> float:
        """Total energy given the end-to-end wall time of the run."""
        return self.device.idle_power_w * wall_s + self.dynamic_j


def simulate_reference(plan: ExecutionPlan, platform: Platform) -> SimulationResult:
    """Kernel-by-kernel scalar simulation — the reference implementation.

    Each kernel is estimated with :func:`estimate_kernel`, its transfers are
    priced on the platform's links, and the wall time and per-device energy
    accumulate with scalar ``+=`` in kernel order.  The per-kernel values
    are then packed into the same array-backed :class:`SimulationResult`
    the vectorized simulator returns, so the two compare field for field.
    Its :attr:`~SimulationResult.records` are the scalar
    :class:`KernelRecord` objects built here, not a re-read of the packed
    arrays, so comparing them with the vectorized side's records also checks
    :meth:`BatchEstimates.estimate`.
    """
    profile = dispatch_profile(plan.dispatch_profile)
    accumulators = {spec.kind: EnergyAccumulator(spec) for spec in platform.devices}
    target = plan.target
    records: list[KernelRecord] = []
    total_latency_s = 0.0

    for kernel in plan.kernels:
        device = platform.device(kernel.device)
        estimate = estimate_kernel(
            device=device,
            category=kernel.category,
            cost=kernel.cost,
            dtype=kernel.dtype,
            dispatch_s=profile.dispatch_for(device.kind, kernel.metadata_only),
            is_custom=kernel.is_custom,
            metadata_only=kernel.metadata_only,
            launch_count=kernel.launch_count,
            gemm_peak_scale_f32=plan.gemm_peak_scale_f32,
            gemm_saturation_scale=plan.gemm_saturation_scale,
        )
        peer = _transfer_peer(target, kernel.device)
        transfer_s = 0.0
        if kernel.transfer_bytes_in:
            transfer_s += (
                platform.transfer_time(peer, kernel.device, kernel.transfer_bytes_in)
                + FALLBACK_SYNC_S
            )
        if kernel.transfer_bytes_out:
            transfer_s += (
                platform.transfer_time(kernel.device, peer, kernel.transfer_bytes_out)
                + FALLBACK_SYNC_S
            )
        records.append(KernelRecord(kernel=kernel, estimate=estimate, transfer_s=transfer_s))
        total_latency_s += estimate.total_s + transfer_s
        accumulator = accumulators.get(kernel.device)
        if accumulator is not None:
            accumulator.add_kernel(estimate)

    estimates = [record.estimate for record in records]

    def column(field: str) -> np.ndarray:
        return np.array([getattr(e, field) for e in estimates], dtype=np.float64)

    packed = BatchEstimates(
        total_s=column("total_s"),
        host_s=column("host_s"),
        device_s=column("device_s"),
        compute_s=column("compute_s"),
        memory_s=column("memory_s"),
        launch_s=column("launch_s"),
        bound_code=np.array([BOUND_LABELS.index(e.bound) for e in estimates], dtype=np.int8),
    )
    result = SimulationResult(
        plan=plan,
        platform=platform,
        total_latency_s=total_latency_s,
        energy_j={
            kind: accumulator.total_j(total_latency_s)
            for kind, accumulator in accumulators.items()
        },
        estimates=packed,
        transfer_s=np.array([record.transfer_s for record in records], dtype=np.float64),
    )
    # fill the lazy records view with the scalar objects themselves
    result._records = records
    return result


def _rebind_in_repro(current: object, replacement: object) -> None:
    """Point every loaded ``repro`` module attribute that is ``current`` at
    ``replacement`` (modules that imported the function by name included)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is current:
                setattr(module, attr, replacement)


@contextmanager
def scalar_simulator() -> Iterator[None]:
    """Route every ``repro`` call of ``simulate`` through :func:`simulate_reference`.

    For benchmarking and validation only — results are bit-identical, just
    orders of magnitude more Python work.  On exit every binding is pointed
    back at the production function, including bindings made by modules
    first imported inside the block.
    """
    production = simulator.simulate
    _rebind_in_repro(production, simulate_reference)
    try:
        yield
    finally:
        _rebind_in_repro(simulate_reference, production)
