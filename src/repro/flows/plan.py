"""Execution plans: what a deployment flow actually runs.

A flow lowers an operator graph into an ordered list of
:class:`PlannedKernel`\\ s — possibly-fused groups of graph nodes assigned to
a device, with fusion-adjusted cost and optional PCIe transfers (for
CPU-fallback kernels).  The simulator walks this list.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.errors import PlanError
from repro.hardware.device import DeviceKind
from repro.ir.dtype import DType
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ops.base import OpCategory, OpCost


class PlannedKernel(NamedTuple):
    """One schedulable unit: a single op or a fused group.

    A NamedTuple: tens of thousands are minted per lowering, so construction
    cost sits on the sweep engine's critical path.
    """

    name: str
    node_ids: tuple[int, ...]
    op_kinds: tuple[str, ...]
    category: OpCategory
    device: DeviceKind
    cost: OpCost
    dtype: DType
    metadata_only: bool = False
    is_custom: bool = False
    #: device kernels launched for this unit (eager composites launch many).
    launch_count: int = 1
    #: PCIe traffic for CPU-fallback kernels (ORT unsupported-op study).
    transfer_bytes_in: int = 0
    transfer_bytes_out: int = 0

    @property
    def fused(self) -> bool:
        return len(self.node_ids) > 1

    @property
    def is_gemm(self) -> bool:
        return self.category is OpCategory.GEMM


@dataclass
class ExecutionPlan:
    """A lowered graph, ready for simulation.

    ``graph`` is normally the :class:`~repro.ir.graph.Graph` the plan was
    lowered from; plans served by the persistent artifact store may instead
    carry a lazy :class:`~repro.sweep.cache.GraphRef` (same ``content_hash``
    /``materialize``/``name`` surface), which the rare structure-walking
    paths resolve on demand — the profiling hot path never does.
    """

    graph: Graph  # or a lazy GraphRef (see docstring)
    flow: str
    dispatch_profile: str  # key into hardware.calibration.DISPATCH_PROFILES
    kernels: list[PlannedKernel]
    #: the device class this lowering targeted; the simulator routes
    #: transfers of kernels forced off it over the platform's link table.
    #: (Defaults to GPU — the only accelerator the pre-N-device model knew.)
    target: DeviceKind = DeviceKind.GPU
    #: flow-level GEMM rate adjustments (see DeploymentFlow)
    gemm_peak_scale_f32: float = 1.0
    gemm_saturation_scale: float = 1.0
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def num_fused_kernels(self) -> int:
        return sum(1 for k in self.kernels if k.fused)

    def content_hash(self) -> str:
        """Structural fingerprint of the lowered plan.

        Combines the source graph's content hash with the flow-level knobs and
        every kernel's schedulable identity, so two plans hash equal exactly
        when the simulator would produce identical timelines for them.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.graph.content_hash().encode())
        digest.update(
            f"|{self.flow}|{self.dispatch_profile}|{self.target.value}"
            f"|{self.gemm_peak_scale_f32!r}|{self.gemm_saturation_scale!r}".encode()
        )
        for kernel in self.kernels:
            digest.update(
                f"\x00{kernel.node_ids}{kernel.category.name}{kernel.device.value}"
                f"{kernel.cost.flops},{kernel.cost.bytes_read},{kernel.cost.bytes_written}"
                f"{kernel.dtype.name}{int(kernel.metadata_only)}{int(kernel.is_custom)}"
                f"{kernel.launch_count},{kernel.transfer_bytes_in},{kernel.transfer_bytes_out}".encode()
            )
        return digest.hexdigest()

    def covered_node_count(self) -> int:
        """Number of graph nodes the kernels cover, memoized.

        Equals ``len(graph.compute_nodes())`` for any validated plan (the
        kernels partition the compute nodes exactly), which lets profiling
        report the graph's op count without touching graph structure — and,
        for store-loaded plans, without decoding the kernel list.
        """
        cached = self.__dict__.get("_covered_node_count")
        if cached is None:
            counter = getattr(self.kernels, "covered_node_count", None)
            if counter is not None:  # LazyKernelList: answered undecoded
                cached = counter()
            else:
                cached = sum(len(k.node_ids) for k in self.kernels)
            self.__dict__["_covered_node_count"] = cached
        return cached

    def validate(self) -> None:
        """Every compute node appears in exactly one kernel; order respects deps."""
        graph = self.graph.materialize()
        seen: set[int] = set()
        for kernel in self.kernels:
            for node_id in kernel.node_ids:
                if node_id in seen:
                    raise PlanError(f"node {node_id} planned twice in {self.flow}")
                seen.add(node_id)
        expected = {n.node_id for n in graph.compute_nodes()}
        missing = expected - seen
        extra = seen - expected
        if missing:
            raise PlanError(f"plan for {graph.name} misses nodes {sorted(missing)[:8]}")
        if extra:
            raise PlanError(f"plan for {graph.name} has unknown nodes {sorted(extra)[:8]}")

    def non_gemm_fusion_rate(self) -> float:
        """Fraction of non-GEMM graph ops that were fused away (paper Table V).

        Memoized: plans are immutable once lowered, and cached plans are
        re-profiled many times per sweep.
        """
        cached = self.__dict__.get("_non_gemm_fusion_rate")
        if cached is not None:
            return cached
        rate = self._compute_non_gemm_fusion_rate()
        self.__dict__["_non_gemm_fusion_rate"] = rate
        return rate

    def _compute_non_gemm_fusion_rate(self) -> float:
        nodes = self.graph.materialize().nodes
        non_gemm_total = 0
        non_gemm_fused = 0
        for kernel in self.kernels:
            for node_id in kernel.node_ids:
                node = nodes[node_id]
                if node.op.category is OpCategory.GEMM:
                    continue
                non_gemm_total += 1
                if kernel.fused:
                    non_gemm_fused += 1
        if non_gemm_total == 0:
            return 0.0
        return non_gemm_fused / non_gemm_total


def group_cost(graph: Graph, node_ids: tuple[int, ...]) -> OpCost:
    """Fusion-adjusted cost of a node group.

    FLOPs add up; traffic counts only values crossing the group boundary
    (external inputs once each, external outputs once each) plus weights —
    the whole point of fusion is that intermediates stay in registers/SRAM.
    """
    members = set(node_ids)
    flops = 0
    weight_bytes = 0
    read = 0
    consumers = graph.consumers()
    node_costs = graph.node_costs()
    seen_inputs: set[tuple[int, int]] = set()
    written = 0
    for node_id in node_ids:
        node = graph.nodes[node_id]
        base = node_costs[node_id]
        flops += base.flops
        weight_bytes += node.op.weight_bytes()
        for value in node.inputs:
            key = (value.node_id, value.port)
            if value.node_id not in members and key not in seen_inputs:
                seen_inputs.add(key)
                read += value.spec.nbytes
        for port, spec in enumerate(node.outputs):
            users = consumers.get((node_id, port), [])
            escapes = any(u not in members for u in users) or _is_graph_output(
                graph, node_id, port
            )
            if escapes:
                written += spec.nbytes
    return OpCost(flops=flops, bytes_read=read + weight_bytes, bytes_written=written)


def group_costs_batch(graph: Graph, groups: Sequence[tuple[int, ...]]) -> list[OpCost]:
    """Fusion-adjusted cost of every group in one walk of the graph.

    Produces exactly :func:`group_cost` of each group (integer sums are
    exact regardless of association order), but amortizes the boundary
    analysis: instead of per-group member sets and consumer-map probes, one
    pass over the graph's edges classifies every value as internal or
    escaping.  Kernel construction calls this once per lowering, which is
    where profiling shows the cold path's per-group set arithmetic.
    """
    owner: dict[int, int] = {}
    for index, group in enumerate(groups):
        for node_id in group:
            owner[node_id] = index
    node_costs = graph.node_costs()
    nodes = graph.nodes
    count = len(groups)
    flops = [0] * count
    read = [0] * count
    weights = [0] * count
    written = [0] * count
    #: (group, producer, port) pairs already charged as reads — a group
    #: streams each external value once however many members consume it.
    seen_reads: set[tuple[int, int, int]] = set()
    #: (producer, port) values consumed outside their producer's group.
    escapes: set[tuple[int, int]] = set()
    get_owner = owner.get
    for node in nodes:
        group_index = get_owner(node.node_id)
        if group_index is None:
            # not in any costed group: only relevant as an outside consumer.
            for value in node.inputs:
                if get_owner(value.node_id) is not None:
                    escapes.add((value.node_id, value.port))
            continue
        base = node_costs[node.node_id]
        flops[group_index] += base.flops
        weights[group_index] += node.op.weight_bytes()
        for value in node.inputs:
            producer = value.node_id
            if get_owner(producer) != group_index:
                key = (group_index, producer, value.port)
                if key not in seen_reads:
                    seen_reads.add(key)
                    read[group_index] += value.spec.nbytes
                if producer in owner:
                    escapes.add((producer, value.port))
    for value in graph.outputs:
        if get_owner(value.node_id) is not None:
            escapes.add((value.node_id, value.port))
    for producer, port in escapes:
        written[owner[producer]] += nodes[producer].outputs[port].nbytes
    return [
        OpCost(flops=flops[i], bytes_read=read[i] + weights[i], bytes_written=written[i])
        for i in range(count)
    ]


def _is_graph_output(graph: Graph, node_id: int, port: int) -> bool:
    return any(v.node_id == node_id and v.port == port for v in graph.outputs)


def node_base_cost(node: Node) -> OpCost:
    """Unfused cost of a single node."""
    return node.op.cost([v.spec for v in node.inputs], list(node.outputs))
