"""The pre-pass-pipeline planner, kept as an executable specification.

This module preserves the monolithic ``DeploymentFlow.lower`` algorithm
exactly as it existed before lowering was decomposed into
:mod:`repro.flows.passes`.  Only tests use it — the equivalence suite
(``tests/test_passes.py``) lowers every registered model
through both implementations and asserts the plans match kernel-for-kernel,
the same role ``tests/oracles/simulator.py`` plays for the vectorized
simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import PlanError
from repro.hardware.device import DeviceKind
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ops.base import OpCost
from repro.flows.fusion import fuse_graph, group_category
from repro.flows.passes.construct import node_dtype
from repro.flows.plan import ExecutionPlan, PlannedKernel, group_cost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.base import DeploymentFlow
    from repro.flows.passes.placement import PlacementPolicy


def reference_lower(
    flow: "DeploymentFlow", graph: Graph, use_gpu: bool = True
) -> ExecutionPlan:
    """Lower ``graph`` with the pre-refactor monolithic planner."""
    graph.validate()
    result = fuse_graph(graph, flow.fusion)
    policy = flow.placement_policy()
    # uniform flows resolve the device once, not per node
    device = None
    if flow.uniform_placement:
        device = DeviceKind.GPU if use_gpu else DeviceKind.CPU
    kernels: list[PlannedKernel] = []
    nodes = graph.nodes
    node_costs = graph.node_costs()
    for group in result.groups:
        if len(group) == 1:
            kernels.append(
                _plan_single(flow, policy, graph, nodes[group[0]], use_gpu, device, node_costs)
            )
        else:
            kernels.append(_plan_group(flow, policy, graph, group, use_gpu))
    plan = ExecutionPlan(
        graph=graph,
        flow=flow.name,
        dispatch_profile=flow.dispatch_profile,
        kernels=kernels,
        target=DeviceKind.GPU if use_gpu else DeviceKind.CPU,
        gemm_peak_scale_f32=flow.gemm_peak_scale_f32,
        gemm_saturation_scale=flow.gemm_saturation_scale,
    )
    plan.validate()
    return plan


def _plan_single(
    flow: "DeploymentFlow",
    policy: "PlacementPolicy",
    graph: Graph,
    node: Node,
    use_gpu: bool,
    device: DeviceKind | None = None,
    node_costs: list | None = None,
) -> PlannedKernel:
    if device is None:
        device = policy.device_for(node, use_gpu)
    fallback = use_gpu and device is DeviceKind.CPU
    metadata = node.op.is_metadata_only and not fallback
    if fallback:
        # an op forced off the accelerator materializes its data on the
        # host: inputs cross PCIe down, outputs cross back up.
        in_bytes = sum(v.spec.nbytes for v in node.inputs)
        out_bytes = sum(s.nbytes for s in node.outputs)
        cost = OpCost(flops=0, bytes_read=in_bytes, bytes_written=out_bytes)
        return PlannedKernel(
            name=node.qualified_name,
            node_ids=(node.node_id,),
            op_kinds=(node.op.kind,),
            category=node.op.category,
            device=DeviceKind.CPU,
            cost=cost,
            dtype=node_dtype(node),
            metadata_only=False,
            is_custom=node.op.is_custom_kernel,
            launch_count=1,
            transfer_bytes_in=in_bytes,
            transfer_bytes_out=out_bytes,
        )
    if node_costs is None:
        node_costs = graph.node_costs()
    cost = node_costs[node.node_id]
    # data-dependent ops (nonzero, dynamic shapes) stall the pipeline with
    # a device->host round trip to read their result size.
    sync_bytes = 0
    if device is DeviceKind.GPU and node.op.forces_sync:
        sync_bytes = sum(s.nbytes for s in node.outputs)
    launches = 1
    if not flow.collapses_composites and node.op.eager_kernels > 1:
        launches = node.op.eager_kernels
        # full-size sub-kernels of a Python composite re-stream the tensor
        passes = node.op.traffic_passes
        cost = OpCost(
            flops=cost.flops,
            bytes_read=cost.bytes_read * passes,
            bytes_written=cost.bytes_written * passes,
        )
    return PlannedKernel(
        name=node.qualified_name,
        node_ids=(node.node_id,),
        op_kinds=(node.op.kind,),
        category=node.op.category,
        device=device,
        cost=cost,
        dtype=node_dtype(node),
        metadata_only=metadata and not sync_bytes,
        is_custom=node.op.is_custom_kernel and not flow.collapses_composites,
        launch_count=launches,
        transfer_bytes_out=sync_bytes,
    )


def _plan_group(
    flow: "DeploymentFlow",
    policy: "PlacementPolicy",
    graph: Graph,
    group: tuple[int, ...],
    use_gpu: bool,
) -> PlannedKernel:
    nodes = [graph.nodes[i] for i in group]
    devices = {policy.device_for(n, use_gpu) for n in nodes}
    if len(devices) > 1:
        raise PlanError(f"fused group {group} spans devices {devices}")
    category = group_category(graph, group)
    first = nodes[0]
    return PlannedKernel(
        name=f"{first.qualified_name}+{len(group) - 1}",
        node_ids=tuple(group),
        op_kinds=tuple(n.op.kind for n in nodes),
        category=category,
        device=devices.pop(),
        cost=group_cost(graph, group),
        dtype=node_dtype(first),
        metadata_only=False,
        is_custom=False,  # fused kernels are generated, not hand-written
        launch_count=1,
    )
