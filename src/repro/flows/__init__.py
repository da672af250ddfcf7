"""Deployment flows: lowering operator graphs into executable plans."""

from repro.errors import RegistryError
from repro.flows.base import DeploymentFlow
from repro.flows.fusion import (
    FusionConfig,
    FusionResult,
    fuse_graph,
    group_category,
)
from repro.flows.npu_offload import NPUOffloadFlow
from repro.flows.onnxruntime import ONNXRuntimeFlow
from repro.flows.ort_cpu import ORTCpuEpFlow
from repro.flows.passes import (
    CategoryRoutePlacement,
    CompositeExpansionPass,
    FusionPass,
    KernelConstructionPass,
    LoweringPass,
    LoweringState,
    MetadataElisionPass,
    PassManager,
    PerOpFallbackPlacement,
    PlacementPass,
    PlacementPolicy,
    SyncInsertionPass,
    TransferInsertionPass,
    UniformPlacement,
)
from repro.flows.plan import ExecutionPlan, PlannedKernel, group_cost, node_base_cost
from repro.flows.pytorch_eager import PyTorchEagerFlow
from repro.flows.tensorrt import TensorRTFlow
from repro.flows.torch_inductor import TorchInductorFlow

_FLOWS: dict[str, type[DeploymentFlow]] = {}

#: short names accepted by :func:`get_flow` alongside canonical flow names.
_ALIASES = {
    "pt": "pytorch",
    "eager": "pytorch",
    "inductor": "torchinductor",
    "trt": "tensorrt",
    "ort": "onnxruntime",
    "ortcpu": "ort-cpu-ep",
    "npu": "npu-offload",
}


#: memoized flow instances: flows are stateless besides their lazily-built
#: (and content-addressed) pipeline, so the registry hands out one shared
#: instance per name instead of rebuilding pipeline + signature per sweep
#: point.  Invalidated when a registration is replaced.
_INSTANCES: dict[str, DeploymentFlow] = {}


def register_flow(flow_cls: type[DeploymentFlow], replace: bool = False) -> type[DeploymentFlow]:
    """Register a deployment flow class under its ``name`` for :func:`get_flow`.

    Usable as a decorator on custom flows (see
    ``examples/custom_flow_passes.py``); registered flows are immediately
    available to the sweep CLI's ``--flows`` axis and every harness.
    """
    key = flow_cls.name.lower()
    if key in _ALIASES:
        raise RegistryError(
            f"flow name {flow_cls.name!r} collides with the built-in alias"
            f" for {_ALIASES[key]!r}"
        )
    if key in _FLOWS and not replace:
        raise RegistryError(f"flow {flow_cls.name!r} already registered")
    _FLOWS[key] = flow_cls
    _INSTANCES.pop(key, None)
    return flow_cls


for _cls in (
    PyTorchEagerFlow,
    TorchInductorFlow,
    TensorRTFlow,
    ONNXRuntimeFlow,
    ORTCpuEpFlow,
    NPUOffloadFlow,
):
    register_flow(_cls)


def get_flow(name: str) -> DeploymentFlow:
    """Instantiate a deployment flow by name.

    Accepted names: ``pytorch``, ``torchinductor``, ``tensorrt``,
    ``onnxruntime``, ``ort-cpu-ep``, plus anything passed to
    :func:`register_flow` (aliases: ``pt``, ``inductor``, ``trt``, ``ort``,
    ``ortcpu``).
    """
    key = _ALIASES.get(name.lower(), name.lower())
    instance = _INSTANCES.get(key)
    if instance is None:
        try:
            instance = _FLOWS[key]()
        except KeyError:
            raise RegistryError(
                f"unknown flow {name!r}; known: {sorted(_FLOWS)}"
            ) from None
        _INSTANCES[key] = instance
    return instance


def list_flows() -> list[str]:
    """Canonical names of all registered flows."""
    return sorted(_FLOWS)


__all__ = [
    "CategoryRoutePlacement",
    "CompositeExpansionPass",
    "DeploymentFlow",
    "ExecutionPlan",
    "FusionConfig",
    "FusionPass",
    "FusionResult",
    "KernelConstructionPass",
    "LoweringPass",
    "LoweringState",
    "MetadataElisionPass",
    "NPUOffloadFlow",
    "ONNXRuntimeFlow",
    "ORTCpuEpFlow",
    "PassManager",
    "PerOpFallbackPlacement",
    "PlacementPass",
    "PlacementPolicy",
    "PlannedKernel",
    "PyTorchEagerFlow",
    "SyncInsertionPass",
    "TensorRTFlow",
    "TorchInductorFlow",
    "TransferInsertionPass",
    "UniformPlacement",
    "fuse_graph",
    "get_flow",
    "group_category",
    "group_cost",
    "list_flows",
    "node_base_cost",
    "register_flow",
]
