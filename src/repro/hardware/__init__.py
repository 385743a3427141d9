"""Hardware catalog: GPUs, cloud instances, and cluster configurations."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .cluster import ClusterConfig, cluster_for_gpus, gpu_scaling_sweep
    from .gpus import A100, P100, T4, V100, GPUSpec, available_gpus, get_gpu
    from .instances import (
        P3_2XLARGE,
        P3_8XLARGE,
        P3DN_24XLARGE,
        P4D_24XLARGE,
        InstanceType,
        available_instances,
        get_instance,
    )

__all__ = [
    "GPUSpec", "V100", "A100", "T4", "P100", "get_gpu", "available_gpus",
    "InstanceType", "P3_2XLARGE", "P3_8XLARGE", "P3DN_24XLARGE",
    "P4D_24XLARGE", "get_instance", "available_instances",
    "ClusterConfig", "cluster_for_gpus", "gpu_scaling_sweep",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cluster": ("ClusterConfig", "cluster_for_gpus", "gpu_scaling_sweep"),
    ".gpus": (
        "A100", "P100", "T4", "V100", "GPUSpec", "available_gpus", "get_gpu",
    ),
    ".instances": (
        "P3_2XLARGE", "P3_8XLARGE", "P3DN_24XLARGE", "P4D_24XLARGE",
        "InstanceType", "available_instances", "get_instance",
    ),
})
