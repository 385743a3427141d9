"""Hardware catalog: GPUs, cloud instances, and cluster configurations."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .cluster import ClusterConfig, cluster_for_gpus, gpu_scaling_sweep
    from .gpus import A100, P100, T4, V100, GPUSpec, available_gpus, get_gpu
    from .instances import (
        P3_2XLARGE,
        P3_8XLARGE,
        InstanceType,
        available_instances,
        get_instance,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cluster": ("ClusterConfig", "cluster_for_gpus", "gpu_scaling_sweep"),
    ".gpus": (
        "A100", "P100", "T4", "V100", "GPUSpec", "available_gpus", "get_gpu",
    ),
    ".instances": (
        "P3_2XLARGE", "P3_8XLARGE", "InstanceType", "available_instances",
        "get_instance",
    ),
})
