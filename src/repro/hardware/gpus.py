"""GPU specifications used by the compute model.

The simulator does not model microarchitecture; it needs three things per
GPU: how fast dense training math runs (an *effective* throughput, i.e.
peak FLOP/s times an achieved-efficiency factor), how fast small
bandwidth-bound kernels run (for compression encode/decode), and how much
memory is available.

The V100 numbers are calibrated so that the model zoo's backward-pass FLOP
counts reproduce the paper's measured times (ResNet-50 backward ~122 ms at
per-GPU batch 64 — Table 2), via ``effective = peak * gpu.efficiency *
model.compute_efficiency * saturation(batch)``; the per-model-family
factors live on :class:`repro.models.ModelSpec`.  Other entries are taken
from vendor spec sheets with plausible efficiency factors, which is all
the what-if analyses in the paper require (Figure 12 varies compute speed
as a pure multiplier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from ..errors import ConfigurationError
from ..units import GIB, tflops_to_flops


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU model.

    Attributes:
        name: Marketing name, e.g. ``"V100-SXM2-16GB"``.
        peak_fp32_flops: Peak dense fp32 throughput in FLOP/s.
        training_efficiency: Fraction of peak sustained by real training
            kernels (cuDNN convolutions, fused attention, ...).  The
            product ``peak_fp32_flops * training_efficiency`` is the
            effective throughput the compute model divides FLOPs by.
        memcpy_bytes_per_s: Device-memory streaming rate for elementwise /
            bandwidth-bound kernels (sign, pack, scatter).
        memory_bytes: Usable device memory.
        kernel_launch_overhead_s: Fixed cost of launching one kernel;
            dominates per-layer compression cost for networks with many
            small layers (PowerSGD on ResNet).
    """

    name: str
    peak_fp32_flops: float
    training_efficiency: float
    memcpy_bytes_per_s: float
    memory_bytes: float
    kernel_launch_overhead_s: float

    def __post_init__(self) -> None:
        if self.peak_fp32_flops <= 0:
            raise ConfigurationError(f"{self.name}: peak_fp32_flops must be > 0")
        if not 0 < self.training_efficiency <= 1:
            raise ConfigurationError(
                f"{self.name}: training_efficiency must be in (0, 1], "
                f"got {self.training_efficiency}")
        if self.memcpy_bytes_per_s <= 0:
            raise ConfigurationError(f"{self.name}: memcpy_bytes_per_s must be > 0")
        if self.memory_bytes <= 0:
            raise ConfigurationError(f"{self.name}: memory_bytes must be > 0")
        if self.kernel_launch_overhead_s < 0:
            raise ConfigurationError(
                f"{self.name}: kernel_launch_overhead_s must be >= 0")

    @property
    def effective_training_flops(self) -> float:
        """Sustained FLOP/s for forward/backward training kernels."""
        return self.peak_fp32_flops * self.training_efficiency

    def scaled(self, compute_factor: float) -> "GPUSpec":
        """Return a hypothetical GPU ``compute_factor`` times faster.

        Used for the paper's Figure 12 what-if ("what if compute becomes
        4x faster but the network does not?").  Scales compute throughput,
        streaming bandwidth and launch overhead together, exactly as the
        paper assumes encode/decode time shrinks with faster compute.
        """
        if not math.isfinite(compute_factor):
            raise ConfigurationError(
                f"compute_factor must be finite, got {compute_factor}")
        if compute_factor <= 0:
            raise ConfigurationError(
                f"compute_factor must be > 0, got {compute_factor}")
        return replace(
            self,
            name=f"{self.name}-x{compute_factor:g}",
            peak_fp32_flops=self.peak_fp32_flops * compute_factor,
            memcpy_bytes_per_s=self.memcpy_bytes_per_s * compute_factor,
            kernel_launch_overhead_s=self.kernel_launch_overhead_s / compute_factor,
        )


#: The GPU the paper's measurements were taken on (AWS p3.8xlarge).
V100 = GPUSpec(
    name="V100-SXM2-16GB",
    peak_fp32_flops=tflops_to_flops(15.7),
    training_efficiency=0.69,
    memcpy_bytes_per_s=700e9,
    memory_bytes=16 * GIB,
    kernel_launch_overhead_s=9e-6,
)

A100 = GPUSpec(
    name="A100-SXM4-40GB",
    peak_fp32_flops=tflops_to_flops(19.5),
    training_efficiency=0.90,
    memcpy_bytes_per_s=1555e9,
    memory_bytes=40 * GIB,
    kernel_launch_overhead_s=7e-6,
)

T4 = GPUSpec(
    name="T4-16GB",
    peak_fp32_flops=tflops_to_flops(8.1),
    training_efficiency=0.55,
    memcpy_bytes_per_s=300e9,
    memory_bytes=16 * GIB,
    kernel_launch_overhead_s=9e-6,
)

P100 = GPUSpec(
    name="P100-16GB",
    peak_fp32_flops=tflops_to_flops(9.3),
    training_efficiency=0.55,
    memcpy_bytes_per_s=732e9,
    memory_bytes=16 * GIB,
    kernel_launch_overhead_s=10e-6,
)

_REGISTRY: Dict[str, GPUSpec] = {g.name: g for g in (V100, A100, T4, P100)}


def get_gpu(name: str) -> GPUSpec:
    """Look up a built-in GPU spec by name.

    Raises:
        ConfigurationError: if the name is unknown; the message lists the
            available names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown GPU {name!r}; available: {sorted(_REGISTRY)}") from None


def available_gpus() -> Dict[str, GPUSpec]:
    """Return a copy of the built-in GPU registry."""
    return dict(_REGISTRY)
