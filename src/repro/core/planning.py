"""Training-run planning on top of the performance model (§7).

The paper suggests extending its approach to other training decisions,
naming batch-size choice explicitly.  This module provides:

* **epoch-time accounting** — per-iteration predictions turned into
  epoch/wall-clock estimates for a dataset of a given size;
* **batch-size planning** — sweep per-GPU batch sizes under weak
  scaling: bigger batches hide communication better *and* communicate
  less often per epoch, the double effect behind Figure 7;
* **strong scaling** — fix the *global* batch and split it across more
  workers, the regime where per-GPU compute shrinks with scale and
  communication bottlenecks bite hardest (§7's "workload trends").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme, SyncSGDScheme
from ..compute import ComputeModel
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from .grid import compressed_time_grid
from .perf_model import PerfModelInputs, predict


@dataclass(frozen=True)
class EpochEstimate:
    """Wall-clock estimate for one epoch of training."""

    model: str
    scheme: str
    world_size: int
    per_gpu_batch: int
    iterations: int
    iteration_s: float

    @property
    def epoch_s(self) -> float:
        """Seconds for one epoch: iterations × iteration time."""
        return self.iterations * self.iteration_s

    @property
    def samples_per_s(self) -> float:
        """Training throughput across every GPU."""
        return (self.world_size * self.per_gpu_batch) / self.iteration_s


def epoch_time(model: ModelSpec, scheme: Scheme, inputs: PerfModelInputs,
               dataset_samples: int, gpu: GPUSpec = V100,
               include_forward: bool = True,
               profile: Optional[KernelProfile] = None) -> EpochEstimate:
    """Estimate one epoch's wall time under weak scaling.

    The perf model predicts the backward+sync window (the paper's
    metric); ``include_forward`` adds the forward pass and optimizer so
    the estimate is an actual epoch time.
    """
    if dataset_samples < 1:
        raise ConfigurationError(
            f"dataset_samples must be >= 1, got {dataset_samples}")
    bs = inputs.batch_size or model.default_batch_size
    global_batch = bs * inputs.world_size
    iterations = math.ceil(dataset_samples / global_batch)
    iteration = predict(model, scheme, inputs, gpu, profile).total
    if include_forward:
        compute = ComputeModel(model, gpu)
        iteration += compute.forward_time(bs) + compute.optimizer_time()
    return EpochEstimate(
        model=model.name,
        scheme=scheme.label if not isinstance(scheme, SyncSGDScheme)
        else "syncsgd",
        world_size=inputs.world_size,
        per_gpu_batch=bs,
        iterations=iterations,
        iteration_s=iteration,
    )


def batch_size_plan(model: ModelSpec, scheme: Scheme,
                    inputs: PerfModelInputs, dataset_samples: int,
                    batch_sizes: Sequence[int], gpu: GPUSpec = V100,
                    ) -> Tuple[EpochEstimate, ...]:
    """Epoch estimates across per-GPU batch sizes (Figure-7 planning)."""
    if not batch_sizes:
        raise ConfigurationError("batch_sizes must be non-empty")
    estimates: List[EpochEstimate] = []
    for bs in batch_sizes:
        if bs < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {bs}")
        swept = PerfModelInputs(
            world_size=inputs.world_size,
            bandwidth_bytes_per_s=inputs.bandwidth_bytes_per_s,
            alpha_s=inputs.alpha_s, gamma=inputs.gamma, batch_size=bs,
            bucket_cap_bytes=inputs.bucket_cap_bytes)
        estimates.append(epoch_time(model, scheme, swept, dataset_samples,
                                    gpu))
    return tuple(estimates)


@dataclass(frozen=True)
class CostEstimate:
    """Dollar cost of a training run on a priced cluster."""

    epochs: int
    wall_clock_s: float
    node_hours: float
    total_usd: float

    def render(self) -> str:
        """One line: epochs, wall clock, node-hours and dollars."""
        return (f"{self.epochs} epochs in "
                f"{self.wall_clock_s / 3600:.2f} h wall clock = "
                f"{self.node_hours:.1f} node-hours = "
                f"${self.total_usd:,.0f}")


def training_cost(estimate: EpochEstimate, cluster: "ClusterConfig",
                  epochs: int) -> CostEstimate:
    """Price a run: epoch estimate x epochs x the cluster's node price.

    Useful for the advisor's bottom line: a compression scheme that is
    10% slower per iteration is 10% more expensive in dollars, not just
    in time — and an OOM-driven cap at 32 GPUs has a throughput cost
    money cannot fix.
    """
    from ..hardware import ClusterConfig  # noqa: F811  (typing only)

    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    if cluster.instance.hourly_usd <= 0:
        raise ConfigurationError(
            f"{cluster.instance.name} has no hourly price configured")
    if cluster.world_size != estimate.world_size:
        raise ConfigurationError(
            f"estimate was made for {estimate.world_size} GPUs but the "
            f"cluster has {cluster.world_size}")
    wall = estimate.epoch_s * epochs
    node_hours = wall / 3600.0 * cluster.num_nodes
    return CostEstimate(
        epochs=epochs,
        wall_clock_s=wall,
        node_hours=node_hours,
        total_usd=node_hours * cluster.instance.hourly_usd,
    )


@dataclass(frozen=True)
class StrongScalingPoint:
    """One point of a strong-scaling sweep (fixed global batch)."""

    world_size: int
    per_gpu_batch: int
    iteration_s: float
    speedup_vs_min_world: float


def strong_scaling_sweep(model: ModelSpec, scheme: Scheme,
                         base_inputs: PerfModelInputs, global_batch: int,
                         world_sizes: Sequence[int], gpu: GPUSpec = V100,
                         ) -> Tuple[StrongScalingPoint, ...]:
    """Fix the global batch, split across more workers.

    Under strong scaling the per-GPU batch shrinks with the worker
    count, so compute stops hiding communication — the regime the paper
    (§7 "workload trends") predicts compression becomes useful in.
    World sizes must divide the global batch.  The points are one
    :func:`~repro.core.grid.compressed_time_grid` call over zipped
    world-size and per-GPU batch axes.
    """
    if global_batch < 1:
        raise ConfigurationError(
            f"global_batch must be >= 1, got {global_batch}")
    ordered = sorted(set(world_sizes))
    if not ordered:
        raise ConfigurationError("world_sizes must be non-empty")
    for p in ordered:
        if p < 1 or global_batch % p != 0:
            raise ConfigurationError(
                f"world size {p} does not divide global batch "
                f"{global_batch}")
    sizes = np.array(ordered)
    batches = global_batch // sizes
    totals = compressed_time_grid(model, scheme, base_inputs, gpu,
                                  world_size=sizes,
                                  batch_size=batches).total.tolist()
    return tuple(
        StrongScalingPoint(world_size=p, per_gpu_batch=bs,
                           iteration_s=t,
                           speedup_vs_min_world=totals[0] / t)
        for p, bs, t in zip(sizes.tolist(), batches.tolist(), totals))
