"""Compute-time model: how long forward/backward passes take on a GPU.

This is the ``T_comp`` term of the paper's performance model (§4).  It is
shared by the analytic model (:mod:`repro.core.perf_model`) and the
cluster simulator (:mod:`repro.simulator`), so both sides of the
Figure-8 validation consume identical compute estimates and differ only in
how they treat communication and overlap.

The model is a calibrated roofline:

    ``T = FLOPs(batch) / (peak * gpu_eff * model_eff) * (1 + half/batch)``

where the saturation term captures GPU under-utilization at small batch
sizes — the effect behind the paper's Figure 7 (small batches leave less
computation to hide communication under, *and* run less efficiently).
Constants are calibrated against the paper's published V100 measurements;
see :mod:`repro.hardware.gpus` and the per-model fields on
:class:`repro.models.ModelSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import ConfigurationError
from .hardware import GPUSpec
from .memo import per_object
from .models import LayerSpec, ModelSpec
from .units import FLOAT32_BYTES


_TimeTables = Dict[Tuple[int, float], np.ndarray]


@per_object
def _backward_tables(model: ModelSpec) -> Tuple[np.ndarray, _TimeTables]:
    """Per-sample backward FLOPs of each layer in backward order, and
    the per-layer time tables already built from them, keyed by
    (batch size, effective FLOP/s)."""
    flops = np.array([layer.bwd_flops_per_sample()
                      for layer in model.backward_layers()], dtype=float)
    return flops, {}


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}")


def _backward_time(model: ModelSpec, gpu: GPUSpec, batch_size,
                   compute_factor):
    """``T_comp`` for scalar or array batch sizes and compute factors.

    The one definition of the backward-pass time: the §4 model's kernel
    (:mod:`repro.core.perf_model`), its grids (:mod:`repro.core.grid`)
    and :meth:`ComputeModel.backward_time` (compute factor 1) all call
    it.  Python scalars in give a Python float out; arrays broadcast.
    Scaling the peak by ``compute_factor`` here equals pricing on
    ``gpu.scaled(compute_factor)``: both compute
    ``(((peak·f)·eff_train)·eff_model)·saturation`` and divide
    ``bs · bwd_flops(1)`` by it (``x·1.0`` is exact).  Batch sizes are
    not validated here; callers check them first.
    """
    saturation = 1.0 / (1.0 + model.batch_half_saturation / batch_size)
    eff = (gpu.peak_fp32_flops * compute_factor * gpu.training_efficiency
           * model.compute_efficiency * saturation)
    return batch_size * model.bwd_flops(1) / eff


@dataclass(frozen=True)
class ComputeModel:
    """Timing/memory model for one ``(model, gpu)`` pair.

    Attributes:
        model: The workload.
        gpu: The device it runs on.
    """

    model: ModelSpec
    gpu: GPUSpec

    def effective_flops(self, batch_size: int) -> float:
        """Sustained FLOP/s for this model at this batch size."""
        _check_batch_size(batch_size)
        saturation = 1.0 / (1.0 + self.model.batch_half_saturation / batch_size)
        return (self.gpu.effective_training_flops
                * self.model.compute_efficiency * saturation)

    def forward_time(self, batch_size: int) -> float:
        """Seconds for one forward pass."""
        return self.model.fwd_flops(batch_size) / self.effective_flops(batch_size)

    def backward_time(self, batch_size: int) -> float:
        """Seconds for one backward pass — the paper's ``T_comp``
        (:func:`_backward_time` at compute factor 1)."""
        _check_batch_size(batch_size)
        return _backward_time(self.model, self.gpu, batch_size, 1.0)

    def layer_backward_time(self, layer: LayerSpec, batch_size: int) -> float:
        """Seconds for the backward pass of one layer of this model.

        Raises:
            ConfigurationError: when ``layer`` is not one of the model's
                layers (by name and contents).
        """
        own = self.model.layer_named(layer.name)
        if own is not layer and own != layer:
            raise ConfigurationError(
                f"layer {layer.name!r} differs from {self.model.name}'s "
                f"layer of that name")
        flops = batch_size * layer.bwd_flops_per_sample()
        return flops / self.effective_flops(batch_size)

    def backward_layer_times(self, batch_size: int) -> np.ndarray:
        """Seconds for each layer's backward pass, in backward order.

        The simulator schedules per-layer gradient-ready events from
        this table (the granularity at which DDP overlaps
        communication).  It equals :meth:`layer_backward_time` over
        :meth:`~repro.models.ModelSpec.backward_layers` exactly: the
        same float64 operations, vectorized.  The array is read-only
        and shared by every ``ComputeModel`` of the same model spec.
        """
        rate = self.effective_flops(batch_size)
        flops, tables = _backward_tables(self.model)
        times = tables.get((batch_size, rate))
        if times is None:
            times = (batch_size * flops) / rate
            times.flags.writeable = False
            tables[(batch_size, rate)] = times
        return times

    def optimizer_time(self) -> float:
        """Seconds for the SGD parameter update (elementwise, memory-bound:
        read grad + read/write weights + momentum buffer ~ 4 tensor
        sweeps)."""
        bytes_touched = 4.0 * self.model.grad_bytes
        return bytes_touched / self.gpu.memcpy_bytes_per_s

    def iteration_compute_time(self, batch_size: int) -> float:
        """Forward + backward + optimizer, no communication.

        This is the *ideal weak-scaling* per-iteration time: what a run
        would cost if gradient synchronization were free (§5 of the
        paper).
        """
        return (self.forward_time(batch_size)
                + self.backward_time(batch_size)
                + self.optimizer_time())

    # ----- memory --------------------------------------------------------

    def model_state_bytes(self) -> float:
        """Weights + gradients + SGD momentum, all fp32."""
        return 3.0 * self.model.num_params * FLOAT32_BYTES

    def training_memory_bytes(self, batch_size: int) -> float:
        """Steady-state training footprint without aggregation buffers."""
        return (self.model_state_bytes()
                + self.model.activation_bytes(batch_size))

    def peak_memory_bytes(self, batch_size: int,
                          aggregation_bytes: float = 0.0) -> float:
        """Peak footprint over the iteration.

        Activations exist during forward/backward; the aggregation
        working set (gathered payload stacks) exists *after* the backward
        pass has freed the activations, so the peak is the max of the two
        phases, not their sum.
        """
        training_peak = self.training_memory_bytes(batch_size)
        aggregation_peak = self.model_state_bytes() + aggregation_bytes
        return max(training_peak, aggregation_peak)

    def fits_in_memory(self, batch_size: int,
                       extra_bytes: float = 0.0) -> Tuple[bool, float]:
        """Check the iteration's peak footprint (training phase vs
        aggregation phase with ``extra_bytes`` of gathered payload stack)
        against the GPU's memory.

        Returns ``(fits, required_bytes)`` so callers can report how far
        over budget a configuration is (the paper's BERT OOM notes).
        """
        required = self.peak_memory_bytes(batch_size, extra_bytes)
        return required <= self.gpu.memory_bytes, required
