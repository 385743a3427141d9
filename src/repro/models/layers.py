"""Layer and model descriptors.

A :class:`ModelSpec` is a *metadata-only* description of a neural network:
per-layer parameter shapes, gradient sizes, FLOP counts and activation
footprints, in execution order.  It is what the performance model, the
cluster simulator and the compression cost models consume — none of them
ever run the real network, but all of them need its exact shapes.

The backward pass traverses layers in reverse order; that ordering is what
makes gradient bucketing and communication/computation overlap work, so
:meth:`ModelSpec.backward_layers` and :meth:`ModelSpec.gradient_buckets`
are defined here rather than in the simulator.  Their tables (the
backward order, the name→index map and one :class:`BucketPlan` per
bucket cap) are built once per spec object and shared by every
consumer; see :func:`repro.memo.per_object`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..memo import per_object
from ..units import FLOAT32_BYTES, MIB
from .flops import BACKWARD_FLOP_RATIO


@dataclass(frozen=True)
class LayerSpec:
    """Metadata for one trainable (or compute-only) layer.

    Attributes:
        name: Unique name within the model, e.g. ``"layer3.5.conv2"``.
        kind: One of ``conv``, ``linear``, ``norm``, ``embedding``,
            ``attention`` (compute-only), ``pool`` (compute-only).
        param_shape: Shape of the weight tensor; ``()`` for compute-only
            layers.  Biases are folded into their layer's parameter count
            via ``extra_params``.
        matrix_shape: The 2D ``(m, n)`` view low-rank compressors reshape
            the gradient to (the paper: 4D conv kernels are reshaped to
            2D).  ``(0, 0)`` when the layer has no compressible matrix
            (biases, norms) — such gradients are sent uncompressed.
        extra_params: Parameters not part of the matrix view (bias,
            norm scale/shift); still communicated, never rank-compressed.
        fwd_flops_per_sample: Forward FLOPs for one sample.
        activation_bytes_per_sample: Bytes of output activation kept for
            the backward pass, per sample.
    """

    name: str
    kind: str
    param_shape: Tuple[int, ...] = ()
    matrix_shape: Tuple[int, int] = (0, 0)
    extra_params: int = 0
    fwd_flops_per_sample: float = 0.0
    activation_bytes_per_sample: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("layer name must be non-empty")
        if self.extra_params < 0:
            raise ConfigurationError(f"{self.name}: extra_params must be >= 0")
        if self.fwd_flops_per_sample < 0:
            raise ConfigurationError(f"{self.name}: fwd_flops must be >= 0")
        matrix_params = self.matrix_shape[0] * self.matrix_shape[1]
        if matrix_params and matrix_params != self._shape_numel():
            raise ConfigurationError(
                f"{self.name}: matrix_shape {self.matrix_shape} does not "
                f"cover param_shape {self.param_shape} "
                f"({matrix_params} vs {self._shape_numel()})")

    def __getstate__(self) -> Dict[str, object]:
        return _fields_only(self)

    def _shape_numel(self) -> int:
        return math.prod(self.param_shape) if self.param_shape else 0

    @cached_property
    def num_params(self) -> int:
        """Total trainable parameters, including bias/affine extras.

        Cached: the dataclass is frozen, and hot paths (memory checks,
        bucketing, trace reconstruction) re-read it thousands of times.
        """
        return self._shape_numel() + self.extra_params

    @cached_property
    def grad_bytes(self) -> int:
        """Dense fp32 gradient size in bytes."""
        return self.num_params * FLOAT32_BYTES

    @property
    def has_matrix(self) -> bool:
        """Whether the layer exposes a 2D view for low-rank compression."""
        return self.matrix_shape[0] > 0 and self.matrix_shape[1] > 0

    def bwd_flops_per_sample(self) -> float:
        """Backward FLOPs for one sample (2x forward for trainable layers)."""
        return self.fwd_flops_per_sample * BACKWARD_FLOP_RATIO


@dataclass(frozen=True)
class ModelSpec:
    """An ordered collection of layers plus training-workload metadata.

    Attributes:
        name: Registry name, e.g. ``"resnet50"``.
        layers: Layers in forward execution order.
        default_batch_size: The per-GPU batch size the paper uses for this
            model (64 for the ResNets, 12 for BERT).
        sample_description: What one sample is (for docs/logs).
        compute_efficiency: Relative kernel efficiency of this model
            family on GPUs, multiplying the GPU's own sustained fraction.
            cuDNN convolutions at ImageNet shapes run much closer to peak
            than fp32 transformer kernels, which is why a single global
            efficiency cannot reproduce the paper's measured backward
            times for both families.
        batch_half_saturation: Batch size at which per-sample throughput
            reaches half of its asymptote.  Models the GPU-underutilized
            small-batch regime: backward time scales as
            ``flops(bs) * (1 + half/bs)``.  Large-token transformers
            saturate immediately (0); image CNNs need tens of samples.
        gather_granularity: How the reference implementation of
            non-all-reducible methods stacks gathered payloads when
            decoding: ``"model"`` materializes all ``p`` dense gradients
            at once (the transformer fine-tuning integrations the paper
            used — this is what makes BERT OOM beyond 32 GPUs), while
            ``"layer"`` stacks one layer at a time (the torchvision CNN
            hooks).  Affects the memory model only.
    """

    name: str
    layers: Tuple[LayerSpec, ...]
    default_batch_size: int = 32
    sample_description: str = ""
    compute_efficiency: float = 1.0
    batch_half_saturation: float = 0.0
    gather_granularity: str = "model"

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigurationError(f"{self.name}: model has no layers")
        if self.default_batch_size < 1:
            raise ConfigurationError(
                f"{self.name}: default_batch_size must be >= 1")
        if self.compute_efficiency <= 0:
            raise ConfigurationError(
                f"{self.name}: compute_efficiency must be > 0")
        if self.batch_half_saturation < 0:
            raise ConfigurationError(
                f"{self.name}: batch_half_saturation must be >= 0")
        if self.gather_granularity not in ("model", "layer"):
            raise ConfigurationError(
                f"{self.name}: gather_granularity must be 'model' or "
                f"'layer', got {self.gather_granularity!r}")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"{self.name}: duplicate layer names {dupes}")

    def __getstate__(self) -> Dict[str, object]:
        return _fields_only(self)

    # ----- aggregate sizes -------------------------------------------------

    @cached_property
    def num_params(self) -> int:
        """Total trainable parameters.

        Cached (the spec is frozen): memory checks and per-run trace
        reconstruction re-read the aggregate on every call, and
        re-summing hundreds of layers each time dominated their cost.
        """
        return sum(layer.num_params for layer in self.layers)

    @cached_property
    def grad_bytes(self) -> int:
        """Dense fp32 gradient size (== fp32 model size) in bytes."""
        return self.num_params * FLOAT32_BYTES

    @cached_property
    def trainable_layers(self) -> Tuple[LayerSpec, ...]:
        """Layers that own parameters (and therefore gradients)."""
        return tuple(layer for layer in self.layers if layer.num_params > 0)

    @cached_property
    def matrix_layers(self) -> Tuple[LayerSpec, ...]:
        """Layers with a 2D view usable by low-rank compression."""
        return tuple(layer for layer in self.layers if layer.has_matrix)

    # ----- compute costs ---------------------------------------------------

    @cached_property
    def _fwd_flops_per_sample(self) -> float:
        return sum(l.fwd_flops_per_sample for l in self.layers)

    @cached_property
    def _bwd_flops_per_sample(self) -> float:
        return sum(l.bwd_flops_per_sample() for l in self.layers)

    @cached_property
    def _activation_bytes_per_sample(self) -> float:
        return sum(l.activation_bytes_per_sample for l in self.layers)

    def fwd_flops(self, batch_size: int) -> float:
        """Forward-pass FLOPs for one iteration at ``batch_size``."""
        self._check_batch(batch_size)
        return batch_size * self._fwd_flops_per_sample

    def bwd_flops(self, batch_size: int) -> float:
        """Backward-pass FLOPs for one iteration at ``batch_size``."""
        self._check_batch(batch_size)
        return batch_size * self._bwd_flops_per_sample

    def iteration_flops(self, batch_size: int) -> float:
        """Forward + backward FLOPs for one iteration."""
        return self.fwd_flops(batch_size) + self.bwd_flops(batch_size)

    def activation_bytes(self, batch_size: int) -> float:
        """Activation memory retained for the backward pass."""
        self._check_batch(batch_size)
        return batch_size * self._activation_bytes_per_sample

    def _check_batch(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"{self.name}: batch_size must be >= 1, got {batch_size}")

    # ----- backward ordering and bucketing ----------------------------------

    def backward_layers(self) -> Tuple[LayerSpec, ...]:
        """Layers in the order their gradients become available."""
        return _tables(self).backward

    @cached_property
    def largest_layer_grad_bytes(self) -> int:
        """Gradient bytes of the biggest single layer (the unit of
        ``"layer"``-granularity gather stacking).  Cached: every gather
        scheme's cost reads it."""
        return max(layer.grad_bytes for layer in self.trainable_layers)

    def gradient_buckets(self, bucket_cap_bytes: float = 25 * MIB,
                         ) -> Tuple[Tuple[LayerSpec, ...], ...]:
        """Group gradients into DDP-style fixed-capacity buckets.

        Buckets are filled in backward order (PyTorch DDP semantics): the
        first bucket holds the gradients that become ready first — those
        of the *last* layers.  A bucket is closed once adding the next
        gradient would exceed ``bucket_cap_bytes``; a single gradient
        larger than the cap gets a bucket of its own.

        Returns a tuple of buckets, each a tuple of layers; the final
        bucket is the one whose communication cannot be overlapped with
        computation (the ``b-hat`` term of the paper's performance model).
        """
        if bucket_cap_bytes <= 0:
            raise ConfigurationError(
                f"bucket_cap_bytes must be > 0, got {bucket_cap_bytes}")
        buckets: List[Tuple[LayerSpec, ...]] = []
        current: List[LayerSpec] = []
        current_bytes = 0.0
        for layer in self.backward_layers():
            if layer.num_params == 0:
                continue
            if current and current_bytes + layer.grad_bytes > bucket_cap_bytes:
                buckets.append(tuple(current))
                current, current_bytes = [], 0.0
            current.append(layer)
            current_bytes += layer.grad_bytes
        if current:
            buckets.append(tuple(current))
        return tuple(buckets)

    def bucket_plan(self, bucket_cap_bytes: float = 25 * MIB) -> BucketPlan:
        """The :class:`BucketPlan` of :meth:`gradient_buckets`, built
        once per (spec, cap) and shared."""
        tables = _tables(self)
        plan = tables.plans.get(bucket_cap_bytes)
        if plan is None:
            buckets = self.gradient_buckets(bucket_cap_bytes)
            last = len(self.layers) - 1
            plan = BucketPlan(
                sizes=tuple(float(sum(layer.grad_bytes for layer in bucket))
                            for bucket in buckets),
                # Buckets fill in backward order, so each one's last
                # layer is the one whose gradient closes it.
                close_idx=tuple(last - tables.index[bucket[-1].name]
                                for bucket in buckets))
            tables.plans[bucket_cap_bytes] = plan
        return plan

    def bucket_sizes_bytes(self, bucket_cap_bytes: float = 25 * MIB,
                           ) -> Tuple[float, ...]:
        """Byte size of each gradient bucket, in ready order."""
        return self.bucket_plan(bucket_cap_bytes).sizes

    # ----- misc --------------------------------------------------------------

    def layer_named(self, name: str) -> LayerSpec:
        """Look up a layer by exact name."""
        index = _tables(self).index.get(name)
        if index is None:
            raise ConfigurationError(f"{self.name}: no layer named {name!r}")
        return self.layers[index]

    def summary(self) -> str:
        """Multi-line human-readable summary used by examples and docs."""
        lines = [
            f"model: {self.name}",
            f"  layers:        {len(self.layers)} "
            f"({len(self.trainable_layers)} trainable)",
            f"  parameters:    {self.num_params / 1e6:.1f} M",
            f"  gradient size: {self.grad_bytes / 1e6:.0f} MB (fp32)",
            f"  fwd flops:     "
            f"{self.fwd_flops(1) / 1e9:.2f} GFLOP / sample",
            f"  default batch: {self.default_batch_size}",
        ]
        if self.sample_description:
            lines.append(f"  sample:        {self.sample_description}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class BucketPlan:
    """The DDP bucket layout of one model at one bucket cap.

    Attributes:
        sizes: Byte size of each bucket, in ready order; the last is
            the paper's ``b-hat``.
        close_idx: Backward-order index of each bucket's closing layer,
            whose gradient makes the bucket ready.
    """

    sizes: Tuple[float, ...]
    close_idx: Tuple[int, ...]


class _Tables:
    """Static lookups of one :class:`ModelSpec`, built once per object."""

    def __init__(self, model: ModelSpec) -> None:
        self.backward = tuple(reversed(model.layers))
        self.index = {layer.name: i for i, layer in enumerate(model.layers)}
        self.plans: Dict[float, BucketPlan] = {}


_tables = per_object(_Tables)


def _fields_only(spec: Any) -> Dict[str, object]:
    """Pickle state without ``cached_property`` values, so a pickled
    spec (and every pool job carrying one) has the same size before and
    after use."""
    return {name: spec.__dict__[name] for name in spec.__dataclass_fields__}
