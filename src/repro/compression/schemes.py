"""Compression *schemes*: the metadata face of each method.

A :class:`Scheme` prices one method for a given model and world size —
wire bytes per worker, number of collective messages, encode/decode
seconds, whether all-reduce applies, and the decode working-set unit for
the memory model.  This is what the performance model (§4 of the paper)
and the what-if engine consume; the numeric compressors/aggregators in the
sibling modules carry the actual math.

The two Table-1 columns appear here as :attr:`Scheme.all_reducible` and
:attr:`Scheme.layerwise`; ``benchmarks/test_table1_classification.py``
regenerates the table from these flags and the property tests verify the
``all_reducible`` claims against the numeric implementations.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Optional, Tuple, Type

import numpy as np

from ..errors import ConfigurationError, ReproError
from ..models import ModelSpec
from ..units import FLOAT32_BYTES
from . import kernel_cost as kc
from .kernel_cost import KernelProfile, v100_kernel_profile


def _any_below(value: Any, bound: float, or_equal: bool = False) -> bool:
    """Whether a scalar, or any element of an array, is below ``bound``
    (or equal to it).  The grid engine (repro.core.grid) prices schemes
    with array-valued kernel profiles, making ``encode_decode_s`` an
    array along the swept axis; scalars skip the array round trip."""
    if not isinstance(value, (int, float)):
        value = np.asarray(value)
        return bool(np.any(value <= bound if or_equal else value < bound))
    return value <= bound if or_equal else value < bound


def check_fraction(fraction: Any,
                   error: Type[ReproError] = ConfigurationError) -> Any:
    """``fraction`` if it is a real number in ``(0, 1]``; otherwise
    raise ``error`` (the codecs pass :class:`CompressionError`)."""
    if (isinstance(fraction, bool) or not isinstance(fraction, Real)
            or not 0 < fraction <= 1):
        raise error(f"fraction must be in (0, 1], got {fraction}")
    return fraction


def check_count(name: str, value: Any, minimum: int = 1,
                error: Type[ReproError] = ConfigurationError) -> Any:
    """``value`` if it is an integer of at least ``minimum``: a rank,
    level count or block length of 2.5 is a bad spec, not a price."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def check_projection(block: Any, dims: Any,
                     error: Type[ReproError] = ConfigurationError,
                     ) -> Tuple[Any, Any]:
    """``(block, dims)`` of a GradiVeq projection: two counts, with no
    more dimensions than the block has elements."""
    check_count("block", block, error=error)
    check_count("dims", dims, error=error)
    if dims > block:
        raise error(f"dims ({dims}) cannot exceed block length ({block})")
    return block, dims


@dataclass(frozen=True)
class SchemeCost:
    """What one method costs for one (model, world size) pair.

    Attributes:
        wire_bytes: Per-worker payload bytes for the whole gradient.
        messages: Number of collective invocations (each pays its own
            latency term — PowerSGD pays two, for P then Q).
        encode_decode_s: Total compression + decompression seconds per
            iteration (includes the linear-in-p decode for gather
            methods).
        all_reducible: Whether the payloads aggregate via all-reduce.
        gather_stack_bytes: Bytes of *dense* gradient the decode path
            materializes per received payload (0 for all-reduce methods);
            multiplied by the world size this is the aggregation working
            set that OOMs BERT past 32 GPUs in the paper.
    """

    wire_bytes: float
    messages: int
    encode_decode_s: float
    all_reducible: bool
    gather_stack_bytes: float

    def __post_init__(self) -> None:
        if _any_below(self.wire_bytes, 0, or_equal=True):
            raise ConfigurationError(
                f"scheme produced non-positive wire bytes "
                f"({self.wire_bytes})")
        if not isinstance(self.messages, int) or self.messages < 1:
            raise ConfigurationError(
                f"messages must be a positive integer, got "
                f"{self.messages!r}")
        if _any_below(self.encode_decode_s, 0):
            raise ConfigurationError(
                f"encode_decode_s must be >= 0, got {self.encode_decode_s}")
        if _any_below(self.gather_stack_bytes, 0):
            raise ConfigurationError(
                f"gather_stack_bytes must be >= 0, "
                f"got {self.gather_stack_bytes}")

    def compression_ratio(self, model: ModelSpec) -> float:
        """Dense gradient bytes over wire bytes."""
        return model.grad_bytes / self.wire_bytes

    def aggregation_working_set(self, world_size: int) -> float:
        """Decode working set at ``world_size`` workers."""
        return self.gather_stack_bytes * world_size


class Scheme(abc.ABC):
    """One gradient compression method, parameterized.

    ``all_reducible`` and ``layerwise`` are the method's Table 1 row,
    declared here once: the registry, the aggregators' codec guards and
    every :class:`SchemeCost` read them from the scheme class.
    """

    name: str = "abstract"
    all_reducible: bool = False
    layerwise: bool = True
    #: Whether the method composes with DDP's per-bucket overlap: it must
    #: be all-reducible, layer-wise, *and* have negligible per-bucket
    #: encode cost, so it can run inside the communication hook without
    #: the §3.1 contention (only fp16 qualifies among the built-ins).
    ddp_overlap: bool = False

    @property
    def label(self) -> str:
        """Display label, e.g. ``"powersgd(rank=4)"``."""
        return self.name

    @abc.abstractmethod
    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        """Price this scheme for one model and world size."""

    def _profile(self, profile: Optional[KernelProfile]) -> KernelProfile:
        return profile if profile is not None else v100_kernel_profile()

    def _cost(self, model: ModelSpec, wire_bytes: float, messages: int,
              encode_decode_s: Any) -> SchemeCost:
        """A :class:`SchemeCost` whose all-reduce flag and decode stack
        come from this scheme's class."""
        return SchemeCost(wire_bytes=wire_bytes, messages=messages,
                          encode_decode_s=encode_decode_s,
                          all_reducible=self.all_reducible,
                          gather_stack_bytes=self._stack_bytes(model))

    def _stack_bytes(self, model: ModelSpec) -> float:
        """Dense-stacking unit for gather decodes (see ModelSpec docs)."""
        if self.all_reducible:
            return 0.0
        if model.gather_granularity == "layer":
            return float(model.largest_layer_grad_bytes)
        return float(model.grad_bytes)

    def __repr__(self) -> str:
        return f"<Scheme {self.label}>"


class SyncSGDScheme(Scheme):
    """The baseline: dense fp32 gradients, ring all-reduce, zero encode
    cost.  Bucketing/overlap are applied by the DDP performance model,
    not here."""

    name = "syncsgd"
    all_reducible = True

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(model, float(model.grad_bytes), 1, 0.0)


class FP16Scheme(Scheme):
    """Half-precision communication: 2x reduction, near-free encode.

    The cast is cheap enough to run inside the DDP bucket hook, so fp16
    keeps communication/computation overlap — which is exactly why the
    paper's first finding recommends it over aggressive compression.
    """

    name = "fp16"
    all_reducible = True
    ddp_overlap = True

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, model.grad_bytes / 2.0, 1,
            kc.fp16_encode_decode_time(model, self._profile(profile)))


class PowerSGDScheme(Scheme):
    """PowerSGD(rank): low-rank P/Q factors, all-reduce compatible, two
    messages; non-matrix parameters (biases, norms) travel uncompressed."""

    name = "powersgd"
    all_reducible = True

    def __init__(self, rank: int = 4):
        self.rank = check_count("rank", rank)

    @property
    def label(self) -> str:
        return f"powersgd(rank={self.rank})"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, kc.powersgd_wire_bytes(model, self.rank), 2,
            kc.powersgd_encode_decode_time(
                model, self.rank, self._profile(profile)))


class TopKScheme(Scheme):
    """Top-K sparsification: values + indices, all-gather aggregation."""

    name = "topk"
    #: The encode+decode kernel, per (model, fraction, profile, p).
    _encode_decode = staticmethod(kc.topk_encode_decode_time)

    def __init__(self, fraction: float = 0.01):
        self.fraction = check_fraction(fraction)

    @property
    def label(self) -> str:
        return f"topk({self.fraction:.0%})"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        selected = self.fraction * model.num_params
        index_bytes = 4 if model.num_params < 2**31 else 8
        return self._cost(
            model, selected * (FLOAT32_BYTES + index_bytes), 2,
            self._encode_decode(model, self.fraction,
                                self._profile(profile), world_size))


class DGCScheme(TopKScheme):
    """Deep Gradient Compression: threshold sparsification, values +
    indices via all-gather — Top-K's wire format at a sampled
    threshold's cheaper encode."""

    name = "dgc"
    _encode_decode = staticmethod(kc.dgc_encode_decode_time)

    def __init__(self, fraction: float = 0.001):
        super().__init__(fraction)

    @property
    def label(self) -> str:
        return f"dgc({self.fraction:.1%})"


class SignSGDScheme(Scheme):
    """signSGD with majority vote: 1 bit per coordinate, all-gather."""

    name = "signsgd"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, math.ceil(model.num_params / 8.0), 1,
            kc.signsgd_encode_decode_time(
                model, self._profile(profile), world_size))


class QSGDScheme(Scheme):
    """QSGD with ``levels`` quantization buckets, fixed-width coding."""

    name = "qsgd"

    def __init__(self, levels: int = 16):
        self.levels = check_count("levels", levels)

    @property
    def label(self) -> str:
        return f"qsgd(levels={self.levels})"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        bits = 1.0 + math.ceil(math.log2(self.levels + 1))
        return self._cost(
            model, model.num_params * bits / 8.0 + FLOAT32_BYTES, 1,
            kc.qsgd_encode_decode_time(
                model, self._profile(profile), world_size))


class TernGradScheme(Scheme):
    """TernGrad: 2 bits per coordinate plus a scale, all-gather."""

    name = "terngrad"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, model.num_params / 4.0 + FLOAT32_BYTES, 1,
            kc.terngrad_encode_decode_time(
                model, self._profile(profile), world_size))


class OneBitScheme(Scheme):
    """1-bit SGD: bit mask plus two centroids per tensor, all-gather."""

    name = "onebit"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, math.ceil(model.num_params / 8.0) + 2 * FLOAT32_BYTES, 1,
            kc.onebit_encode_decode_time(
                model, self._profile(profile), world_size))


class ATOMOScheme(Scheme):
    """ATOMO with SVD atoms: like PowerSGD sizes plus singular values,
    but per-worker factors do not align, so all-gather + expensive SVD."""

    name = "atomo"

    def __init__(self, rank: int = 4):
        self.rank = check_count("rank", rank)

    @property
    def label(self) -> str:
        return f"atomo(rank={self.rank})"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, kc.atomo_wire_bytes(model, self.rank), 3,
            kc.atomo_encode_decode_time(
                model, self.rank, self._profile(profile), world_size))


class RandomKScheme(Scheme):
    """Shared-seed Random-K: values only, all-reduce compatible, but the
    shared draw spans the whole flat gradient (not layer-wise — Table 1)."""

    name = "randomk"
    all_reducible = True
    layerwise = False

    def __init__(self, fraction: float = 0.01):
        self.fraction = check_fraction(fraction)

    @property
    def label(self) -> str:
        return f"randomk({self.fraction:.0%})"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, self.fraction * model.num_params * FLOAT32_BYTES, 1,
            kc.randomk_encode_decode_time(
                model, self.fraction, self._profile(profile)))


class GradiVeqScheme(Scheme):
    """GradiVeq-style shared-basis projection: linear (all-reducible)
    and layer-wise — Table 1's other "yes/yes" row besides PowerSGD."""

    name = "gradiveq"
    all_reducible = True

    def __init__(self, block: int = 512, dims: int = 64):
        self.block, self.dims = check_projection(block, dims)

    @property
    def label(self) -> str:
        return f"gradiveq({self.block}->{self.dims})"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        blocks = math.ceil(model.num_params / self.block)
        return self._cost(
            model, blocks * self.dims * FLOAT32_BYTES, 1,
            kc.gradiveq_encode_decode_time(
                model, self.block, self.dims, self._profile(profile)))


class NaturalScheme(Scheme):
    """Natural compression [30]: sign + 8-bit exponent per value (~3.6x),
    unbiased, nearly-free encode, but exponent payloads do not sum —
    all-gather aggregation."""

    name = "natural"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, model.num_params * 9.0 / 8.0, 1,
            kc.qsgd_encode_decode_time(  # same elementwise structure
                model, self._profile(profile), world_size))


class EFSignScheme(Scheme):
    """EF-signSGD [35]: signSGD's wire format plus a scale, with error
    feedback restoring convergence; still all-gather-bound."""

    name = "efsignsgd"

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        return self._cost(
            model, math.ceil(model.num_params / 8.0) + FLOAT32_BYTES, 1,
            kc.signsgd_encode_decode_time(
                model, self._profile(profile), world_size))
