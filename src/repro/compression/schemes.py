"""Compression *schemes*: the metadata face of each method.

A :class:`Scheme` prices one method for a given model and world size —
wire bytes per worker, number of collective messages, encode/decode
seconds, whether all-reduce applies, and the decode working-set unit for
the memory model.  This is what the performance model (§4 of the paper)
and the what-if engine consume; the numeric compressors/aggregators in the
sibling modules carry the actual math.  Each class's ``_price`` is the
one place its method is priced, over the Table-2-calibrated
:class:`~repro.compression.kernel_cost.KernelProfile`.

The two Table-1 columns appear here as :attr:`Scheme.all_reducible` and
:attr:`Scheme.layerwise`; ``benchmarks/test_table1_classification.py``
regenerates the table from these flags and the property tests verify the
``all_reducible`` claims against the numeric implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Optional, Tuple, Type

import numpy as np

from ..errors import ConfigurationError, ReproError
from ..models import ModelSpec
from ..units import FLOAT32_BYTES
from .kernel_cost import (
    KernelProfile,
    fold,
    layer_table,
    layer_terms,
    v100_kernel_profile,
)

#: What a class's formula returns: wire bytes per worker, collective
#: messages and encode+decode seconds (an array under a swept profile).
Price = Tuple[float, int, Any]


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


class Scheme:
    """One gradient compression method, parameterized.

    ``all_reducible`` and ``layerwise`` are the method's Table 1 row,
    declared here once: the registry, the aggregators' codec guards and
    every :class:`SchemeCost` read them from the scheme class.

    A subclass prices its method in :meth:`_price`; :meth:`cost` checks
    the world size and resolves the profile for it.  A subclass may
    instead override :meth:`cost` whole.
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

    def cost(self, model: ModelSpec, world_size: int,
             profile: Optional[KernelProfile] = None) -> SchemeCost:
        """Price this scheme for one model and world size."""
        if world_size < 1:
            raise ConfigurationError(
                f"world_size must be >= 1, got {world_size}")
        wire_bytes, messages, seconds = self._price(
            model, world_size, self._profile(profile))
        return SchemeCost(wire_bytes=wire_bytes, messages=messages,
                          encode_decode_s=seconds,
                          all_reducible=self.all_reducible,
                          gather_stack_bytes=self._stack_bytes(model))

    def _price(self, model: ModelSpec, world_size: int,
               profile: KernelProfile) -> Price:
        """``(wire bytes, messages, encode+decode seconds)`` at a
        checked world size and a resolved profile."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither _price nor cost")

    def _profile(self, profile: Optional[KernelProfile]) -> KernelProfile:
        return profile if profile is not None else v100_kernel_profile()

    def _stack_bytes(self, model: ModelSpec) -> float:
        """Dense-stacking unit for gather decodes (see ModelSpec docs)."""
        if self.all_reducible:
            return 0.0
        if model.gather_granularity == "layer":
            return float(model.largest_layer_grad_bytes)
        return float(model.grad_bytes)

    def __repr__(self) -> str:
        return f"<Scheme {self.label}>"


def _elementwise_s(model: ModelSpec, passes: float,
                   profile: KernelProfile) -> Any:
    """``tensor_overhead + N·passes / elementwise``: the encode+decode
    seconds of a method whose kernels are ``passes`` elementwise sweeps
    over all ``N`` coordinates.  A gather method's decode sweeps each of
    the ``p`` received payloads, so its ``passes`` grows with ``p``."""
    return (profile.tensor_overhead_s
            + model.num_params * passes / profile.elementwise_elems_per_s)


class SyncSGDScheme(Scheme):
    """The baseline: dense fp32 gradients, ring all-reduce, zero encode
    cost.  Bucketing/overlap are applied by the DDP performance model,
    not here."""

    name = "syncsgd"
    all_reducible = True

    def _price(self, model, world_size, profile):
        return float(model.grad_bytes), 1, 0.0


class FP16Scheme(Scheme):
    """Half-precision communication: 2x reduction, near-free encode.

    The cast is cheap enough to run inside the DDP bucket hook, so fp16
    keeps communication/computation overlap — which is exactly why the
    paper's first finding recommends it over aggressive compression.
    It costs two elementwise passes, cast down and cast up, and no ``p``
    term: the all-reduce sums halves directly.
    """

    name = "fp16"
    all_reducible = True
    ddp_overlap = True

    def _price(self, model, world_size, profile):
        return model.grad_bytes / 2.0, 1, _elementwise_s(model, 2.0, profile)


class PowerSGDScheme(Scheme):
    """PowerSGD(rank): low-rank P/Q factors, all-reduce compatible, two
    messages; non-matrix parameters (biases, norms) travel uncompressed.

    Per matrix layer ``(m, n)`` with effective rank ``r' = min(r, m, n)``
    it sends ``r'·(m+n)`` fp32 values plus the layer's extras, and costs
    one launch, ``6·m·n·r'`` matmul FLOPs (two power-iteration products
    and the reconstruction) and ``(m+n)·r'^2`` orthogonalization work.
    The uncompressed rest costs one elementwise pass.
    """

    name = "powersgd"
    all_reducible = True

    def __init__(self, rank: int = 4):
        self.rank = check_count("rank", rank)

    @property
    def label(self) -> str:
        return f"powersgd(rank={self.rank})"

    @staticmethod
    def _wire(table, ranked) -> float:
        """The wire bytes above, folded in layer order (computed once
        per rank by ``layer_table(model).wire``)."""
        mask = table.is_matrix
        return fold(np.stack((
            np.where(mask, ranked.layer_r * (table.m + table.n), table.params),
            np.where(mask, table.extra, 0)), axis=1).ravel() * FLOAT32_BYTES)

    def _price(self, model, world_size, profile):
        table = layer_table(model)
        ranked = table.rank(self.rank)
        encode = layer_terms(profile.tensor_overhead_s,
                             (ranked.matmul, profile.matmul_flops_per_s),
                             (ranked.orth, profile.orth_elems_per_s))
        return (table.wire(self._wire, self.rank), 2,
                encode + table.uncompressed / profile.elementwise_elems_per_s)


def _sparse_price(model: ModelSpec, fraction: float, world_size: int,
                  profile: KernelProfile, scan_s: Any) -> Price:
    """Top-K's price (:class:`TopKScheme`) after a ``scan_s``-second
    launch and pass that finds the ``f·N`` values to send."""
    selected = fraction * model.num_params
    index_bytes = 4 if model.num_params < 2**31 else 8
    encode = scan_s + selected / profile.pack_elems_per_s
    decode = selected * world_size / profile.pack_elems_per_s
    return selected * (FLOAT32_BYTES + index_bytes), 2, encode + decode


class TopKScheme(Scheme):
    """Top-K sparsification: values + indices, all-gather aggregation.

    It costs one selection scan over all ``N`` coordinates, a pack of the
    ``f·N`` selected values and, because aggregation is an all-gather, a
    scatter-accumulate of ``f·N`` values per received payload: ``f·N·p``
    on the decode side.  This is why Table 2's Top-K numbers barely
    depend on ``f``: the ``N``-sized scan dominates.
    """

    name = "topk"

    def __init__(self, fraction: float = 0.01):
        self.fraction = check_fraction(fraction)

    @property
    def label(self) -> str:
        return f"topk({self.fraction:.0%})"

    def _price(self, model, world_size, profile):
        return _sparse_price(
            model, self.fraction, world_size, profile,
            profile.tensor_overhead_s
            + model.num_params / profile.select_elems_per_s)


class DGCScheme(TopKScheme):
    """Deep Gradient Compression: threshold sparsification, values +
    indices via all-gather — Top-K's wire format at a sampled
    threshold's cheaper encode: an elementwise threshold mask and a
    quantile of a 1% sample replace Top-K's selection scan."""

    name = "dgc"

    def __init__(self, fraction: float = 0.001):
        super().__init__(fraction)

    @property
    def label(self) -> str:
        return f"dgc({self.fraction:.1%})"

    def _price(self, model, world_size, profile):
        numel = model.num_params
        return _sparse_price(
            model, self.fraction, world_size, profile,
            profile.tensor_overhead_s
            + numel / profile.elementwise_elems_per_s  # threshold mask
            + 0.01 * numel / profile.select_elems_per_s)  # sampled quantile


class SignSGDScheme(Scheme):
    """signSGD with majority vote: 1 bit per coordinate, all-gather.

    One elementwise pass signs and packs, and the vote sweeps all ``p``
    unpacked sign vectors: ``N·(1+p)`` elementwise work, the
    linear-in-``p`` decode the paper's BERT OOM/slowdown notes describe.
    """

    name = "signsgd"

    def _price(self, model, world_size, profile):
        return (math.ceil(model.num_params / 8.0), 1,
                _elementwise_s(model, 1.0 + world_size, profile))


class QSGDScheme(Scheme):
    """QSGD with ``levels`` quantization buckets, fixed-width coding:
    ~3 elementwise passes normalize, round and pack, then one
    dequantize pass per gathered payload."""

    name = "qsgd"

    def __init__(self, levels: int = 16):
        self.levels = check_count("levels", levels)

    @property
    def label(self) -> str:
        return f"qsgd(levels={self.levels})"

    def _price(self, model, world_size, profile):
        bits = 1.0 + math.ceil(math.log2(self.levels + 1))
        return (model.num_params * bits / 8.0 + FLOAT32_BYTES, 1,
                _elementwise_s(model, 3.0 + world_size, profile))


class TernGradScheme(Scheme):
    """TernGrad: 2 bits per coordinate plus a scale, all-gather; ~2
    elementwise passes encode, one per payload decodes."""

    name = "terngrad"

    def _price(self, model, world_size, profile):
        return (model.num_params / 4.0 + FLOAT32_BYTES, 1,
                _elementwise_s(model, 2.0 + world_size, profile))


class OneBitScheme(Scheme):
    """1-bit SGD: bit mask plus two centroids per tensor, all-gather;
    two passes encode (threshold, then the means), one unpack per
    payload decodes."""

    name = "onebit"

    def _price(self, model, world_size, profile):
        return (math.ceil(model.num_params / 8.0) + 2 * FLOAT32_BYTES, 1,
                _elementwise_s(model, 2.0 + world_size, profile))


class ATOMOScheme(Scheme):
    """ATOMO with SVD atoms: like PowerSGD sizes plus singular values,
    but per-worker factors do not align, so all-gather + expensive SVD:
    a full SVD per matrix layer, plus a rank-``r`` reconstruction per
    gathered payload."""

    name = "atomo"

    def __init__(self, rank: int = 4):
        self.rank = check_count("rank", rank)

    @property
    def label(self) -> str:
        return f"atomo(rank={self.rank})"

    @staticmethod
    def _wire(table, ranked) -> float:
        """The wire bytes above, folded in layer order (computed once
        per rank by ``layer_table(model).wire``)."""
        return fold(np.where(
            table.is_matrix,
            ranked.layer_r * (table.m + table.n + 1) + table.extra,
            table.params) * FLOAT32_BYTES)

    def _price(self, model, world_size, profile):
        table = layer_table(model)
        ranked = table.rank(self.rank)
        return table.wire(self._wire, self.rank), 3, layer_terms(
            profile.tensor_overhead_s, (table.svd, profile.svd_flops_per_s),
            (ranked.atomo_recon * world_size, profile.matmul_flops_per_s))


class RandomKScheme(Scheme):
    """Shared-seed Random-K: values only, all-reduce compatible, but the
    shared draw spans the whole flat gradient (not layer-wise — Table 1).
    It costs a gather and a scatter of ``f·N`` values; the index draw is
    a counter-based RNG pass over the selection only.  No ``p`` term —
    aggregation all-reduces."""

    name = "randomk"
    all_reducible = True
    layerwise = False

    def __init__(self, fraction: float = 0.01):
        self.fraction = check_fraction(fraction)

    @property
    def label(self) -> str:
        return f"randomk({self.fraction:.0%})"

    def _price(self, model, world_size, profile):
        selected = self.fraction * model.num_params
        return (selected * FLOAT32_BYTES, 1,
                profile.tensor_overhead_s
                + 3.0 * selected / profile.pack_elems_per_s)


class GradiVeqScheme(Scheme):
    """GradiVeq-style shared-basis projection: linear (all-reducible)
    and layer-wise — Table 1's other "yes/yes" row besides PowerSGD.
    Encode and decode are two dense products against the shared basis:
    ``4·N·dims`` FLOPs in all."""

    name = "gradiveq"
    all_reducible = True

    def __init__(self, block: int = 512, dims: int = 64):
        self.block, self.dims = check_projection(block, dims)

    @property
    def label(self) -> str:
        return f"gradiveq({self.block}->{self.dims})"

    def _price(self, model, world_size, profile):
        blocks = math.ceil(model.num_params / self.block)
        return (blocks * self.dims * FLOAT32_BYTES, 1,
                profile.tensor_overhead_s
                + 4.0 * model.num_params * self.dims
                / profile.matmul_flops_per_s)


class NaturalScheme(Scheme):
    """Natural compression [30]: sign + 8-bit exponent per value (~3.6x),
    unbiased, nearly-free encode, but exponent payloads do not sum —
    all-gather aggregation.  Its passes are QSGD's: three to encode, one
    per gathered payload to decode."""

    name = "natural"

    def _price(self, model, world_size, profile):
        return (model.num_params * 9.0 / 8.0, 1,
                _elementwise_s(model, 3.0 + world_size, profile))


class EFSignScheme(Scheme):
    """EF-signSGD [35]: signSGD's wire format plus a scale, with error
    feedback restoring convergence; still all-gather-bound, at
    signSGD's ``1 + p`` elementwise passes."""

    name = "efsignsgd"

    def _price(self, model, world_size, profile):
        return (math.ceil(model.num_params / 8.0) + FLOAT32_BYTES, 1,
                _elementwise_s(model, 1.0 + world_size, profile))
