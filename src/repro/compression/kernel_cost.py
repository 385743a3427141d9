"""Encode/decode time model for compression kernels.

The paper's Table 2 measures ``T_encode-decode`` on V100s for ResNet-50 at
4 machines (16 GPUs): PowerSGD rank 4/8/16 = 45/64/130 ms, Top-K
20/10/1 % = 295/289/240 ms, signSGD = 16.34 ms.  We turn those
measurements into a *mechanistic* cost model — per-tensor kernel-launch
overheads, skinny-matmul throughput, orthogonalization throughput,
selection and elementwise throughputs — by solving for the constants that
make the model reproduce Table 2 exactly on our ResNet-50 spec.  The same
constants then generalize to other models (ResNet-101, BERT) and other
ranks/fractions, which is how the paper itself extrapolates.

Structure of each method's cost (all per iteration, seconds):

* **PowerSGD(r)**, per matrix layer ``(m, n)`` with effective rank
  ``r' = min(r, m, n)``: one fixed launch overhead, ``6·m·n·r'`` matmul
  FLOPs (two power-iteration products + reconstruction), and
  ``(m+n)·r'^2`` orthogonalization work.  Extra (non-matrix) parameters
  are charged one elementwise pass.
* **Top-K(f)**: one selection scan over all ``N`` elements, plus
  gather/pack of ``f·N`` selected values, plus — because aggregation is
  an all-gather — a scatter-accumulate of ``f·N`` values *per received
  payload*, i.e. ``f·N·p`` on the decode side.  This is why Table 2's
  Top-K numbers barely depend on ``f``: the ``N``-sized scan dominates.
* **signSGD**: one elementwise pass to sign+pack, and a vote pass over
  all ``p`` unpacked sign vectors — ``N·(1+p)`` elementwise work, the
  linear-in-``p`` decode the paper's BERT OOM/slowdown notes describe.

The profile scales linearly with GPU speed (`scaled`), which is exactly
the assumption the paper's Figure 12 what-if makes ("as compute gets
faster, the encode-decode time also reduces by the same factor").

The layer-walking costs (PowerSGD, ATOMO and the hybrid policy's wire
bytes and encode time) read one table per model spec: its trainable
layers' shapes as arrays, plus per-rank work arrays, built once
(:func:`repro.memo.per_object`).  A cost call divides the work arrays by
the profile's throughputs and folds the per-layer terms with a
sequential ``cumsum`` in the per-layer loop's order, so every result —
scalar, or array-valued under the grid's swept profiles — equals the
loop's left-to-right float sum bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..collectives.cost import validate_bound
from ..errors import CalibrationError, ConfigurationError
from ..memo import per_object
from ..models import ModelSpec, get_model
from ..units import FLOAT32_BYTES, seconds_from_ms

#: Table 2 of the paper: the calibration targets (ms).
TABLE2_POWERSGD_MS = {4: 45.0, 8: 64.0, 16: 130.0}
TABLE2_TOPK_MS = {0.20: 295.0, 0.10: 289.0, 0.01: 240.0}
TABLE2_SIGNSGD_MS = 16.34
#: Table 2 was measured on 4 p3.8xlarge machines = 16 GPUs.
TABLE2_WORLD_SIZE = 16


@dataclass(frozen=True)
class KernelProfile:
    """Throughput constants for compression kernels on one GPU.

    Attributes:
        name: Which GPU the constants describe.
        tensor_overhead_s: Fixed cost per compressed tensor (kernel
            launches, shape bookkeeping).
        matmul_flops_per_s: Effective throughput of the skinny matrix
            products low-rank methods perform (far below peak: tall-thin
            GEMMs underutilize the GPU).
        orth_elems_per_s: Orthogonalization throughput, in ``(m+n)``
            elements per ``r^2`` unit of work.
        select_elems_per_s: Top-K selection-scan throughput.
        pack_elems_per_s: Gather/scatter/pack throughput per selected
            element.
        elementwise_elems_per_s: Sign/quantize/cast kernel throughput.
        svd_flops_per_s: Dense SVD throughput (ATOMO); far below matmul.
    """

    name: str
    tensor_overhead_s: float
    matmul_flops_per_s: float
    orth_elems_per_s: float
    select_elems_per_s: float
    pack_elems_per_s: float
    elementwise_elems_per_s: float
    svd_flops_per_s: float

    def __post_init__(self) -> None:
        for field_name in ("tensor_overhead_s", "matmul_flops_per_s",
                           "orth_elems_per_s", "select_elems_per_s",
                           "pack_elems_per_s", "elementwise_elems_per_s",
                           "svd_flops_per_s"):
            # np.any instead of a plain comparison: the grid engine
            # (repro.core.grid) carries a compute-factor *axis* through
            # these fields as NumPy arrays.
            if np.any(np.asarray(getattr(self, field_name)) <= 0):
                raise ConfigurationError(
                    f"{self.name}: {field_name} must be > 0, "
                    f"got {getattr(self, field_name)}")

    def scaled(self, compute_factor) -> "KernelProfile":
        """A profile for hardware ``compute_factor`` times faster.

        ``compute_factor`` may be an array — the grid's compute-factor
        axis — and then every throughput field becomes an array of the
        same per-cell products, so each cell equals the scalar call.
        Only the name differs: ``-x{factor}`` for a scalar, ``-grid``
        for an array (``{:g}`` cannot format one).
        """
        validate_bound("compute_factor", compute_factor, 0, strict=True)
        suffix = ("grid" if isinstance(compute_factor, np.ndarray)
                  else f"x{compute_factor:g}")
        return replace(
            self,
            name=f"{self.name}-{suffix}",
            tensor_overhead_s=self.tensor_overhead_s / compute_factor,
            matmul_flops_per_s=self.matmul_flops_per_s * compute_factor,
            orth_elems_per_s=self.orth_elems_per_s * compute_factor,
            select_elems_per_s=self.select_elems_per_s * compute_factor,
            pack_elems_per_s=self.pack_elems_per_s * compute_factor,
            elementwise_elems_per_s=self.elementwise_elems_per_s * compute_factor,
            svd_flops_per_s=self.svd_flops_per_s * compute_factor,
        )


# ----- per-model layer tables ------------------------------------------------


def _fold(terms: np.ndarray) -> Any:
    """``0.0`` plus every term along axis 0, in order: what a loop over
    layers adding each term to a running float computes.

    Integer terms become floats first, as ``float += int`` converts
    them.  A 1-D fold is a ``cumsum``, which accumulates strictly in
    sequence, so its last partial sum is the loop's sum bit for bit
    (returned as a Python float).  Trailing axes (the grid's swept
    profile axes) are folded elementwise, one layer row at a time:
    ``cumsum`` along the leading axis of a wide grid is several times
    slower than the row loop.
    """
    if terms.shape[0] == 0:
        return 0.0
    if terms.ndim == 1:
        return float(np.cumsum(terms, dtype=float)[-1])
    total = terms[0].astype(float)
    for row in terms[1:]:
        total += row
    return total


def _layer_terms(overhead: Any, *work: Tuple[np.ndarray, Any]) -> Any:
    """Per-layer ``overhead, work / throughput, ...`` terms, folded
    layer by layer in that order.

    ``work`` pairs a per-layer array with the profile throughput that
    divides it.  Profile fields may be scalars or the grid's swept
    arrays; the layer axis goes in front of all of them.
    """
    swept = np.broadcast_shapes(np.shape(overhead),
                                *(np.shape(rate) for _, rate in work))
    layers = work[0][0].size
    terms = np.empty((layers, 1 + len(work)) + swept)
    terms[:, 0] = overhead
    for column, (values, rate) in enumerate(work, start=1):
        terms[:, column] = values.reshape((layers,) + (1,) * len(swept)) / rate
    return _fold(terms.reshape((-1,) + swept))


class _RankTable:
    """One model's work at one rank: per matrix layer, the effective
    rank ``r' = min(r, m, n)`` and the FLOPs it costs; and the wire
    bytes of the low-rank schemes."""

    def __init__(self, table: "_LayerTable", rank: int) -> None:
        m, n = table.mat_m, table.mat_n
        # No layer's side exceeds the widest one, so capping the rank
        # there changes no r' and keeps a huge rank within int64.
        rank = min(rank, int(m.max(initial=1)))
        self.r = np.maximum(1, np.minimum(np.minimum(rank, m), n))
        self.matmul = 6.0 * m * n * self.r
        self.orth = (m + n) * self.r * self.r
        self.atomo_recon = 2.0 * m * n * self.r
        mask = table.is_matrix
        r = np.ones_like(table.params)
        r[mask] = self.r
        dense = table.params * FLOAT32_BYTES
        self.powersgd_wire = _fold(np.stack((
            np.where(mask, r * (table.m + table.n) * FLOAT32_BYTES, dense),
            np.where(mask, table.extra * FLOAT32_BYTES, 0)), axis=1).ravel())
        self.atomo_wire = _fold(np.where(
            mask, (r * (table.m + table.n + 1) + table.extra) * FLOAT32_BYTES,
            dense))


class _LayerTable:
    """One model's trainable layers as arrays, in layer order."""

    def __init__(self, model: ModelSpec) -> None:
        layers = model.trainable_layers
        self.is_matrix = np.array([layer.has_matrix for layer in layers],
                                  dtype=bool)
        shapes = np.array([layer.matrix_shape for layer in layers],
                          dtype=np.int64).reshape(-1, 2)
        self.m, self.n = shapes[:, 0], shapes[:, 1]
        self.extra = np.array([layer.extra_params for layer in layers],
                              dtype=np.int64)
        self.params = np.array([layer.num_params for layer in layers],
                               dtype=np.int64)
        self.mat_m = self.m[self.is_matrix]
        self.mat_n = self.n[self.is_matrix]
        self.svd = (8.0 * self.mat_m * self.mat_n
                    * np.minimum(self.mat_m, self.mat_n))
        #: Parameters PowerSGD sends uncompressed: matrix layers'
        #: extras and every non-matrix layer.
        self.uncompressed = int(self.extra[self.is_matrix].sum()
                                + self.params[~self.is_matrix].sum())
        self.ranks: Dict[int, _RankTable] = {}

    def rank(self, rank: int) -> _RankTable:
        """The work at ``rank`` (built once per rank)."""
        if rank < 1:
            raise ConfigurationError(f"rank must be >= 1, got {rank}")
        table = self.ranks.get(rank)
        if table is None:
            table = self.ranks[rank] = _RankTable(self, rank)
        return table


_layer_table = per_object(_LayerTable)


# ----- per-method cost functions ---------------------------------------------


def powersgd_wire_bytes(model: ModelSpec, rank: int) -> float:
    """PowerSGD(rank) payload bytes: P/Q factors of every matrix layer,
    its extras and every non-matrix layer in fp32."""
    return _layer_table(model).rank(rank).powersgd_wire


def atomo_wire_bytes(model: ModelSpec, rank: int) -> float:
    """ATOMO(rank) payload bytes: rank-``r`` atoms plus singular values
    per matrix layer, non-matrix layers in fp32."""
    return _layer_table(model).rank(rank).atomo_wire


def hybrid_powersgd_cost(model: ModelSpec, rank: int, min_layer_params: int,
                         profile: KernelProfile) -> Tuple[float, Any, int]:
    """``(wire bytes, encode+decode seconds, compressed layer count)``
    of PowerSGD on the matrix layers with at least
    ``min_layer_params`` parameters, the rest sent dense in fp32."""
    table = _layer_table(model)
    ranked = table.rank(rank)
    # Capped one above the largest layer (the same choice, within int64).
    threshold = min(min_layer_params, int(table.params.max(initial=0)) + 1)
    chosen = table.is_matrix & (table.params >= threshold)
    on = chosen[table.is_matrix]
    dense = int(table.params[~chosen].sum())
    wire = (ranked.r[on] * (table.mat_m[on] + table.mat_n[on])
            + table.extra[chosen]) * FLOAT32_BYTES
    encode = _layer_terms(
        profile.tensor_overhead_s,
        (ranked.matmul[on], profile.matmul_flops_per_s),
        (ranked.orth[on], profile.orth_elems_per_s))
    return (_fold(wire) + dense * FLOAT32_BYTES,
            encode + dense / profile.elementwise_elems_per_s,
            int(on.sum()))


def powersgd_encode_decode_time(model: ModelSpec, rank: int,
                                profile: KernelProfile) -> float:
    """PowerSGD encode+decode seconds for one iteration: per matrix
    layer a launch, ``6·m·n·r'`` matmul FLOPs and ``(m+n)·r'^2``
    orthogonalization; one elementwise pass over the rest."""
    table = _layer_table(model)
    ranked = table.rank(rank)
    total = _layer_terms(profile.tensor_overhead_s,
                         (ranked.matmul, profile.matmul_flops_per_s),
                         (ranked.orth, profile.orth_elems_per_s))
    return total + table.uncompressed / profile.elementwise_elems_per_s


def topk_encode_decode_time(model: ModelSpec, fraction: float,
                            profile: KernelProfile,
                            world_size: int) -> float:
    """Top-K encode+decode seconds: selection scan + pack + per-payload
    scatter on the all-gather decode path (linear in ``world_size``)."""
    if not 0 < fraction <= 1:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    _check_world(world_size)
    numel = model.num_params
    selected = fraction * numel
    encode = (profile.tensor_overhead_s
              + numel / profile.select_elems_per_s
              + selected / profile.pack_elems_per_s)
    decode = selected * world_size / profile.pack_elems_per_s
    return encode + decode


def signsgd_encode_decode_time(model: ModelSpec, profile: KernelProfile,
                               world_size: int) -> float:
    """signSGD encode+decode seconds: one sign/pack pass, then a majority
    vote over all ``p`` gathered sign vectors."""
    _check_world(world_size)
    numel = model.num_params
    return (profile.tensor_overhead_s
            + numel * (1.0 + world_size) / profile.elementwise_elems_per_s)


def fp16_encode_decode_time(model: ModelSpec,
                            profile: KernelProfile) -> float:
    """fp16 cast down + cast up: two elementwise passes, no p term
    (the all-reduce sums halves directly)."""
    return (profile.tensor_overhead_s
            + 2.0 * model.num_params / profile.elementwise_elems_per_s)


def qsgd_encode_decode_time(model: ModelSpec, profile: KernelProfile,
                            world_size: int) -> float:
    """QSGD: ~3 elementwise passes to normalize/round/pack, then a
    dequantize pass per gathered payload."""
    _check_world(world_size)
    numel = model.num_params
    return (profile.tensor_overhead_s
            + numel * (3.0 + world_size) / profile.elementwise_elems_per_s)


def terngrad_encode_decode_time(model: ModelSpec, profile: KernelProfile,
                                world_size: int) -> float:
    """TernGrad: ~2 elementwise passes encode, one per payload decode."""
    _check_world(world_size)
    numel = model.num_params
    return (profile.tensor_overhead_s
            + numel * (2.0 + world_size) / profile.elementwise_elems_per_s)


def onebit_encode_decode_time(model: ModelSpec, profile: KernelProfile,
                              world_size: int) -> float:
    """1-bit SGD: two passes encode (threshold + means), per-payload
    unpack on decode."""
    _check_world(world_size)
    numel = model.num_params
    return (profile.tensor_overhead_s
            + numel * (2.0 + world_size) / profile.elementwise_elems_per_s)


def randomk_encode_decode_time(model: ModelSpec, fraction: float,
                               profile: KernelProfile) -> float:
    """Shared-seed Random-K: gather + scatter of ``f·N`` values; the
    index draw is a counter-based RNG pass over the selection only.  No
    ``p`` term — aggregation all-reduces."""
    if not 0 < fraction <= 1:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    selected = fraction * model.num_params
    return (profile.tensor_overhead_s
            + 3.0 * selected / profile.pack_elems_per_s)


def dgc_encode_decode_time(model: ModelSpec, fraction: float,
                           profile: KernelProfile,
                           world_size: int) -> float:
    """DGC: sampled-quantile threshold (cheap scan), mask+pack, and the
    same linear-in-``p`` scatter decode as Top-K."""
    if not 0 < fraction <= 1:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    _check_world(world_size)
    numel = model.num_params
    selected = fraction * numel
    encode = (profile.tensor_overhead_s
              + numel / profile.elementwise_elems_per_s  # threshold mask
              + 0.01 * numel / profile.select_elems_per_s  # sampled quantile
              + selected / profile.pack_elems_per_s)
    decode = selected * world_size / profile.pack_elems_per_s
    return encode + decode


def atomo_encode_decode_time(model: ModelSpec, rank: int,
                             profile: KernelProfile,
                             world_size: int) -> float:
    """ATOMO: a full SVD per matrix layer (the expensive part), plus a
    rank-``r`` reconstruction per gathered payload."""
    table = _layer_table(model)
    ranked = table.rank(rank)
    _check_world(world_size)
    return _layer_terms(
        profile.tensor_overhead_s, (table.svd, profile.svd_flops_per_s),
        (ranked.atomo_recon * world_size, profile.matmul_flops_per_s))


def gradiveq_encode_decode_time(model: ModelSpec, block: int, dims: int,
                                profile: KernelProfile) -> float:
    """GradiVeq-style projection: encode+decode are two dense products
    against the shared basis: ``4·N·dims`` FLOPs total."""
    if block < 1 or dims < 1 or dims > block:
        raise ConfigurationError(
            f"invalid block/dims ({block}, {dims})")
    return (profile.tensor_overhead_s
            + 4.0 * model.num_params * dims / profile.matmul_flops_per_s)


def _check_world(world_size: int) -> None:
    if world_size < 1:
        raise ConfigurationError(
            f"world_size must be >= 1, got {world_size}")


# ----- calibration -----------------------------------------------------------


def calibrate_v100_profile(reference: Optional[ModelSpec] = None) -> KernelProfile:
    """Solve for the V100 kernel constants from the paper's Table 2.

    PowerSGD's three rank rows form a 3x3 linear system in
    (tensor overhead, 1/matmul throughput, 1/orth throughput) given the
    reference model's exact layer shapes; Top-K's three fraction rows give
    a least-squares fit of (1/select, 1/pack); signSGD's single row pins
    the elementwise throughput given the world size it was measured at.
    SVD throughput cannot be calibrated from Table 2 (ATOMO is not
    measured there); it is set to a third of the skinny-matmul
    throughput, the ballpark LAPACK-on-GPU ratio.

    Raises:
        CalibrationError: if the solve produces non-positive constants,
            which would mean the cost structure cannot explain Table 2.
    """
    model = reference if reference is not None else get_model("resnet50")

    # --- PowerSGD: t(r) = overhead_count*x + matmul_work(r)*y + orth_work(r)*z
    ranks = sorted(TABLE2_POWERSGD_MS)
    table = _layer_table(model)
    a = np.array([(table.mat_m.size, _fold(table.rank(rank).matmul),
                   _fold(table.rank(rank).orth)) for rank in ranks],
                 dtype=np.float64)
    b = np.array([seconds_from_ms(TABLE2_POWERSGD_MS[r]) for r in ranks])
    try:
        x, y, z = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"PowerSGD calibration system singular: {exc}")
    if x <= 0 or y <= 0 or z <= 0:
        raise CalibrationError(
            f"PowerSGD calibration produced non-positive constants "
            f"(overhead={x:g}, matmul={y:g}, orth={z:g})")

    # --- Top-K: t(f) = N*s + f*N*(1 + p)*g, least squares over 3 rows.
    numel = model.num_params
    p = TABLE2_WORLD_SIZE
    fractions = sorted(TABLE2_TOPK_MS)
    design = np.array(
        [[numel, f * numel * (1.0 + p)] for f in fractions])
    target = np.array([seconds_from_ms(TABLE2_TOPK_MS[f]) for f in fractions])
    (s_inv, g_inv), *_ = np.linalg.lstsq(design, target, rcond=None)
    if s_inv <= 0 or g_inv <= 0:
        raise CalibrationError(
            f"Top-K calibration produced non-positive constants "
            f"(select={s_inv:g}, pack={g_inv:g})")

    # --- signSGD: t = N*(1 + p)*e.
    e_inv = seconds_from_ms(TABLE2_SIGNSGD_MS) / (numel * (1.0 + p))

    matmul = 1.0 / y
    return KernelProfile(
        name="V100-table2",
        tensor_overhead_s=float(x),
        matmul_flops_per_s=float(matmul),
        orth_elems_per_s=float(1.0 / z),
        select_elems_per_s=float(1.0 / s_inv),
        pack_elems_per_s=float(1.0 / g_inv),
        elementwise_elems_per_s=float(1.0 / e_inv),
        svd_flops_per_s=float(matmul / 3.0),
    )


_V100_PROFILE: Optional[KernelProfile] = None


def v100_kernel_profile() -> KernelProfile:
    """The Table-2-calibrated V100 profile (computed once, cached)."""
    global _V100_PROFILE
    if _V100_PROFILE is None:
        _V100_PROFILE = calibrate_v100_profile()
    return _V100_PROFILE
