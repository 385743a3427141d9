"""Grid-vectorized performance model: whole parameter grids per call.

The what-if analyses (§6) evaluate the closed-form model of §4 over
*configuration grids* — bandwidth × world size × compute factor × batch
size × compression ratio.  The scalar entry points in
:mod:`repro.core.perf_model` price one point per Python call; here the
same model is evaluated over N-D NumPy grids in one broadcasted kernel
call, with the collective pricing from the broadcasting grid functions
in :mod:`repro.collectives`.

**Bit-identity contract.**  Every cell of a :class:`TimingGrid` is
bit-identical to the scalar functions called with the same operands:
each IEEE-754 elementary operation is exactly rounded, so elementwise
array arithmetic applied in the scalar code's operation order produces
the same float64s.  The what-if sweeps (:mod:`repro.core.whatif`) and
the engine's model-eval fast path (:mod:`repro.engine.modeljobs`) rely
on this — their grid-backed outputs are byte-identical to the scalar
loops they replaced, which is pinned by tests.

Axis semantics: each of ``bandwidth_bytes_per_s`` / ``world_size`` /
``compute_factor`` / ``batch_size`` may be a scalar (default: the value
in ``inputs``) or an array; arrays broadcast against each other under
normal NumPy rules, so callers shape their axes (e.g. ``bw[:, None]``
vs ``factor[None, :]``) to get an outer-product grid or keep them
aligned 1-D for a zipped sweep.

World size deserves a note: the per-scheme cost model
(:meth:`repro.compression.schemes.Scheme.cost`) takes an integer world
size (gather decodes are linear in ``p``), so the grid prices each
*unique* world size once and mask-fills the results — still one NumPy
kernel per distinct ``p``, not one per point.  The compute-factor axis
rides through :class:`repro.compression.kernel_cost.KernelProfile`
fields as arrays (the dataclass validation is array-aware for exactly
this purpose).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..collectives import allgather_time_grid, ring_allreduce_time_grid
from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.schemes import Scheme, SchemeCost, SyncSGDScheme
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from ..telemetry.metrics import get_registry
from .perf_model import PerfModelInputs, PredictedTime


@dataclass(frozen=True)
class TimingGrid:
    """N-D grid of performance-model predictions.

    The four component arrays share one broadcast shape and carry the
    same additive breakdown as :class:`repro.core.perf_model.
    PredictedTime`; :meth:`at` extracts one cell as a scalar
    ``PredictedTime`` (bit-identical to the scalar model at that
    point).
    """

    total: np.ndarray
    compute: np.ndarray
    encode_decode: np.ndarray
    comm_exposed: np.ndarray

    def __post_init__(self) -> None:
        shape = self.total.shape
        for label in ("compute", "encode_decode", "comm_exposed"):
            if getattr(self, label).shape != shape:
                raise ConfigurationError(
                    f"TimingGrid component {label} has shape "
                    f"{getattr(self, label).shape}, expected {shape}")

    @property
    def shape(self) -> Tuple[int, ...]:
        """Broadcast shape of the evaluated grid."""
        return self.total.shape

    @property
    def size(self) -> int:
        """Number of grid cells."""
        return int(self.total.size)

    def at(self, index) -> PredictedTime:
        """One cell as a scalar :class:`PredictedTime` (``index`` is any
        NumPy index selecting a single element)."""
        return PredictedTime(
            total=float(self.total[index]),
            compute=float(self.compute[index]),
            encode_decode=float(self.encode_decode[index]),
            comm_exposed=float(self.comm_exposed[index]),
        )


#: Largest grid one call may materialize.  A :class:`TimingGrid` holds
#: four float64 arrays, so this bound caps a single evaluation at about
#: 512 MB; anything larger must be sliced into shards (the advisor's
#: sweep slices its bandwidth axis, see :mod:`repro.analysis.advisor`).
MAX_GRID_POINTS = 1 << 24


def _count_grid_points(shape: Tuple[int, ...],
                       axes: Optional[dict] = None) -> None:
    """Gate grid size and advance ``grid_eval_points_total``.

    Grids beyond :data:`MAX_GRID_POINTS` raise a
    :class:`ConfigurationError` that names the offending axes (largest
    first) and suggests a shard size for the dominant one, instead of
    letting the caller hit an opaque allocation failure; ``axes`` maps
    axis name to requested length for that message.
    """
    cells = int(np.prod(shape))
    if cells > MAX_GRID_POINTS:
        named = sorted((axes or {}).items(), key=lambda kv: (-kv[1], kv[0]))
        wide = [(name, size) for name, size in named if size > 1]
        detail = ("; largest axes: "
                  + ", ".join(f"{name} ({size:,} points)"
                              for name, size in wide[:3]) if wide else "")
        if wide:
            big_name, big_size = wide[0]
            fit = max(1, MAX_GRID_POINTS * big_size // cells)
            hint = (f"; evaluate in bounded shards instead — slice "
                    f"{big_name} into runs of <= {fit:,} points per call "
                    f"(repro.analysis.advisor shards its bandwidth axis "
                    f"this way)")
        else:
            hint = "; evaluate in bounded shards instead"
        raise ConfigurationError(
            f"grid has {cells:,} cells, over the {MAX_GRID_POINTS:,}-cell "
            f"per-call limit{detail}{hint}")
    registry = get_registry()
    if not registry.enabled:
        return
    if cells:
        registry.counter("grid_eval_points_total").inc(cells)


def _axis_sizes(bw: np.ndarray, p: np.ndarray, factor: np.ndarray,
                bs: np.ndarray) -> dict:
    """Axis-name → requested length, for oversize-grid diagnostics."""
    return {"bandwidth_bytes_per_s": int(bw.size),
            "world_size": int(p.size),
            "compute_factor": int(factor.size),
            "batch_size": int(bs.size)}


def _axes(model: ModelSpec, inputs: PerfModelInputs,
          bandwidth_bytes_per_s, world_size, compute_factor, batch_size,
          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve axis overrides against ``inputs`` defaults and validate
    them with the same bounds the scalar constructors enforce."""
    bw = np.asarray(inputs.bandwidth_bytes_per_s if bandwidth_bytes_per_s
                    is None else bandwidth_bytes_per_s, dtype=float)
    p = np.asarray(inputs.world_size if world_size is None else world_size)
    factor = np.asarray(1.0 if compute_factor is None else compute_factor,
                        dtype=float)
    default_bs = inputs.batch_size or model.default_batch_size
    bs = np.asarray(default_bs if batch_size is None else batch_size)
    if bw.size and float(bw.min()) <= 0:
        raise ConfigurationError("bandwidth must be > 0")
    if p.size and int(p.min()) < 1:
        raise ConfigurationError(
            f"world_size must be >= 1, got {int(p.min())}")
    if factor.size and float(factor.min()) <= 0:
        raise ConfigurationError(
            f"compute factors must be > 0, got {float(factor.min())}")
    if bs.size and int(bs.min()) < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {int(bs.min())}")
    return bw, p, factor, bs


def backward_time_grid(model: ModelSpec, gpu: GPUSpec,
                       batch_size: np.ndarray,
                       compute_factor: np.ndarray) -> np.ndarray:
    """``T_comp`` over batch-size × compute-factor arrays.

    Mirrors :meth:`repro.compute.ComputeModel.backward_time` on
    ``gpu.scaled(factor)`` exactly: the scalar path computes
    ``(((peak·f)·eff_train)·eff_model)·saturation`` and divides
    ``bs · bwd_flops(1)`` by it; both reductions here apply the same
    operations in the same order (``x·1.0`` and ``x/1.0`` are exact, so
    the unscaled case matches too).
    """
    saturation = 1.0 / (1.0 + model.batch_half_saturation / batch_size)
    eff = (gpu.peak_fp32_flops * compute_factor * gpu.training_efficiency
           * model.compute_efficiency * saturation)
    return batch_size * model.bwd_flops(1) / eff


def _scaled_profile_grid(profile: KernelProfile,
                         compute_factor: np.ndarray) -> KernelProfile:
    """Array-factor form of :meth:`KernelProfile.scaled` (same per-field
    arithmetic; the name stays a plain string because ``{:g}`` cannot
    format an array)."""
    return replace(
        profile,
        name=f"{profile.name}-grid",
        tensor_overhead_s=profile.tensor_overhead_s / compute_factor,
        matmul_flops_per_s=profile.matmul_flops_per_s * compute_factor,
        orth_elems_per_s=profile.orth_elems_per_s * compute_factor,
        select_elems_per_s=profile.select_elems_per_s * compute_factor,
        pack_elems_per_s=profile.pack_elems_per_s * compute_factor,
        elementwise_elems_per_s=(profile.elementwise_elems_per_s
                                 * compute_factor),
        svd_flops_per_s=profile.svd_flops_per_s * compute_factor,
    )


def _scheme_cost_grid(model: ModelSpec, scheme: Scheme, p: np.ndarray,
                      profile: KernelProfile, shape: Tuple[int, ...],
                      ) -> Tuple[np.ndarray, np.ndarray, SchemeCost]:
    """Price ``scheme`` across a world-size axis: one :meth:`Scheme.cost`
    call per *unique* world size, mask-filled along ``p``.

    Returns ``(wire_bytes, encode_decode_s, representative_cost)`` —
    arrays that broadcast against ``shape`` (a scalar ``p`` gives views
    of ``shape``, a world-size axis arrays of ``p``'s own shape, so the
    work scales with the world sizes, not the grid); the representative
    cost carries the p-independent structure (messages,
    all_reducible).  Schemes whose message count or collective family
    varied with ``p`` would not fit one broadcast expression; none of
    the built-ins do, and the guard makes the assumption explicit.
    """
    if p.ndim == 0:
        cost = scheme.cost(model, int(p), profile)
        wire = np.broadcast_to(np.asarray(cost.wire_bytes, dtype=float),
                               shape)
        enc = np.broadcast_to(np.asarray(cost.encode_decode_s, dtype=float),
                              shape)
        return wire, enc, cost
    wire = np.zeros(p.shape)
    enc = np.zeros(p.shape)
    rep: Optional[SchemeCost] = None
    for unique_p in np.unique(p):
        cost = scheme.cost(model, int(unique_p), profile)
        if rep is None:
            rep = cost
        elif (cost.messages != rep.messages
              or cost.all_reducible != rep.all_reducible):
            raise ConfigurationError(
                f"{scheme.label}: message structure varies with world "
                f"size; the grid model cannot vectorize it")
        mask = p == unique_p
        wire = np.where(mask, cost.wire_bytes, wire)
        enc = np.where(mask, cost.encode_decode_s, enc)
    assert rep is not None
    return wire, enc, rep


def syncsgd_time_grid(model: ModelSpec, inputs: PerfModelInputs,
                      gpu: GPUSpec = V100, *,
                      bandwidth_bytes_per_s=None, world_size=None,
                      compute_factor=None, batch_size=None) -> TimingGrid:
    """§4.1 syncSGD model over an N-D configuration grid.

    Every cell is bit-identical to
    :func:`repro.core.perf_model.syncsgd_time` at the same point
    (including the ``world_size == 1`` early return, realized here with
    ``np.where``).
    """
    bw, p, factor, bs = _axes(model, inputs, bandwidth_bytes_per_s,
                              world_size, compute_factor, batch_size)
    shape = np.broadcast_shapes(bw.shape, p.shape, factor.shape, bs.shape)
    _count_grid_points(shape, _axis_sizes(bw, p, factor, bs))
    t_comp = backward_time_grid(model, gpu, bs, factor)

    bucket_sizes = model.bucket_sizes_bytes(inputs.bucket_cap_bytes)
    alpha = inputs.alpha_s
    overlappable = sum(
        ring_allreduce_time_grid(b, p, bw, alpha)
        for b in bucket_sizes[:-1])
    last = ring_allreduce_time_grid(bucket_sizes[-1], p, bw, alpha)

    stretched = inputs.gamma * t_comp
    total = np.maximum(stretched, overlappable) + last
    comm_exposed = np.where(total > stretched, total - stretched, last)

    single = p == 1
    zeros = np.zeros(shape)
    return TimingGrid(
        total=np.where(single, t_comp, np.broadcast_to(total, shape)),
        compute=np.where(single, t_comp, np.broadcast_to(stretched, shape)),
        encode_decode=zeros,
        comm_exposed=np.where(single, 0.0,
                              np.broadcast_to(comm_exposed, shape)),
    )


def compressed_time_grid(model: ModelSpec, scheme: Scheme,
                         inputs: PerfModelInputs, gpu: GPUSpec = V100,
                         profile: Optional[KernelProfile] = None, *,
                         bandwidth_bytes_per_s=None, world_size=None,
                         compute_factor=None, batch_size=None) -> TimingGrid:
    """§4.2 sequential-compression model over an N-D configuration grid
    (cellwise bit-identical to
    :func:`repro.core.perf_model.compressed_time`, which the
    equivalence tests pin across every built-in scheme and axis)."""
    if isinstance(scheme, SyncSGDScheme):
        return syncsgd_time_grid(
            model, inputs, gpu, bandwidth_bytes_per_s=bandwidth_bytes_per_s,
            world_size=world_size, compute_factor=compute_factor,
            batch_size=batch_size)
    prof = profile if profile is not None else v100_kernel_profile()
    bw, p, factor, bs = _axes(model, inputs, bandwidth_bytes_per_s,
                              world_size, compute_factor, batch_size)
    shape = np.broadcast_shapes(bw.shape, p.shape, factor.shape, bs.shape)
    _count_grid_points(shape, _axis_sizes(bw, p, factor, bs))
    t_comp = backward_time_grid(model, gpu, bs, factor)
    if compute_factor is not None:
        # The scalar compute sweep prices encode/decode on
        # profile.scaled(factor); ride the factor axis through the
        # profile fields (same per-field multiply/divide).
        prof = _scaled_profile_grid(prof, factor)
    wire, enc, rep = _scheme_cost_grid(model, scheme, p, prof, shape)
    alpha = inputs.alpha_s
    single_p = p == 1

    if scheme.ddp_overlap:
        ratio = wire / model.grad_bytes
        buckets = model.bucket_sizes_bytes(inputs.bucket_cap_bytes)
        overlappable = sum(
            ring_allreduce_time_grid(b * ratio, p, bw, alpha)
            for b in buckets[:-1])
        last = ring_allreduce_time_grid(buckets[-1] * ratio, p, bw, alpha)
        stretched = inputs.gamma * t_comp
        total = (np.maximum(stretched, overlappable) + last + enc)
        comm = np.maximum(0.0, total - stretched - enc)
        return TimingGrid(
            total=np.where(single_p, np.broadcast_to(t_comp, shape),
                           np.broadcast_to(total, shape)),
            compute=np.where(single_p, np.broadcast_to(t_comp, shape),
                             np.broadcast_to(stretched, shape)),
            encode_decode=np.broadcast_to(enc, shape).copy(),
            comm_exposed=np.where(single_p, 0.0,
                                  np.broadcast_to(comm, shape)),
        )

    per_message = wire / rep.messages
    if rep.all_reducible:
        single = ring_allreduce_time_grid(per_message, p, bw, alpha)
    else:
        single = allgather_time_grid(per_message, p, bw, alpha)
    comm = np.where(single_p, 0.0,
                    np.broadcast_to(single * rep.messages, shape))
    total = t_comp + enc + comm
    return TimingGrid(
        total=np.broadcast_to(total, shape).copy(),
        compute=np.broadcast_to(t_comp, shape).copy(),
        encode_decode=np.broadcast_to(enc, shape).copy(),
        comm_exposed=comm,
    )


def tradeoff_time_grid(model: ModelSpec, base_scheme: Scheme,
                       k, l, inputs: PerfModelInputs,
                       gpu: GPUSpec = V100,
                       profile: Optional[KernelProfile] = None,
                       ) -> TimingGrid:
    """Figure-13 hypothetical-scheme model over ``(k, l)`` arrays.

    For each cell: encode/decode is the base scheme's divided by ``k``,
    the wire payload is multiplied by ``l·k`` (capped at the dense
    gradient size).  ``k`` and ``l`` broadcast against each other —
    pass ``ks[:, None]`` and ``ls[None, :]`` for the paper's 2-D grid.
    Cellwise bit-identical to the scalar loop in
    :func:`repro.core.whatif.encode_tradeoff_grid`.
    """
    prof = profile if profile is not None else v100_kernel_profile()
    k_arr = np.asarray(k, dtype=float)
    l_arr = np.asarray(l, dtype=float)
    if k_arr.size and float(k_arr.min()) < 1:
        raise ConfigurationError(
            f"k must be >= 1, got {float(k_arr.min())}")
    if l_arr.size and float(l_arr.min()) < 1:
        raise ConfigurationError(
            f"l must be >= 1, got {float(l_arr.min())}")
    shape = np.broadcast_shapes(k_arr.shape, l_arr.shape)
    _count_grid_points(shape, {"k": int(k_arr.size), "l": int(l_arr.size)})

    bs = inputs.batch_size or model.default_batch_size
    t_comp = backward_time_grid(model, gpu, np.asarray(bs),
                                np.asarray(1.0))
    p = inputs.world_size
    base_cost = base_scheme.cost(model, p, prof)

    wire = np.minimum(base_cost.wire_bytes * l_arr * k_arr,
                      float(model.grad_bytes))
    enc = base_cost.encode_decode_s / k_arr
    if p == 1:
        comm = np.zeros(shape)
    else:
        per_message = wire / base_cost.messages
        if base_cost.all_reducible:
            single = ring_allreduce_time_grid(
                per_message, p, inputs.bandwidth_bytes_per_s,
                inputs.alpha_s)
        else:
            single = allgather_time_grid(
                per_message, p, inputs.bandwidth_bytes_per_s,
                inputs.alpha_s)
        comm = single * base_cost.messages
    total = t_comp + enc + comm
    return TimingGrid(
        total=np.broadcast_to(total, shape).copy(),
        compute=np.broadcast_to(t_comp, shape).copy(),
        encode_decode=np.broadcast_to(enc, shape).copy(),
        comm_exposed=np.broadcast_to(comm, shape).copy(),
    )
