"""Grid-vectorized performance model: whole parameter grids per call.

The what-if analyses (§6) evaluate the closed-form model of §4 over
*configuration grids* — bandwidth × world size × compute factor × batch
size × compression ratio.  The model is written once, as the
array-generic kernel of :mod:`repro.core.perf_model`; the functions
here are its :class:`TimingGrid` views: they resolve the swept axes,
gate the grid size, and run the kernel on arrays instead of scalars.
Every cell is therefore bit-identical to the one-point functions
called with the same operands (each IEEE-754 elementary operation is
exactly rounded), which the what-if sweeps (:mod:`repro.core.whatif`)
and the engine's model-eval fast path (:mod:`repro.engine.modeljobs`)
rely on; the tests pin it against the scalar oracles in
``tests/oracle.py``.

Axis semantics: each of ``bandwidth_bytes_per_s`` / ``world_size`` /
``compute_factor`` / ``batch_size`` may be a scalar (default: the value
in ``inputs``) or an array; arrays broadcast against each other under
normal NumPy rules, so callers shape their axes (e.g. ``bw[:, None]``
vs ``factor[None, :]``) to get an outer-product grid or keep them
aligned 1-D for a zipped sweep.

World size deserves a note: the per-scheme cost model
(:meth:`repro.compression.schemes.Scheme.cost`) takes an integer world
size (gather decodes are linear in ``p``), so the kernel prices each
*unique* world size once and mask-fills the results — still one NumPy
kernel per distinct ``p``, not one per point.  The compute-factor axis
rides through :meth:`repro.compression.kernel_cost.KernelProfile.scaled`,
which scales the profile's fields by the factor array (the dataclass
validation is array-aware for exactly this purpose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..collectives.cost import validate_bound
from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.schemes import Scheme
from ..compute import _backward_time
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from ..telemetry.metrics import get_registry
from .perf_model import (
    PerfModelInputs,
    PredictedTime,
    _evaluate,
    _sequential,
)


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
    validate_bound("bandwidth", bw, 0, strict=True)
    validate_bound("world_size", p, 1)
    validate_bound("compute factors", factor, 0, strict=True)
    validate_bound("batch_size", bs, 1)
    return bw, p, factor, bs


def _timing_grid(terms, shape: Tuple[int, ...],
                 inputs: Tuple[np.ndarray, ...] = ()) -> TimingGrid:
    """The kernel's four terms, materialized at the full grid shape.

    A term the kernel already produced as a fresh full-shape array — it
    owns its writable data and is neither one of ``inputs`` nor another
    term — is kept as it is; every other term is broadcast and copied.
    So each returned array is writable and aliases nothing else.
    """
    kept: List[np.ndarray] = []
    for term in terms:
        if not (isinstance(term, np.ndarray) and term.shape == shape
                and term.flags.owndata and term.flags.writeable
                and not any(term is other for other in (*inputs, *kept))):
            term = np.broadcast_to(term, shape).copy()
        kept.append(term)
    return TimingGrid(*kept)


def backward_time_grid(model: ModelSpec, gpu: GPUSpec,
                       batch_size: np.ndarray,
                       compute_factor: np.ndarray) -> np.ndarray:
    """``T_comp`` over batch-size × compute-factor arrays, exactly
    :meth:`repro.compute.ComputeModel.backward_time` on
    ``gpu.scaled(factor)`` in every cell."""
    return _backward_time(model, gpu, batch_size, compute_factor)


def _model_grid(model: ModelSpec, scheme: Optional[Scheme],
                inputs: PerfModelInputs, gpu: GPUSpec,
                profile: Optional[KernelProfile], bandwidth_bytes_per_s,
                world_size, compute_factor, batch_size) -> TimingGrid:
    """The §4 kernel over the resolved, size-gated axes."""
    bw, p, factor, bs = _axes(model, inputs, bandwidth_bytes_per_s,
                              world_size, compute_factor, batch_size)
    shape = np.broadcast_shapes(bw.shape, p.shape, factor.shape, bs.shape)
    _count_grid_points(shape, _axis_sizes(bw, p, factor, bs))
    if compute_factor is not None:
        # The scalar compute sweep prices encode/decode on
        # profile.scaled(factor); so does every cell here.
        profile = (profile if profile is not None
                   else v100_kernel_profile()).scaled(factor)
    return _timing_grid(_evaluate(model, scheme, inputs, gpu, profile,
                                  bw, p, factor, bs), shape,
                        (bw, p, factor, bs))


def syncsgd_time_grid(model: ModelSpec, inputs: PerfModelInputs,
                      gpu: GPUSpec = V100, *,
                      bandwidth_bytes_per_s=None, world_size=None,
                      compute_factor=None, batch_size=None) -> TimingGrid:
    """§4.1 syncSGD model over an N-D configuration grid (cellwise
    :func:`repro.core.perf_model.syncsgd_time`)."""
    return _model_grid(model, None, inputs, gpu, None, bandwidth_bytes_per_s,
                       world_size, compute_factor, batch_size)


def compressed_time_grid(model: ModelSpec, scheme: Scheme,
                         inputs: PerfModelInputs, gpu: GPUSpec = V100,
                         profile: Optional[KernelProfile] = None, *,
                         bandwidth_bytes_per_s=None, world_size=None,
                         compute_factor=None, batch_size=None) -> TimingGrid:
    """§4.2 sequential-compression model over an N-D configuration grid
    (cellwise :func:`repro.core.perf_model.compressed_time`)."""
    return _model_grid(model, scheme, inputs, gpu, profile,
                       bandwidth_bytes_per_s, world_size, compute_factor,
                       batch_size)


def tradeoff_time_grid(model: ModelSpec, base_scheme: Scheme,
                       k, l, inputs: PerfModelInputs,
                       gpu: GPUSpec = V100,
                       profile: Optional[KernelProfile] = None,
                       ) -> TimingGrid:
    """Figure-13 hypothetical-scheme model over ``(k, l)`` arrays.

    For each cell: encode/decode is the base scheme's divided by ``k``,
    the wire payload is multiplied by ``l·k`` (capped at the dense
    gradient size), priced by the kernel's sequential (§4.2) branch.
    ``k`` and ``l`` broadcast against each other — pass ``ks[:, None]``
    and ``ls[None, :]`` for the paper's 2-D grid.
    """
    prof = profile if profile is not None else v100_kernel_profile()
    k_arr = np.asarray(k, dtype=float)
    l_arr = np.asarray(l, dtype=float)
    validate_bound("k", k_arr, 1)
    validate_bound("l", l_arr, 1)
    shape = np.broadcast_shapes(k_arr.shape, l_arr.shape)
    _count_grid_points(shape, {"k": int(k_arr.size), "l": int(l_arr.size)})

    bs = inputs.batch_size or model.default_batch_size
    validate_bound("batch_size", bs, 1)
    t_comp = _backward_time(model, gpu, bs, 1.0)
    p = inputs.world_size
    base_cost = base_scheme.cost(model, p, prof)
    wire = np.minimum(base_cost.wire_bytes * l_arr * k_arr,
                      float(model.grad_bytes))
    enc = base_cost.encode_decode_s / k_arr
    return _timing_grid(
        _sequential(t_comp, wire, enc, base_cost, p,
                    inputs.bandwidth_bytes_per_s, inputs.alpha_s), shape,
        (k_arr, l_arr))
