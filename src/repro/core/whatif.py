"""What-if analyses (§6: Figures 11, 12, 13).

The performance model makes hardware hypotheticals cheap: sweep the
network bandwidth (Figure 11), scale the compute (Figure 12) — which
shrinks both the backward pass *and* the encode/decode time, the paper's
key observation about why faster GPUs favour compression — or trade
encode time against compression ratio for a hypothetical scheme
(Figure 13).

Every sweep is one call of the §4 kernel on arrays, through the
:mod:`repro.core.grid` views; each point is bit-identical to the
one-point :mod:`repro.core.perf_model` functions, which run the same
kernel on scalars.
Passing ``engine=`` routes the sweep through
:meth:`repro.engine.ExperimentEngine.run_model_outcomes`, which adds
per-point caching and families on top of the same grid kernel — still
byte-identical points.

Crossover estimation comes in two flavours: the historical
:func:`find_crossover_gbps` (linear interpolation between swept points,
bit-compatible with its original output, now built on
:func:`sweep_crossings` so multiple sign changes are detected instead of
silently ignored) and :func:`solve_crossover`, which root-finds the
closed-form model itself with Brent's method — exact to solver
tolerance rather than to the sweep's grid step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from ..units import gbps_to_bytes_per_s
from .grid import compressed_time_grid, syncsgd_time_grid, tradeoff_time_grid
from .perf_model import PerfModelInputs, compressed_time, syncsgd_time


@dataclass(frozen=True)
class WhatIfPoint:
    """One sweep point: baseline vs compressed prediction."""

    x: float                   # the swept quantity (Gbit/s, factor, k...)
    syncsgd_s: float
    compressed_s: float

    @property
    def speedup(self) -> float:
        """Fractional speedup of compression (+ helps, - hurts)."""
        return (self.syncsgd_s - self.compressed_s) / self.syncsgd_s


def _engine_sweep(model: ModelSpec, scheme: Scheme, xs: Sequence[float],
                  engine, make_inputs, gpu: GPUSpec,
                  profile: Optional[KernelProfile],
                  compute_factors=None) -> Tuple[WhatIfPoint, ...]:
    """Run a sweep's baseline + compressed evaluations through the
    engine's model-eval path (cached, family-grouped, grid-backed)."""
    from ..engine.modeljobs import ModelEvalJob
    jobs = []
    for i, x in enumerate(xs):
        factor = compute_factors[i] if compute_factors is not None else 1.0
        swept = make_inputs(x)
        jobs.append(ModelEvalJob(model=model, scheme=None, inputs=swept,
                                 gpu=gpu, profile=profile,
                                 compute_factor=factor))
        jobs.append(ModelEvalJob(model=model, scheme=scheme, inputs=swept,
                                 gpu=gpu, profile=profile,
                                 compute_factor=factor))
    outcomes = engine.run_model_outcomes(jobs)
    points: List[WhatIfPoint] = []
    for i, x in enumerate(xs):
        base, comp = outcomes[2 * i], outcomes[2 * i + 1]
        points.append(WhatIfPoint(x=x, syncsgd_s=base.unwrap().total,
                                  compressed_s=comp.unwrap().total))
    return tuple(points)


def bandwidth_sweep(model: ModelSpec, scheme: Scheme,
                    bandwidths_gbps: Sequence[float],
                    inputs: PerfModelInputs, gpu: GPUSpec = V100,
                    profile: Optional[KernelProfile] = None, *,
                    engine=None) -> Tuple[WhatIfPoint, ...]:
    """Figure 11: vary the network from e.g. 1 to 30 Gbit/s."""
    if engine is not None:
        return _engine_sweep(
            model, scheme, list(bandwidths_gbps), engine,
            lambda g: inputs.with_bandwidth(gbps_to_bytes_per_s(g)),
            gpu, profile)
    xs = list(bandwidths_gbps)
    bw = np.asarray([gbps_to_bytes_per_s(g) for g in xs], dtype=float)
    base = syncsgd_time_grid(model, inputs, gpu, bandwidth_bytes_per_s=bw)
    comp = compressed_time_grid(model, scheme, inputs, gpu, profile,
                                bandwidth_bytes_per_s=bw)
    return tuple(
        WhatIfPoint(x=gbps, syncsgd_s=float(base.total[i]),
                    compressed_s=float(comp.total[i]))
        for i, gbps in enumerate(xs))


def compute_sweep(model: ModelSpec, scheme: Scheme,
                  compute_factors: Sequence[float],
                  inputs: PerfModelInputs, gpu: GPUSpec = V100,
                  profile: Optional[KernelProfile] = None, *,
                  engine=None) -> Tuple[WhatIfPoint, ...]:
    """Figure 12: scale GPU speed while the network stays fixed.

    Scaling the GPU scales the backward pass *and* the kernel profile, so
    encode/decode shrinks too — the two effects §6 credits for
    compression becoming attractive on faster hardware.
    """
    factors = list(compute_factors)
    for factor in factors:
        if factor <= 0:
            raise ConfigurationError(
                f"compute factors must be > 0, got {factor}")
    if engine is not None:
        return _engine_sweep(model, scheme, factors, engine,
                             lambda _: inputs, gpu, profile,
                             compute_factors=factors)
    f_arr = np.asarray(factors, dtype=float)
    base = syncsgd_time_grid(model, inputs, gpu, compute_factor=f_arr)
    comp = compressed_time_grid(model, scheme, inputs, gpu, profile,
                                compute_factor=f_arr)
    return tuple(
        WhatIfPoint(x=factor, syncsgd_s=float(base.total[i]),
                    compressed_s=float(comp.total[i]))
        for i, factor in enumerate(factors))


@dataclass(frozen=True)
class TradeoffPoint:
    """Figure-13 grid cell: hypothetical scheme with encode time /k and
    wire size *(l*k), relative to a real base scheme."""

    k: float
    l: float
    predicted_s: float
    syncsgd_s: float

    @property
    def speedup(self) -> float:
        """Fractional speedup over syncSGD: positive when the
        hypothetical scheme helps."""
        return (self.syncsgd_s - self.predicted_s) / self.syncsgd_s


def encode_tradeoff_grid(model: ModelSpec, base_scheme: Scheme,
                         ks: Sequence[float], ls: Sequence[float],
                         inputs: PerfModelInputs, gpu: GPUSpec = V100,
                         profile: Optional[KernelProfile] = None, *,
                         engine=None) -> Tuple[TradeoffPoint, ...]:
    """Figure 13: for each ``(k, l)``, price a hypothetical scheme whose
    encode/decode time is the base scheme's divided by ``k`` and whose
    payload is multiplied by ``l*k`` (the paper's example: k=2, l=2 means
    2x faster encode for 4x more data on the wire)."""
    # Replicate the historical validation order: the first bad k wins,
    # then — within the first good k — the first bad l.
    for k in ks:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        for l in ls:
            if l < 1:
                raise ConfigurationError(f"l must be >= 1, got {l}")

    baseline = syncsgd_time(model, inputs, gpu).total
    if engine is not None:
        from ..engine.modeljobs import ModelEvalJob
        jobs = [ModelEvalJob(model=model, scheme=base_scheme, inputs=inputs,
                             gpu=gpu, profile=profile,
                             tradeoff_k=float(k), tradeoff_l=float(l))
                for k in ks for l in ls]
        outcomes = engine.run_model_outcomes(jobs)
        points: List[TradeoffPoint] = []
        index = 0
        for k in ks:
            for l in ls:
                outcome = outcomes[index]
                index += 1
                points.append(TradeoffPoint(
                    k=k, l=l, predicted_s=outcome.unwrap().total,
                    syncsgd_s=baseline))
        return tuple(points)
    k_list, l_list = list(ks), list(ls)
    grid = tradeoff_time_grid(
        model, base_scheme,
        np.asarray(k_list, dtype=float)[:, None],
        np.asarray(l_list, dtype=float)[None, :],
        inputs, gpu, profile)
    return tuple(
        TradeoffPoint(k=k, l=l, predicted_s=float(grid.total[i, j]),
                      syncsgd_s=baseline)
        for i, k in enumerate(k_list) for j, l in enumerate(l_list))


# ----- crossover estimation --------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    """One sign change of the compression speedup along a sweep.

    Attributes:
        x: The swept value at which the speedup crosses zero.
        direction: ``"down"`` when compression stops helping as ``x``
            grows (speedup goes positive → non-positive, the Figure-11
            crossover), ``"up"`` when it starts helping.
    """

    x: float
    direction: str


def sweep_crossings(points: Sequence[WhatIfPoint]) -> Tuple[Crossing, ...]:
    """Every zero crossing of the speedup over a sweep, in ``x`` order.

    Each crossing is located by linear interpolation between the
    neighbouring points (for ``"down"`` crossings, the exact historical
    :func:`find_crossover_gbps` arithmetic — bit-compatible).  A
    non-monotone sweep yields several crossings; the old API silently
    returned the first, this one reports all of them.
    """
    ordered = sorted(points, key=lambda pt: pt.x)
    crossings: List[Crossing] = []
    for prev, curr in zip(ordered, ordered[1:]):
        if prev.speedup > 0 >= curr.speedup:
            span = prev.speedup - curr.speedup
            if span <= 0:
                crossings.append(Crossing(x=curr.x, direction="down"))
                continue
            frac = prev.speedup / span
            crossings.append(Crossing(
                x=prev.x + frac * (curr.x - prev.x), direction="down"))
        elif prev.speedup <= 0 < curr.speedup:
            span = curr.speedup - prev.speedup
            frac = -prev.speedup / span
            crossings.append(Crossing(
                x=prev.x + frac * (curr.x - prev.x), direction="up"))
    return tuple(crossings)


def find_crossover_gbps(points: Sequence[WhatIfPoint]) -> Optional[float]:
    """Bandwidth at which compression stops helping: the first swept
    value where the speedup goes non-positive, linearly interpolated
    between neighbouring points.  ``None`` if compression helps (or
    hurts) across the whole sweep.

    Thin wrapper over :func:`sweep_crossings` preserving the historical
    return value bit for bit; a sweep with more than one sign change now
    raises a ``UserWarning`` instead of being silently truncated to its
    first crossing (use :func:`sweep_crossings` — or
    :func:`solve_crossover` on the model itself — to see all of them).
    """
    crossings = sweep_crossings(points)
    if len(crossings) > 1:
        warnings.warn(
            f"sweep has {len(crossings)} speedup sign changes; "
            f"find_crossover_gbps reports only the first downward one "
            f"(use sweep_crossings for all of them)",
            UserWarning, stacklevel=2)
    for crossing in crossings:
        if crossing.direction == "down":
            return crossing.x
    return None


def _brentq(func: Callable[[float], float], lo: float, hi: float,
            f_lo: float, f_hi: float, xtol: float = 1e-9,
            max_iter: int = 100) -> float:
    """Brent's method on a bracketing interval (classic inverse-quadratic
    / secant / bisection hybrid; ``f_lo`` and ``f_hi`` must have opposite
    signs)."""
    a, b = lo, hi
    fa, fb = f_lo, f_hi
    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb == 0.0 or abs(b - a) < xtol:
            return b
        if fa != fc and fb != fc:
            # Inverse quadratic interpolation.
            s = (a * fb * fc / ((fa - fb) * (fa - fc))
                 + b * fa * fc / ((fb - fa) * (fb - fc))
                 + c * fa * fb / ((fc - fa) * (fc - fb)))
        else:
            s = b - fb * (b - a) / (fb - fa)  # secant
        midpoint = (a + b) / 2.0
        use_bisect = (
            not (min(b, midpoint) < s < max(b, midpoint))
            or abs(s - b) >= abs(e) / 2.0)
        if use_bisect:
            s = midpoint
            e = d = b - a
        else:
            e, d = d, s - b
        fs = func(s)
        c, fc = b, fb
        if fa * fs < 0:
            b, fb = s, fs
        else:
            a, fa = s, fs
        if abs(fa) < abs(fb):
            a, b, fa, fb = b, a, fb, fa
    return b


def solve_crossover(model: ModelSpec, scheme: Scheme,
                    inputs: PerfModelInputs,
                    lo_gbps: float, hi_gbps: float,
                    gpu: GPUSpec = V100,
                    profile: Optional[KernelProfile] = None,
                    samples: int = 256,
                    xtol: float = 1e-9) -> Tuple[Crossing, ...]:
    """Exact crossover bandwidths of ``scheme`` vs syncSGD on
    ``[lo_gbps, hi_gbps]``.

    Scans the closed-form speedup ``syncsgd.total - compressed.total``
    on a dense grid (one grid-kernel call over ``samples`` points) to
    bracket every sign change, then polishes each bracket with Brent's
    method on the scalar model — exact to ``xtol`` Gbit/s rather than
    to a sweep's grid step.  Returns all crossings in order; an empty
    tuple means compression helps (or hurts) across the whole range —
    the zero-sign-change case callers must handle explicitly.
    """
    if not lo_gbps < hi_gbps:
        raise ConfigurationError(
            f"need lo_gbps < hi_gbps, got [{lo_gbps}, {hi_gbps}]")
    if lo_gbps <= 0:
        raise ConfigurationError(f"lo_gbps must be > 0, got {lo_gbps}")
    if samples < 2:
        raise ConfigurationError(f"samples must be >= 2, got {samples}")

    def diff(gbps: float) -> float:
        swept = inputs.with_bandwidth(gbps_to_bytes_per_s(gbps))
        return (syncsgd_time(model, swept, gpu).total
                - compressed_time(model, scheme, swept, gpu, profile).total)

    xs = np.linspace(lo_gbps, hi_gbps, samples)
    bw = np.asarray([gbps_to_bytes_per_s(float(g)) for g in xs])
    base = syncsgd_time_grid(model, inputs, gpu, bandwidth_bytes_per_s=bw)
    comp = compressed_time_grid(model, scheme, inputs, gpu, profile,
                                bandwidth_bytes_per_s=bw)
    diffs = base.total - comp.total

    crossings: List[Crossing] = []
    for i in range(len(xs) - 1):
        f_lo, f_hi = float(diffs[i]), float(diffs[i + 1])
        if f_lo == 0.0:
            if i == 0 or float(diffs[i - 1]) != 0.0:
                direction = "down" if f_hi < 0 else "up"
                crossings.append(Crossing(x=float(xs[i]),
                                          direction=direction))
            continue
        if f_lo * f_hi < 0:
            root = _brentq(diff, float(xs[i]), float(xs[i + 1]),
                           f_lo, f_hi, xtol=xtol)
            direction = "down" if f_lo > 0 else "up"
            crossings.append(Crossing(x=root, direction=direction))
    if len(xs) >= 2 and float(diffs[-1]) == 0.0 and float(diffs[-2]) != 0.0:
        direction = "down" if float(diffs[-2]) > 0 else "up"
        crossings.append(Crossing(x=float(xs[-1]), direction=direction))
    return tuple(crossings)
