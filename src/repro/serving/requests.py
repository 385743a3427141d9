"""Request shapes for the serving API, parsed from JSON bodies.

Validation happens here, at the HTTP boundary, so the scheduler only
ever sees well-formed work items; anything malformed raises
:class:`~repro.errors.ConfigurationError`, which the HTTP layer maps to
a structured 400.  Field semantics deliberately mirror the CLI flags
(``repro recommend --model --gpus --batch --bandwidth``; ``repro
simulate --scheme --iterations``) so a request body is the JSON spelling
of the command it replaces — that is what makes the byte-parity
guarantee of ``POST /v1/whatif`` vs ``repro recommend`` meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..compression import scheme_from_spec
from ..compression.schemes import Scheme
from ..errors import ConfigurationError
from ..hardware import ClusterConfig, cluster_for_gpus
from ..models import ModelSpec, available_models, get_model
from ..simulator.batch import MAX_ITERATIONS

#: Most seeds one simulate request may fan out to; keeps a single
#: request from monopolizing a scheduler batch.
MAX_SEEDS_PER_REQUEST = 64


def _require_fields(body: Dict[str, Any], allowed: Tuple[str, ...],
                    kind: str) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) {', '.join(map(repr, unknown))} in "
            f"{kind} request; allowed: {', '.join(allowed)}")


def _positive(name: str, value: Any, unit: str) -> float:
    """``value`` as a float, if it is a finite positive number.
    ``json.loads`` accepts ``NaN`` and ``Infinity``, which pass a plain
    ``<= 0`` guard."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not 0 < value < math.inf:
        raise ConfigurationError(
            f"{name} must be positive finite {unit}, got {value!r}")
    return float(value)


def _model_from(body: Dict[str, Any]) -> ModelSpec:
    name = body.get("model", "resnet50")
    if not isinstance(name, str) or name not in available_models():
        raise ConfigurationError(
            f"unknown model {name!r}; available: {available_models()}")
    return get_model(name)


def _cluster_from(body: Dict[str, Any]) -> ClusterConfig:
    gpus = body.get("gpus", 32)
    if not isinstance(gpus, int) or isinstance(gpus, bool) or gpus < 1:
        raise ConfigurationError(f"gpus must be a positive int, got {gpus!r}")
    cluster = cluster_for_gpus(gpus)
    bandwidth = body.get("bandwidth")
    if bandwidth is not None:
        cluster = cluster.with_instance(cluster.instance.with_network_gbps(
            _positive("bandwidth", bandwidth, "Gbit/s")))
    return cluster


def _batch_from(body: Dict[str, Any]) -> Optional[int]:
    batch = body.get("batch")
    if batch is None:
        return None
    if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
        raise ConfigurationError(
            f"batch must be a positive int, got {batch!r}")
    return batch


def _timeout_from(body: Dict[str, Any]) -> Optional[float]:
    timeout = body.get("timeout_s")
    if timeout is None:
        return None
    return _positive("timeout_s", timeout, "seconds")


@dataclass(frozen=True)
class WhatIfRequest:
    """``POST /v1/whatif`` — "price my cluster config".

    The exact inputs of ``repro recommend``, answered by the same call:
    the scheduler calibrates against the cluster, screens candidates for
    memory feasibility and prices the survivors in place, without the
    engine.  The response is the ranked recommendation plus, unless
    ``crossovers`` is false, the exact break-even bandwidths from
    :func:`repro.core.solve_crossover`.
    """

    model: ModelSpec
    cluster: ClusterConfig
    batch_size: Optional[int] = None
    crossovers: bool = True
    wait: bool = True
    timeout_s: Optional[float] = None

    kind = "whatif"

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "WhatIfRequest":
        """Validate and build from a decoded JSON object."""
        _require_fields(body, ("model", "gpus", "batch", "bandwidth",
                               "crossovers", "wait", "timeout_s"), cls.kind)
        crossovers = body.get("crossovers", True)
        wait = body.get("wait", True)
        if not isinstance(crossovers, bool):
            raise ConfigurationError(
                f"crossovers must be a bool, got {crossovers!r}")
        if not isinstance(wait, bool):
            raise ConfigurationError(f"wait must be a bool, got {wait!r}")
        return cls(model=_model_from(body), cluster=_cluster_from(body),
                   batch_size=_batch_from(body), crossovers=crossovers,
                   wait=wait, timeout_s=_timeout_from(body))


@dataclass(frozen=True)
class SimulateRequest:
    """``POST /v1/simulate`` — run the batch simulator.

    One :class:`~repro.engine.SimJob` per seed; requests that share
    model, cluster, scheme, batch and protocol but differ in seed share
    a ``family_key``, so the scheduler stacks them — across requests —
    into one vectorized kernel call.
    """

    model: ModelSpec
    cluster: ClusterConfig
    scheme: Optional[Scheme] = None
    batch_size: Optional[int] = None
    iterations: int = 60
    seeds: Tuple[int, ...] = (0,)
    wait: bool = False
    timeout_s: Optional[float] = None

    kind = "simulate"

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "SimulateRequest":
        """Validate and build from a decoded JSON object."""
        _require_fields(body, ("model", "gpus", "batch", "bandwidth",
                               "scheme", "iterations", "seeds", "seed",
                               "wait", "timeout_s"), cls.kind)
        scheme_spec = body.get("scheme")
        scheme = None
        if scheme_spec is not None:
            if not isinstance(scheme_spec, str):
                raise ConfigurationError(
                    f"scheme must be a spec string, got {scheme_spec!r}")
            scheme = scheme_from_spec(scheme_spec)
        iterations = body.get("iterations", 60)
        if not isinstance(iterations, int) or isinstance(iterations, bool) \
                or not 10 < iterations <= MAX_ITERATIONS:
            raise ConfigurationError(
                f"iterations must be an int in (10, {MAX_ITERATIONS}] "
                f"(warmup is 10), got {iterations!r}")
        if "seeds" in body and "seed" in body:
            raise ConfigurationError("pass either seed or seeds, not both")
        seeds_raw = body.get("seeds", [body.get("seed", 0)])
        if not isinstance(seeds_raw, list) or not seeds_raw or not all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0
                for s in seeds_raw):
            raise ConfigurationError(
                "seeds must be a non-empty list of non-negative ints, "
                f"got {seeds_raw!r}")
        if len(seeds_raw) > MAX_SEEDS_PER_REQUEST:
            raise ConfigurationError(
                f"at most {MAX_SEEDS_PER_REQUEST} seeds per request, "
                f"got {len(seeds_raw)}")
        wait = body.get("wait", False)
        if not isinstance(wait, bool):
            raise ConfigurationError(f"wait must be a bool, got {wait!r}")
        return cls(model=_model_from(body), cluster=_cluster_from(body),
                   scheme=scheme, batch_size=_batch_from(body),
                   iterations=iterations, seeds=tuple(seeds_raw),
                   wait=wait, timeout_s=_timeout_from(body))


@dataclass(frozen=True)
class AdviseRequest:
    """``POST /v1/advise`` — the sharded Pareto sweep as a service.

    The JSON spelling of ``repro advise``: the scheduler expands the
    request with :func:`repro.analysis.plan_sweep`, runs the shard jobs
    through the shared engine inside its batch (coalescing with other
    requests' work), and reduces with
    :func:`repro.analysis.finish_sweep` — so the response body is the
    CLI report's ``to_dict``, byte-identical to the offline path.
    Serving defaults are smaller than the CLI's (512 bandwidth points
    vs 8192) to keep request latency interactive; clients wanting the
    full million-config sweep pass ``bandwidth_points`` explicitly.
    """

    model: ModelSpec
    cluster: ClusterConfig
    batch_size: Optional[int] = None
    world_sizes: Tuple[int, ...] = (8, 16, 32, 64)
    min_bandwidth_gbps: float = 1.0
    max_bandwidth_gbps: float = 30.0
    bandwidth_points: int = 512
    shard_points: int = 256
    top: int = 12
    wait: bool = True
    timeout_s: Optional[float] = None

    kind = "advise"

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "AdviseRequest":
        """Validate and build from a decoded JSON object."""
        _require_fields(body, ("model", "gpus", "batch", "bandwidth",
                               "world_sizes", "min_bandwidth_gbps",
                               "max_bandwidth_gbps", "bandwidth_points",
                               "shard_points", "top", "wait", "timeout_s"),
                        cls.kind)
        world_sizes_raw = body.get("world_sizes", [8, 16, 32, 64])
        if not isinstance(world_sizes_raw, list) or not world_sizes_raw \
                or not all(isinstance(p, int) and not isinstance(p, bool)
                           and p >= 1 for p in world_sizes_raw):
            raise ConfigurationError(
                f"world_sizes must be a non-empty list of positive ints, "
                f"got {world_sizes_raw!r}")
        lo = _positive("min_bandwidth_gbps",
                       body.get("min_bandwidth_gbps", 1.0), "Gbit/s")
        hi = _positive("max_bandwidth_gbps",
                       body.get("max_bandwidth_gbps", 30.0), "Gbit/s")
        points = body.get("bandwidth_points", 512)
        shard = body.get("shard_points", 256)
        top = body.get("top", 12)
        for name, value, floor in (("bandwidth_points", points, 2),
                                   ("shard_points", shard, 1),
                                   ("top", top, 1)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < floor:
                raise ConfigurationError(
                    f"{name} must be an int >= {floor}, got {value!r}")
        wait = body.get("wait", True)
        if not isinstance(wait, bool):
            raise ConfigurationError(f"wait must be a bool, got {wait!r}")
        return cls(model=_model_from(body), cluster=_cluster_from(body),
                   batch_size=_batch_from(body),
                   world_sizes=tuple(world_sizes_raw),
                   min_bandwidth_gbps=lo, max_bandwidth_gbps=hi,
                   bandwidth_points=points, shard_points=shard, top=top,
                   wait=wait, timeout_s=_timeout_from(body))


def parse_request(kind: str, body: Any):
    """Dispatch a decoded JSON body to the right request class."""
    if not isinstance(body, dict):
        raise ConfigurationError(
            f"request body must be a JSON object, got {type(body).__name__}")
    if kind == "whatif":
        return WhatIfRequest.from_json(body)
    if kind == "simulate":
        return SimulateRequest.from_json(body)
    if kind == "advise":
        return AdviseRequest.from_json(body)
    raise ConfigurationError(f"unknown request kind {kind!r}")
