"""Name-based construction of compressors, aggregators and schemes.

Experiments and examples refer to methods by string (``"powersgd"``);
this module maps those names to the three faces of each method: the
single-tensor codec, the distributed aggregator, and the cost scheme.
"""

from __future__ import annotations

import math
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Dict, List

from ..errors import ConfigurationError
from .hybrid import HybridPowerSGDScheme
from .schemes import (
    ATOMOScheme,
    DGCScheme,
    EFSignScheme,
    FP16Scheme,
    GradiVeqScheme,
    NaturalScheme,
    OneBitScheme,
    PowerSGDScheme,
    QSGDScheme,
    RandomKScheme,
    Scheme,
    SignSGDScheme,
    SyncSGDScheme,
    TernGradScheme,
    TopKScheme,
)

if TYPE_CHECKING:
    from .base import Aggregator, Compressor

#: Codec class per method, by its name in :mod:`repro.compression`:
#: naming the methods imports none of the numeric codecs.
_COMPRESSORS: Dict[str, str] = {
    "fp32": "FP32Compressor",
    "fp16": "FP16Compressor",
    "signsgd": "SignSGDCompressor",
    "topk": "TopKCompressor",
    "randomk": "RandomKCompressor",
    "dgc": "DGCCompressor",
    "qsgd": "QSGDCompressor",
    "terngrad": "TernGradCompressor",
    "onebit": "OneBitCompressor",
    "powersgd": "PowerSGDCompressor",
    "atomo": "ATOMOCompressor",
    "gradiveq": "GradiVeqCompressor",
    "natural": "NaturalCompressor",
    "efsignsgd": "EFSignCompressor",
}

_SCHEMES: Dict[str, Callable[..., Scheme]] = {
    "syncsgd": SyncSGDScheme,
    "fp16": FP16Scheme,
    "powersgd": PowerSGDScheme,
    "topk": TopKScheme,
    "signsgd": SignSGDScheme,
    "qsgd": QSGDScheme,
    "terngrad": TernGradScheme,
    "onebit": OneBitScheme,
    "atomo": ATOMOScheme,
    "randomk": RandomKScheme,
    "dgc": DGCScheme,
    "gradiveq": GradiVeqScheme,
    "natural": NaturalScheme,
    "efsignsgd": EFSignScheme,
    "hybrid-powersgd": HybridPowerSGDScheme,
}


def _codec(class_name: str) -> Callable[..., Any]:
    """A codec or aggregator class; imports only the module defining it."""
    return getattr(import_module(__package__), class_name)


def make_compressor(name: str, **params: Any) -> Compressor:
    """Construct the single-tensor codec registered under ``name``."""
    if name not in _COMPRESSORS:
        raise ConfigurationError(
            f"unknown compressor {name!r}; available: {available_methods()}")
    return _codec(_COMPRESSORS[name])(**params)


def make_scheme(name: str, **params: Any) -> Scheme:
    """Construct the cost scheme registered under ``name``."""
    if name not in _SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {name!r}; available: {sorted(_SCHEMES)}")
    try:
        return _SCHEMES[name](**params)
    except TypeError as exc:
        # An unknown or missing keyword: a bad spec, not a crash.
        raise ConfigurationError(
            f"bad parameters {params} for scheme {name!r}: {exc}") from exc


def scheme_from_spec(spec: str) -> Scheme:
    """Parse a ``'name'`` or ``'name:key=value,key=value'`` spec string.

    The textual scheme syntax the CLI (``--scheme powersgd:rank=4``)
    and the serving API share; numeric parameter values become ``int``
    when possible, ``float`` otherwise.  Non-finite values (``nan``,
    ``inf``) and parameters the scheme does not take raise
    :class:`ConfigurationError`.
    """
    name, _, params_text = spec.partition(":")
    params: Dict[str, Any] = {}
    if params_text:
        for item in params_text.split(","):
            key, _, value = item.partition("=")
            if not key or not value:
                raise ConfigurationError(
                    f"bad scheme parameter {item!r} in spec {spec!r}")
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ConfigurationError(
                        f"non-numeric scheme parameter {item!r} "
                        f"in spec {spec!r}")
                if not math.isfinite(params[key]):
                    raise ConfigurationError(
                        f"non-finite scheme parameter {item!r} "
                        f"in spec {spec!r}")
    return make_scheme(name, **params)


def make_aggregator(name: str, num_workers: int, **params: Any) -> Aggregator:
    """Construct the distributed aggregator for method ``name``.

    Routes each method to its aggregation strategy: PowerSGD to the
    warm-started two-all-reduce algorithm, all-reducible codecs to the
    mean-all-reduce path, the rest to gather-and-decode (with error
    feedback for the biased sparsifiers, matching the reference systems).
    """
    if name == "powersgd":
        return _codec("PowerSGDAggregator")(num_workers, **params)
    if name == "signsgd":
        if params:
            raise ConfigurationError(
                f"signsgd aggregator takes no parameters, got {params}")
        return _codec("MajorityVoteAggregator")(num_workers)
    if name in ("fp32", "fp16", "randomk", "gradiveq"):
        return _codec("MeanAllReduceAggregator")(
            num_workers, make_compressor(name, **params))
    if name in ("topk", "dgc"):
        return _codec("SparseGatherAggregator")(
            num_workers, make_compressor(name, **params),
            use_error_feedback=True)
    if name in ("qsgd", "terngrad", "atomo", "onebit", "natural",
                "efsignsgd"):
        use_ef = name in ("atomo", "onebit", "efsignsgd")  # the biased ones
        return _codec("GatherDecodeAggregator")(
            num_workers, make_compressor(name, **params),
            use_error_feedback=use_ef)
    raise ConfigurationError(
        f"unknown aggregator {name!r}; available: {available_methods()}")


def available_methods() -> List[str]:
    """Sorted names of all registered compression methods."""
    return sorted(_COMPRESSORS)


def available_schemes() -> List[str]:
    """Sorted names of all registered cost schemes.

    The scheme-level companion of :func:`available_methods`: the names
    :func:`make_scheme` accepts.  The advisor enumerates its candidate
    grid from this list, so registering a scheme here is all it takes
    for the scheme to show up in ``repro advise`` and, via
    :func:`repro.core.advisor.default_candidates`, ``repro recommend``.
    """
    return sorted(_SCHEMES)
