"""Name-based construction of compressors, aggregators and schemes.

Experiments and examples refer to methods by string (``"powersgd"``).
Each name has one :class:`Method` row in :data:`METHODS` that holds
every per-method fact the stack reads: the three faces of the method
(the single-tensor codec, the distributed aggregator, the cost scheme),
the advisor's hyperparameter grid, the ``repro recommend`` menu entries
and the statistical-efficiency measurement setup.  Adding a row is all
it takes for a method to appear everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import import_module
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple, Type, Union)

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

#: Constructor parameters, as one ``make_scheme`` or ``make_aggregator``
#: call takes them.
Params = Dict[str, Any]

#: Aggregators that encode for themselves and take the method's
#: parameters; every other aggregator wraps the method's codec.
_SELF_ENCODING = ("PowerSGDAggregator", "MajorityVoteAggregator")


@dataclass(frozen=True)
class Method:
    """Everything the stack knows about one compression method.

    Attributes:
        name: The scheme's registry name (``repro --scheme NAME``).
        scheme: The cost scheme class.  Its ``all_reducible`` and
            ``layerwise`` flags are the method's Table 1 row.
        codec: The single-tensor codec class, by its name in
            :mod:`repro.compression` so that naming methods imports no
            codec module (a class object for codecs defined elsewhere);
            ``None`` for a cost-only scheme.
        aggregator: The distributed aggregator class, likewise.
        error_feedback: Whether the aggregator is built with
            ``use_error_feedback=True``.
        codec_name: The codec's name where it differs from ``name``:
            the dense baseline is ``syncsgd`` as a scheme, ``fp32`` as a
            codec.
        grid: Constructor parameters the advisor sweeps
            (:func:`repro.analysis.candidate_grid`).
        menu: Constructor parameters of the method's entries in the
            ``repro recommend`` menu, which lists the rows in order.
        measurement: ``(aggregator parameters, learning rate)`` for
            :func:`repro.core.accuracy.measure_statistical_efficiency`,
            or ``None`` where it is not measured.
    """

    name: str
    scheme: Type[Scheme]
    codec: Union[str, type, None] = None
    aggregator: Union[str, type, None] = None
    error_feedback: bool = False
    codec_name: Optional[str] = None
    grid: Tuple[Params, ...] = ({},)
    menu: Tuple[Params, ...] = ()
    measurement: Optional[Tuple[Params, float]] = None

    @property
    def method_name(self) -> str:
        """The name the codec and aggregator answer to."""
        return self.codec_name or self.name

    @property
    def all_reducible(self) -> bool:
        """Table 1: whether payloads aggregate by all-reduce."""
        return self.scheme.all_reducible

    @property
    def layerwise(self) -> bool:
        """Table 1: whether the method compresses one layer at a time."""
        return self.scheme.layerwise


def _fractions(*values: float) -> Tuple[Params, ...]:
    return tuple({"fraction": f} for f in values)


def _ranks(*values: int) -> Tuple[Params, ...]:
    return tuple({"rank": r} for r in values)


#: One row per method, in the order of the ``repro recommend`` menu.
METHODS: Dict[str, Method] = {row.name: row for row in (
    Method("syncsgd", SyncSGDScheme, "FP32Compressor",
           "MeanAllReduceAggregator", codec_name="fp32", menu=({},),
           measurement=({}, 0.2)),
    Method("fp16", FP16Scheme, "FP16Compressor", "MeanAllReduceAggregator",
           menu=({},), measurement=({}, 0.2)),
    Method("powersgd", PowerSGDScheme, "PowerSGDCompressor",
           "PowerSGDAggregator", error_feedback=True,
           grid=_ranks(1, 2, 4, 8, 16, 32), menu=_ranks(4, 8),
           measurement=({"rank": 2}, 0.2)),
    Method("topk", TopKScheme, "TopKCompressor", "SparseGatherAggregator",
           error_feedback=True,
           grid=_fractions(0.001, 0.005, 0.01, 0.05, 0.1),
           menu=_fractions(0.01), measurement=({"fraction": 0.05}, 0.2)),
    Method("signsgd", SignSGDScheme, "SignSGDCompressor",
           "MajorityVoteAggregator", menu=({},), measurement=({}, 0.01)),
    Method("qsgd", QSGDScheme, "QSGDCompressor", "GatherDecodeAggregator",
           grid=tuple({"levels": lv} for lv in (4, 16, 64, 256)),
           measurement=({"levels": 16}, 0.2)),
    Method("terngrad", TernGradScheme, "TernGradCompressor",
           "GatherDecodeAggregator", measurement=({}, 0.2)),
    Method("onebit", OneBitScheme, "OneBitCompressor",
           "GatherDecodeAggregator", error_feedback=True,
           measurement=({}, 0.05)),
    Method("atomo", ATOMOScheme, "ATOMOCompressor", "GatherDecodeAggregator",
           error_feedback=True, grid=_ranks(1, 2, 4, 8)),
    Method("randomk", RandomKScheme, "RandomKCompressor",
           "MeanAllReduceAggregator",
           grid=_fractions(0.001, 0.005, 0.01, 0.05, 0.1),
           measurement=({"fraction": 0.25}, 0.2)),
    Method("dgc", DGCScheme, "DGCCompressor", "SparseGatherAggregator",
           error_feedback=True, grid=_fractions(0.0005, 0.001, 0.005, 0.01),
           measurement=({"fraction": 0.05}, 0.2)),
    Method("gradiveq", GradiVeqScheme, "GradiVeqCompressor",
           "MeanAllReduceAggregator",
           grid=({"block": 256, "dims": 32}, {"block": 512, "dims": 64},
                 {"block": 1024, "dims": 128}),
           measurement=({"block": 16, "dims": 4}, 0.2)),
    Method("natural", NaturalScheme, "NaturalCompressor",
           "GatherDecodeAggregator"),
    Method("efsignsgd", EFSignScheme, "EFSignCompressor",
           "GatherDecodeAggregator", error_feedback=True),
    Method("hybrid-powersgd", HybridPowerSGDScheme,
           grid=tuple({"rank": r, "min_layer_params": m}
                      for r in (2, 4, 8)
                      for m in (50_000, 100_000, 500_000))),
)}


def _find(name: str) -> Optional[Method]:
    row = METHODS.get(name)
    if row is None:
        row = next((r for r in METHODS.values() if r.codec_name == name),
                   None)
    return row


def get_method(name: str) -> Method:
    """The row of ``name``, by its scheme or its codec name."""
    row = _find(name)
    if row is None:
        raise ConfigurationError(
            f"unknown method {name!r}; available: {available_schemes()}")
    return row


def _with_codec(name: str) -> Method:
    """The row of ``name``, which must have a codec."""
    row = _find(name)
    if row is None or row.codec is None:
        raise ConfigurationError(
            f"unknown compressor {name!r}; available: {available_methods()}")
    return row


def _load(ref: Union[str, type]) -> Callable[..., Any]:
    """A codec or aggregator class; imports only the module defining it."""
    if isinstance(ref, str):
        return getattr(import_module(__package__), ref)
    return ref


def make_compressor(name: str, **params: Any) -> Compressor:
    """Construct the single-tensor codec registered under ``name``."""
    return _load(_with_codec(name).codec)(**params)


def make_scheme(name: str, **params: Any) -> Scheme:
    """Construct the cost scheme registered under ``name``."""
    if name not in METHODS:
        raise ConfigurationError(
            f"unknown scheme {name!r}; available: {available_schemes()}")
    try:
        return METHODS[name].scheme(**params)
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
    :class:`ConfigurationError`, and so does a value its constructor
    rejects (a fractional rank, a fraction outside ``(0, 1]``).
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

    The row names the strategy: PowerSGD's warm-started two-all-reduce
    algorithm, signSGD's majority vote, the mean all-reduce for the
    all-reducible codecs, and gather-and-decode for the rest (with error
    feedback for the biased ones, matching the reference systems).
    """
    row = _with_codec(name)
    strategy = _load(row.aggregator)
    options = {"use_error_feedback": True} if row.error_feedback else {}
    try:
        if row.aggregator in _SELF_ENCODING:
            return strategy(num_workers, **params, **options)
        return strategy(num_workers, make_compressor(name, **params),
                        **options)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters {params} for aggregator {name!r}: {exc}") from exc


def available_methods() -> List[str]:
    """Sorted names of all registered compression methods (codecs)."""
    return sorted(row.method_name for row in METHODS.values()
                  if row.codec is not None)


def available_schemes() -> List[str]:
    """Sorted names of all registered cost schemes.

    The scheme-level companion of :func:`available_methods`: the names
    :func:`make_scheme` accepts.  The advisor enumerates its candidate
    grid from the rows, so adding a :class:`Method` row is all it takes
    for the scheme to show up in ``repro advise`` (and, with ``menu``
    entries, in ``repro recommend``).
    """
    return sorted(METHODS)
