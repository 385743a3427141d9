"""Gradient compression: codecs, distributed aggregators, cost schemes."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .base import Aggregator, Compressor, Payload
    from .error_feedback import ErrorFeedback
    from .hybrid import HybridPowerSGDScheme
    from .identity import FP16Compressor, FP32Compressor
    from .kernel_cost import (
        TABLE2_POWERSGD_MS,
        TABLE2_SIGNSGD_MS,
        TABLE2_TOPK_MS,
        TABLE2_WORLD_SIZE,
        KernelProfile,
        calibrate_v100_profile,
        v100_kernel_profile,
    )
    from .lowrank import (
        ATOMOCompressor,
        GatherDecodeAggregator,
        GradiVeqCompressor,
        PowerSGDAggregator,
        PowerSGDCompressor,
        orthonormalize,
    )
    from .natural import EFSignCompressor, NaturalCompressor
    from .quantization import (
        OneBitCompressor,
        QSGDCompressor,
        TernGradCompressor,
    )
    from .registry import (
        METHODS,
        Method,
        available_methods,
        available_schemes,
        make_aggregator,
        make_compressor,
        make_scheme,
        scheme_from_spec,
    )
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
        SchemeCost,
        SignSGDScheme,
        SyncSGDScheme,
        TernGradScheme,
        TopKScheme,
    )
    from .signsgd import (
        MajorityVoteAggregator,
        SignSGDCompressor,
        majority_vote,
    )
    from .sparsification import (
        DGCCompressor,
        MeanAllReduceAggregator,
        RandomKCompressor,
        SparseGatherAggregator,
        TopKCompressor,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("Aggregator", "Compressor", "Payload"),
    ".error_feedback": ("ErrorFeedback",),
    ".hybrid": ("HybridPowerSGDScheme",),
    ".identity": ("FP16Compressor", "FP32Compressor"),
    ".kernel_cost": (
        "TABLE2_POWERSGD_MS", "TABLE2_SIGNSGD_MS", "TABLE2_TOPK_MS",
        "TABLE2_WORLD_SIZE", "KernelProfile", "calibrate_v100_profile",
        "v100_kernel_profile",
    ),
    ".lowrank": (
        "ATOMOCompressor", "GatherDecodeAggregator", "GradiVeqCompressor",
        "PowerSGDAggregator", "PowerSGDCompressor", "orthonormalize",
    ),
    ".natural": ("EFSignCompressor", "NaturalCompressor"),
    ".quantization": (
        "OneBitCompressor", "QSGDCompressor", "TernGradCompressor",
    ),
    ".registry": (
        "METHODS", "Method", "available_methods", "available_schemes",
        "make_aggregator", "make_compressor", "make_scheme",
        "scheme_from_spec",
    ),
    ".schemes": (
        "ATOMOScheme", "DGCScheme", "EFSignScheme", "FP16Scheme",
        "GradiVeqScheme", "NaturalScheme", "OneBitScheme", "PowerSGDScheme",
        "QSGDScheme", "RandomKScheme", "Scheme", "SchemeCost", "SignSGDScheme",
        "SyncSGDScheme", "TernGradScheme", "TopKScheme",
    ),
    ".signsgd": (
        "MajorityVoteAggregator", "SignSGDCompressor", "majority_vote",
    ),
    ".sparsification": (
        "DGCCompressor", "MeanAllReduceAggregator", "RandomKCompressor",
        "SparseGatherAggregator", "TopKCompressor",
    ),
})
