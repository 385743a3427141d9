"""Parallel sweep execution with content-addressed result caching.

The substrate under ``python -m repro experiment all --jobs N --cache
DIR`` and the experiment modules' grids: build :class:`SimJob` values,
hand them to an :class:`ExperimentEngine`, get outcomes back in order.
Closed-form what-if evaluations ride the same engine as
:class:`ModelEvalJob` batches — cached per point, evaluated per family
through the grid kernel — and the auto-advisor's bounded pricing
shards as :class:`AdvisorShardJob` batches.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .advisorjobs import (
        AdvisorShardJob,
        AdvisorShardOutcome,
        AdvisorShardResult,
        evaluate_advisor_family,
    )
    from .cache import CacheStats, SimulationCache
    from .engine import EngineStats, ExperimentEngine, JobOutcome, SimJob
    from .memcache import MemoryCache
    from .pack import PackLocation, PackStore
    from .fingerprint import (
        FINGERPRINT_VERSION,
        cluster_fragment,
        config_fragment,
        digest,
        fabric_payload,
        gpu_fragment,
        model_fragment,
        profile_fragment,
        scheme_payload,
    )
    from .modeljobs import ModelEvalJob, ModelEvalOutcome, evaluate_family

__all__ = [
    "CacheStats", "SimulationCache",
    "MemoryCache", "PackLocation", "PackStore",
    "EngineStats", "ExperimentEngine", "JobOutcome", "SimJob",
    "ModelEvalJob", "ModelEvalOutcome", "evaluate_family",
    "AdvisorShardJob", "AdvisorShardOutcome", "AdvisorShardResult",
    "evaluate_advisor_family",
    "FINGERPRINT_VERSION", "digest",
    "model_fragment", "cluster_fragment", "config_fragment",
    "profile_fragment", "gpu_fragment", "scheme_payload", "fabric_payload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".advisorjobs": (
        "AdvisorShardJob", "AdvisorShardOutcome", "AdvisorShardResult",
        "evaluate_advisor_family",
    ),
    ".cache": ("CacheStats", "SimulationCache"),
    ".engine": ("EngineStats", "ExperimentEngine", "JobOutcome", "SimJob"),
    ".memcache": ("MemoryCache",),
    ".pack": ("PackLocation", "PackStore"),
    ".fingerprint": (
        "FINGERPRINT_VERSION", "cluster_fragment", "config_fragment", "digest",
        "fabric_payload", "gpu_fragment", "model_fragment", "profile_fragment",
        "scheme_payload",
    ),
    ".modeljobs": ("ModelEvalJob", "ModelEvalOutcome", "evaluate_family"),
})
