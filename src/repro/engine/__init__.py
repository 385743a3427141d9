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
        AdvisorShardResult,
        evaluate_advisor_family,
    )
    from .cache import CacheStats, SimulationCache
    from .engine import EngineStats, ExperimentEngine, JobOutcome, SimJob
    from .memcache import MemoryCache
    from .pack import PackStore
    from .fingerprint import FINGERPRINT_VERSION, model_digest
    from .modeljobs import ModelEvalJob, evaluate_family

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".advisorjobs": (
        "AdvisorShardJob", "AdvisorShardResult", "evaluate_advisor_family",
    ),
    ".cache": ("CacheStats", "SimulationCache"),
    ".engine": ("EngineStats", "ExperimentEngine", "JobOutcome", "SimJob"),
    ".memcache": ("MemoryCache",),
    ".pack": ("PackStore",),
    ".fingerprint": ("FINGERPRINT_VERSION", "model_digest"),
    ".modeljobs": ("ModelEvalJob", "evaluate_family"),
})
