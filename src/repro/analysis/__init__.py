"""Post-hoc analyses: blocked-time bottlenecks, model sensitivity, and
the auto-advisor's sharded Pareto sweep."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .advisor import (
        AdvisorReport,
        FrontierPoint,
        SweepPlan,
        SweepSpec,
        advise,
        candidate_grid,
        compression_error,
        finish_sweep,
        pareto_mask,
        plan_sweep,
    )
    from .bottleneck import (
        BlockedTimeReport,
        TimeBreakdown,
        blocked_time_analysis,
        time_breakdown,
    )
    from .sensitivity import (
        DEFAULT_EPSILON,
        Sensitivities,
        model_sensitivities,
    )

__all__ = [
    "TimeBreakdown", "time_breakdown",
    "BlockedTimeReport", "blocked_time_analysis",
    "Sensitivities", "model_sensitivities", "DEFAULT_EPSILON",
    "AdvisorReport", "FrontierPoint", "SweepPlan", "SweepSpec",
    "advise", "plan_sweep", "finish_sweep",
    "candidate_grid", "compression_error", "pareto_mask",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".advisor": (
        "AdvisorReport", "FrontierPoint", "SweepPlan", "SweepSpec", "advise",
        "candidate_grid", "compression_error", "finish_sweep",
        "pareto_mask", "plan_sweep",
    ),
    ".bottleneck": (
        "BlockedTimeReport", "TimeBreakdown", "blocked_time_analysis",
        "time_breakdown",
    ),
    ".sensitivity": (
        "DEFAULT_EPSILON", "Sensitivities", "model_sensitivities",
    ),
})
