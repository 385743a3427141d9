"""Post-hoc analyses: blocked-time bottlenecks, model sensitivity, and
the auto-advisor's sharded Pareto sweep."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .advisor import (
        SweepSpec,
        advise,
        candidate_grid,
        compression_error,
        finish_sweep,
        pareto_mask,
        plan_sweep,
    )
    from .bottleneck import blocked_time_analysis, time_breakdown
    from .sensitivity import model_sensitivities

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".advisor": (
        "SweepSpec", "advise", "candidate_grid", "compression_error",
        "finish_sweep", "pareto_mask", "plan_sweep",
    ),
    ".bottleneck": ("blocked_time_analysis", "time_breakdown"),
    ".sensitivity": ("model_sensitivities",),
})
