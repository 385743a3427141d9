"""Terminal and markdown rendering of experiment outputs."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .charts import bar_chart, line_chart, scaling_chart
    from .markdown import comparison_table, to_markdown
    from .metrics_report import metrics_to_markdown, render_metrics
    from .reliability import (
        fault_penalty_gap,
        fault_penalty_threshold,
        reliability_findings,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".charts": ("bar_chart", "line_chart", "scaling_chart"),
    ".markdown": ("comparison_table", "to_markdown"),
    ".metrics_report": ("metrics_to_markdown", "render_metrics"),
    ".reliability": (
        "fault_penalty_gap", "fault_penalty_threshold", "reliability_findings",
    ),
})
