"""Terminal and markdown rendering of telemetry metric snapshots.

A snapshot (``repro.telemetry.MetricsRegistry.snapshot()``) is a plain
dict of counters, gauges and histogram summaries; these renderers turn
it into the ``--metrics`` CLI report and a paste-ready markdown table.
Both check the snapshot's shape with
:func:`repro.telemetry.metrics.check_snapshot` first.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from ..telemetry.metrics import check_snapshot


def _fmt(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_metrics(snapshot: Dict[str, Any]) -> str:
    """Plain-text metrics report, one metric per line, sorted."""
    check_snapshot(snapshot)
    lines = ["metrics:"]
    for name, value in sorted(snapshot["counters"].items()):
        lines.append(f"  {name} = {_fmt(value)}")
    for name, value in sorted(snapshot["gauges"].items()):
        lines.append(f"  {name} = {_fmt(value)}")
    for name, summary in sorted(snapshot["histograms"].items()):
        lines.append(
            f"  {name}: count={summary['count']} "
            f"mean={summary['mean']:.6g} p50={summary['p50']:.6g} "
            f"p99={summary['p99']:.6g} max={summary['max']:.6g}")
    if len(lines) == 1:
        lines.append("  (none recorded)")
    return "\n".join(lines)


def metrics_to_markdown(snapshot: Dict[str, Any]) -> str:
    """Markdown tables (scalars, then histogram summaries)."""
    check_snapshot(snapshot)
    scalars = {**snapshot["counters"], **snapshot["gauges"]}
    lines = []
    if scalars:
        lines += ["| metric | value |", "|---|---|"]
        lines += [f"| `{name}` | {_fmt(value)} |"
                  for name, value in sorted(scalars.items())]
    if snapshot["histograms"]:
        if lines:
            lines.append("")
        lines += ["| histogram | count | mean | p50 | p90 | p99 | max |",
                  "|---|---|---|---|---|---|---|"]
        for name, s in sorted(snapshot["histograms"].items()):
            lines.append(
                f"| `{name}` | {s['count']} | {s['mean']:.6g} | "
                f"{s['p50']:.6g} | {s['p90']:.6g} | {s['p99']:.6g} | "
                f"{s['max']:.6g} |")
    return "\n".join(lines) if lines else "*(no metrics recorded)*"
