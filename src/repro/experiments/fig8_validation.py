"""Figure 8: validating the performance model against measurements.

The paper compares model predictions to real cluster measurements and
reports median relative errors of 1.8 % (syncSGD), 1.37 % (PowerSGD) and
14.2 % (signSGD) — the signSGD gap attributed to all-gather incast, which
the model does not capture.  Here "measured" is the cluster
simulator (which *does* model incast and jitter) and the prediction is
the calibrated analytic model, so the same error structure emerges for
the same reason.  The benchmark asserts the error ordering:
signSGD error >> syncSGD/PowerSGD errors, with the all-reducible schemes
under a few percent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compression.schemes import (
    PowerSGDScheme,
    Scheme,
    SignSGDScheme,
    SyncSGDScheme,
)
from ..core import validate_schemes
from ..models import get_model
from .runner import PAPER_GPU_SWEEP, ExperimentResult, scaling_clusters

#: The three schemes Figure 8 validates.
FIG8_SCHEMES: Tuple[Scheme, ...] = (
    SyncSGDScheme(),
    PowerSGDScheme(rank=4),
    SignSGDScheme(),
)

#: (model, batch) pairs to validate on.
FIG8_WORKLOADS: Tuple[Tuple[str, int], ...] = (
    ("resnet50", 64),
    ("resnet101", 64),
    ("bert-base", 12),
)


def run_fig8(gpu_counts: Sequence[int] = PAPER_GPU_SWEEP,
             workloads: Sequence[Tuple[str, int]] = FIG8_WORKLOADS,
             iterations: int = 40, warmup: int = 5,
             seed: int = 0) -> ExperimentResult:
    """Model-vs-simulator validation across the scaling sweep."""
    clusters = scaling_clusters(gpu_counts)
    rows: List[Dict[str, Any]] = []
    for model_name, batch_size in workloads:
        curves = validate_schemes(
            get_model(model_name), FIG8_SCHEMES, clusters,
            batch_size=batch_size, iterations=iterations, warmup=warmup,
            seed=seed)
        for curve in curves:
            for point in curve.points:
                rows.append({
                    "model": model_name,
                    "scheme": curve.scheme,
                    "gpus": point.world_size,
                    "measured_ms": point.measured_s * 1e3,
                    "predicted_ms": point.predicted_s * 1e3,
                    "rel_error": point.relative_error,
                })
    return ExperimentResult(
        experiment_id="fig8",
        title="Performance model vs measured (simulated) iteration time",
        columns=("model", "scheme", "gpus", "measured_ms", "predicted_ms",
                 "rel_error"),
        rows=tuple(rows),
    )


def median_errors(result: ExperimentResult) -> Dict[str, float]:
    """Median relative error per scheme (the paper's summary numbers)."""
    import numpy as np

    by_scheme: Dict[str, List[float]] = {}
    for row in result.rows:
        by_scheme.setdefault(row["scheme"], []).append(row["rel_error"])
    return {scheme: float(np.median(errors))
            for scheme, errors in by_scheme.items()}
