"""Model-vs-measurement validation (the paper's Figure 8).

For a grid of cluster sizes, run the "real" system (the cluster
simulator, which includes bucket granularity, jitter and incast) and the
analytic performance model (which includes none of those), and report the
per-point and median relative errors.  The paper reports median errors of
1.8 % (syncSGD), 1.37 % (PowerSGD) and 14.2 % (signSGD, blamed on incast);
the same ordering falls out here because the simulator applies incast to
all-gather and the model does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..compression.schemes import Scheme, SyncSGDScheme
from ..errors import OutOfMemoryError
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..network import Fabric
from ..simulator import DDPConfig, DDPSimulator
from .calibration import calibrate
from .perf_model import predict


@dataclass(frozen=True)
class ValidationPoint:
    """One (cluster size) comparison of model vs measurement."""

    world_size: int
    measured_s: float
    measured_std_s: float
    predicted_s: float

    @property
    def relative_error(self) -> float:
        """|predicted - measured| / measured."""
        return abs(self.predicted_s - self.measured_s) / self.measured_s


@dataclass(frozen=True)
class ValidationCurve:
    """Model-vs-measurement across a scaling sweep for one scheme."""

    model: str
    scheme: str
    points: Tuple[ValidationPoint, ...]

    @property
    def median_error(self) -> float:
        """Median relative error over the sweep (NaN when empty)."""
        if not self.points:
            return float("nan")
        return float(np.median([p.relative_error for p in self.points]))

    @property
    def max_error(self) -> float:
        """Largest relative error over the sweep (NaN when empty)."""
        if not self.points:
            return float("nan")
        return float(max(p.relative_error for p in self.points))


def validate_schemes(model: ModelSpec, schemes: Sequence[Scheme],
                     clusters: Sequence[ClusterConfig],
                     batch_size: Optional[int] = None,
                     iterations: int = 110, warmup: int = 10,
                     seed: int = 0) -> List[ValidationCurve]:
    """Run the Figure-8 protocol for several schemes on one model.

    Returns one curve per scheme, in ``schemes`` order.  Cluster sizes
    whose simulated run OOMs (BERT + gather methods at scale) are
    skipped, exactly as the paper's plots stop at 32 GPUs.

    Each cluster builds one fabric and calibrates the model at most
    once, after the first scheme that fits: calibration never reads the
    scheme, and a cluster's fabric is drawn from its own seed, so every
    scheme is predicted from the same report.
    """
    bs = batch_size if batch_size is not None else model.default_batch_size
    points: List[List[ValidationPoint]] = [[] for _ in schemes]
    for cluster in clusters:
        fabric = Fabric(cluster)
        report = None
        for scheme, curve_points in zip(schemes, points):
            sim = DDPSimulator(model, cluster, scheme=scheme, fabric=fabric)
            try:
                result = sim.run(bs, iterations=iterations, warmup=warmup,
                                 seed=seed)
            except OutOfMemoryError:
                continue
            if report is None:
                report = calibrate(model, cluster, batch_size=bs,
                                   fabric=fabric)
            predicted = predict(model, scheme, report.inputs,
                                gpu=cluster.gpu).total
            curve_points.append(ValidationPoint(
                world_size=cluster.world_size,
                measured_s=result.mean,
                measured_std_s=result.std,
                predicted_s=predicted,
            ))
    return [
        ValidationCurve(
            model=model.name,
            scheme=scheme.label if not isinstance(scheme, SyncSGDScheme)
            else "syncsgd",
            points=tuple(curve_points),
        )
        for scheme, curve_points in zip(schemes, points)
    ]
