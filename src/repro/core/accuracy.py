"""Time-to-accuracy reasoning (§7's stated future work).

The paper analyzes per-iteration time only and notes that a complete
comparison must also account for the *statistical* cost of lossy
compression — extra iterations to reach the same loss.  This module
closes that loop using the numeric training substrate: it measures, per
method, a **statistical efficiency factor** (iterations the method needs
to reach a reference loss, relative to dense fp32 on the same problem)
and combines it with the performance model's per-iteration time into a
time-to-accuracy estimate.

The factor is measured on the small MLP workload, so it is a *proxy* —
exactly the kind of what-if input the paper envisions a practitioner
supplying — and the API also accepts externally supplied factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..compression.registry import get_method
from ..compression.schemes import Scheme, SyncSGDScheme
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from ..training import gaussian_blobs, train_with_method
from .perf_model import PerfModelInputs, predict

def steps_to_loss(losses: Sequence[float], target: float) -> Optional[int]:
    """First step whose *running-average* loss is at or below ``target``
    (running mean of 5 smooths the stochastic step noise)."""
    if target <= 0:
        raise ConfigurationError(f"target loss must be > 0, got {target}")
    window: list = []
    for i, loss in enumerate(losses):
        window.append(loss)
        if len(window) > 5:
            window.pop(0)
        if len(window) == 5 and float(np.mean(window)) <= target:
            return i
    return None


def measure_statistical_efficiency(method: str, target_loss: float = 0.1,
                                   max_steps: int = 400,
                                   num_workers: int = 4,
                                   seed: int = 0) -> float:
    """Iterations-to-target ratio of ``method`` vs dense fp32 (>= ~1).

    Returns ``inf`` when the method never reaches the target within
    ``max_steps`` (e.g. heavily biased methods without error feedback).
    The method's aggregator parameters and learning rate are its
    registry row's ``measurement``.
    """
    if get_method(method).measurement is None:
        raise ConfigurationError(
            f"no measurement setup for {method!r}")
    dataset = gaussian_blobs(num_samples=512, num_features=16,
                             num_classes=4, seed=seed)

    def run(name: str) -> Optional[int]:
        params, lr = get_method(name).measurement
        history = train_with_method(
            dataset, name, params or None, num_workers=num_workers,
            steps=max_steps, lr=lr, seed=seed)
        return steps_to_loss(history.losses, target_loss)

    base = run("fp32")
    if base is None:
        raise ConfigurationError(
            f"dense baseline did not reach loss {target_loss} in "
            f"{max_steps} steps — raise max_steps or the target")
    candidate = run(method)
    if candidate is None:
        return float("inf")
    return max(1.0, candidate / max(base, 1))


@dataclass(frozen=True)
class TimeToAccuracy:
    """Wall-clock to reach the dense baseline's quality."""

    scheme: str
    iteration_s: float
    statistical_factor: float

    @property
    def effective_iteration_s(self) -> float:
        """Per-iteration time adjusted for extra iterations needed."""
        return self.iteration_s * self.statistical_factor

    def total_s(self, baseline_iterations: int) -> float:
        """Time to match what the baseline does in
        ``baseline_iterations`` steps."""
        if baseline_iterations < 1:
            raise ConfigurationError(
                f"baseline_iterations must be >= 1, "
                f"got {baseline_iterations}")
        if math.isinf(self.statistical_factor):
            return float("inf")
        return baseline_iterations * self.effective_iteration_s


def time_to_accuracy(model: ModelSpec, scheme: Scheme,
                     inputs: PerfModelInputs,
                     statistical_factor: Optional[float] = None,
                     gpu: GPUSpec = V100) -> TimeToAccuracy:
    """Combine the perf model with a statistical-efficiency factor.

    If ``statistical_factor`` is not supplied it is measured on the
    substrate (slow-ish: trains two small MLPs).
    """
    if statistical_factor is None:
        statistical_factor = measure_statistical_efficiency(scheme.name)
    if statistical_factor < 1.0 and not math.isinf(statistical_factor):
        raise ConfigurationError(
            f"statistical factor must be >= 1, got {statistical_factor}")
    iteration = predict(model, scheme, inputs, gpu).total
    label = ("syncsgd" if isinstance(scheme, SyncSGDScheme)
             else scheme.label)
    return TimeToAccuracy(scheme=label, iteration_s=iteration,
                          statistical_factor=statistical_factor)
