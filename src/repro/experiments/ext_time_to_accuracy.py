"""Extension experiment: wall-clock to accuracy, end to end.

The paper's analysis stops at per-iteration time and flags accuracy as
future work (§7).  This experiment closes the loop *within one
consistent workload*: the numeric training substrate trains an MLP
data-parallel through the real compressors, while the performance model
prices each iteration of **the same MLP architecture** (via
:func:`repro.models.mlp_model`) on a simulated cluster.  Multiplying the
two yields loss-vs-wall-clock trajectories, from which we read the time
each method needs to reach a target loss.

The synthesis of the whole paper falls out of it:

* on a **slow network** (~1 Gbit/s), compression wins wall-clock-to-
  accuracy despite needing a few extra iterations;
* on a **datacenter network** (>= 10 Gbit/s), dense syncSGD (or fp16)
  wins — the per-iteration savings no longer cover the encode cost and
  the statistical penalty;
* signSGD has the cheapest iterations of all but *plateaus above the
  target loss* — the accuracy cost the paper says its timing analysis is
  generous about.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compression import make_scheme
from ..compression.registry import get_method
from ..core.accuracy import steps_to_loss
from ..core.perf_model import PerfModelInputs, predict
from ..errors import ConfigurationError
from ..models import ModelSpec, mlp_model
from ..training import gaussian_blobs, train_with_method
from ..units import gbps_to_bytes_per_s
from .runner import ExperimentResult

#: (method, aggregator params, scheme params, learning rate).
EXT_TTA_METHODS: Tuple[Tuple[str, Dict, Dict, float], ...] = (
    ("syncsgd", {}, {}, 0.2),
    ("fp16", {}, {}, 0.2),
    ("powersgd", {"rank": 2}, {"rank": 2}, 0.2),
    ("topk", {"fraction": 0.05}, {"fraction": 0.05}, 0.2),
    ("signsgd", {}, {}, 0.01),
)

#: MLP sized so communication is non-trivial but the numeric pure-Python
#: collectives still run in seconds.
EXT_TTA_HIDDEN: Tuple[int, ...] = (256, 256)
EXT_TTA_FEATURES = 128
EXT_TTA_CLASSES = 8


def _workload_spec() -> ModelSpec:
    """ModelSpec matching the trained MLP architecture exactly."""
    return mlp_model("ext-tta-mlp", EXT_TTA_FEATURES, EXT_TTA_HIDDEN,
                     EXT_TTA_CLASSES, default_batch_size=32)


def run_ext_tta(bandwidths_gbps: Sequence[float] = (1.0, 10.0),
                num_workers: int = 8, steps: int = 120,
                batch_size: int = 32, target_loss: float = 0.2,
                seed: int = 0) -> ExperimentResult:
    """Wall-clock-to-target-loss per method and bandwidth.

    The trained MLP uses ``num_workers`` logical workers; the simulated
    cluster prices the same worker count (the nearest 4-GPU-node
    multiple).
    """
    if steps < 10:
        raise ConfigurationError(f"steps must be >= 10, got {steps}")
    spec = _workload_spec()
    dataset = gaussian_blobs(
        num_samples=2048, num_features=EXT_TTA_FEATURES,
        num_classes=EXT_TTA_CLASSES, spread=1.2, seed=seed)

    rows: List[Dict[str, Any]] = []
    notes: List[str] = []
    for method, agg_params, scheme_params, lr in EXT_TTA_METHODS:
        history = train_with_method(
            dataset, get_method(method).method_name, agg_params or None,
            hidden_dims=EXT_TTA_HIDDEN, num_workers=num_workers,
            steps=steps, batch_size=batch_size, lr=lr, seed=seed)
        reached = steps_to_loss(history.losses, target_loss)
        # "Reaching" a target means getting there and *staying*: a method
        # that touches the target transiently and then diverges (signSGD's
        # fixed-magnitude updates oscillate near optima) has not reached it.
        end_loss = float(np.mean(history.losses[-10:]))
        if reached is not None and end_loss > target_loss:
            notes.append(
                f"{method} touched loss {target_loss} at step {reached} "
                f"but diverged (end-of-run loss {end_loss:.2f})")
            reached = None
        elif reached is None:
            notes.append(
                f"{method} did not reach loss {target_loss} in "
                f"{steps} steps")
        scheme = make_scheme(method, **scheme_params)
        for gbps in bandwidths_gbps:
            inputs = PerfModelInputs(
                world_size=num_workers,
                bandwidth_bytes_per_s=gbps_to_bytes_per_s(gbps),
                batch_size=batch_size)
            iteration_s = predict(spec, scheme, inputs).total
            rows.append({
                "method": method,
                "bandwidth_gbps": gbps,
                "iteration_ms": iteration_s * 1e3,
                "steps_to_target": (reached if reached is not None
                                    else float("nan")),
                "wallclock_to_target_s": (
                    reached * iteration_s if reached is not None
                    else float("inf")),
                "final_accuracy": history.final_accuracy,
            })
    return ExperimentResult(
        experiment_id="ext-tta",
        title=(f"Wall-clock to loss {target_loss} "
               f"({num_workers} workers, MLP "
               f"{EXT_TTA_FEATURES}-{'-'.join(map(str, EXT_TTA_HIDDEN))}"
               f"-{EXT_TTA_CLASSES})"),
        columns=("method", "bandwidth_gbps", "iteration_ms",
                 "steps_to_target", "wallclock_to_target_s",
                 "final_accuracy"),
        rows=tuple(rows),
        notes=tuple(notes),
    )
