"""Figure 12: what-if on compute speed at fixed 10 Gbit/s.

As GPUs get faster, syncSGD becomes communication-bound and stops
improving, while compression keeps gaining (its encode/decode shrinks with
compute too).  The benchmark asserts the paper's qualitative claims:
syncSGD's time saturates; PowerSGD's keeps dropping; the speedup grows
monotonically with the compute factor and exceeds 1.75x well before 4x
compute for ResNet-50.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..compression.schemes import PowerSGDScheme
from ..core import PerfModelInputs, compute_sweep
from ..models import get_model
from ..units import gbps_to_bytes_per_s
from .runner import ExperimentResult

#: Compute-speed multipliers swept (1x = today's V100).
FIG12_FACTORS: Tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

#: (model, batch) pairs shown.
FIG12_WORKLOADS: Tuple[Tuple[str, int], ...] = (
    ("resnet50", 64),
    ("resnet101", 64),
    ("bert-base", 12),
)


def run_fig12(num_gpus: int = 64, rank: int = 4,
              bandwidth_gbps: float = 10.0,
              factors: Sequence[float] = FIG12_FACTORS,
              workloads: Sequence[Tuple[str, int]] = FIG12_WORKLOADS,
              engine=None) -> ExperimentResult:
    """syncSGD vs PowerSGD as compute speeds up, network fixed.

    Grid-kernel evaluated; an ``engine`` adds per-point caching and
    family grid calls with byte-identical rows.
    """
    rows: List[Dict[str, Any]] = []
    for model_name, batch_size in workloads:
        model = get_model(model_name)
        inputs = PerfModelInputs(
            world_size=num_gpus,
            bandwidth_bytes_per_s=gbps_to_bytes_per_s(bandwidth_gbps),
            batch_size=batch_size)
        for point in compute_sweep(
                model, PowerSGDScheme(rank=rank), factors, inputs,
                engine=engine):
            rows.append({
                "model": model_name,
                "compute_factor": point.x,
                "syncsgd_ms": point.syncsgd_s * 1e3,
                "powersgd_ms": point.compressed_s * 1e3,
                "speedup_ratio": point.syncsgd_s / point.compressed_s,
            })
    return ExperimentResult(
        experiment_id="fig12",
        title=(f"Effect of compute speedup at {bandwidth_gbps:g} Gbit/s "
               f"(PowerSGD rank-{rank}, {num_gpus} GPUs)"),
        columns=("model", "compute_factor", "syncsgd_ms", "powersgd_ms",
                 "speedup_ratio"),
        rows=tuple(rows),
    )
