"""Figure 13: trading encode/decode time against compression ratio.

Hypothetical schemes derived from PowerSGD rank-4: encode/decode time
divided by ``k`` (1..4), payload multiplied by ``l*k`` (l in 1..3).  The
paper's conclusion, asserted by the benchmark: *any* reduction in encode
time helps, even when it costs substantially more communication — i.e.
compression research should optimize encode speed, not ratio.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..compression.schemes import PowerSGDScheme
from ..core import PerfModelInputs, encode_tradeoff_grid
from ..models import get_model
from ..units import gbps_to_bytes_per_s
from .runner import ExperimentResult

#: The k (encode-time divisor) and l (size penalty) grids of the figure.
FIG13_KS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
FIG13_LS: Tuple[float, ...] = (1.0, 2.0, 3.0)

#: (model, batch) pairs shown.
FIG13_WORKLOADS: Tuple[Tuple[str, int], ...] = (
    ("resnet50", 64),
    ("resnet101", 64),
    ("bert-base", 12),
)


def run_fig13(num_gpus: int = 64, rank: int = 4,
              bandwidth_gbps: float = 10.0,
              ks: Sequence[float] = FIG13_KS,
              ls: Sequence[float] = FIG13_LS,
              workloads: Sequence[Tuple[str, int]] = FIG13_WORKLOADS,
              engine=None) -> ExperimentResult:
    """Encode-time/ratio trade-off grid, per workload.

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
        for point in encode_tradeoff_grid(
                model, PowerSGDScheme(rank=rank), ks, ls, inputs,
                engine=engine):
            rows.append({
                "model": model_name,
                "k": point.k,
                "l": point.l,
                "predicted_ms": point.predicted_s * 1e3,
                "syncsgd_ms": point.syncsgd_s * 1e3,
                "speedup": point.speedup,
            })
    return ExperimentResult(
        experiment_id="fig13",
        title=(f"Encode-time vs compression-ratio trade-off "
               f"(PowerSGD rank-{rank} base, {num_gpus} GPUs, "
               f"{bandwidth_gbps:g} Gbit/s)"),
        columns=("model", "k", "l", "predicted_ms", "syncsgd_ms",
                 "speedup"),
        rows=tuple(rows),
    )
