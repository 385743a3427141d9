"""The paper's primary contribution: performance model + what-if engine."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .accuracy import (
        TimeToAccuracy,
        measure_statistical_efficiency,
        steps_to_loss,
        time_to_accuracy,
    )
    from .advisor import (
        CandidateVerdict,
        Recommendation,
        default_candidates,
        recommend,
        recommend_for_inputs,
    )
    from .calibration import CalibrationReport, calibrate
    from .grid import (
        TimingGrid,
        backward_time_grid,
        compressed_time_grid,
        syncsgd_time_grid,
        tradeoff_time_grid,
    )
    from .ideal import (
        HeadroomPoint,
        RequiredCompression,
        communicable_bytes,
        headroom_curve,
        required_compression,
        required_compression_curve,
    )
    from .perf_model import (
        PerfModelInputs,
        PredictedTime,
        compressed_time,
        predict,
        speedup_over_syncsgd,
        syncsgd_time,
    )
    from .planning import (
        CostEstimate,
        EpochEstimate,
        StrongScalingPoint,
        batch_size_plan,
        epoch_time,
        strong_scaling_sweep,
        training_cost,
    )
    from .validation import ValidationCurve, ValidationPoint, validate_schemes
    from .whatif import (
        Crossing,
        TradeoffPoint,
        WhatIfPoint,
        bandwidth_sweep,
        compute_sweep,
        encode_tradeoff_grid,
        find_crossover_gbps,
        solve_crossover,
        sweep_crossings,
    )

__all__ = [
    "PerfModelInputs", "PredictedTime", "syncsgd_time", "compressed_time",
    "predict", "speedup_over_syncsgd",
    "CalibrationReport", "calibrate",
    "ValidationPoint", "ValidationCurve", "validate_schemes",
    "RequiredCompression", "communicable_bytes", "required_compression",
    "required_compression_curve",
    "HeadroomPoint", "headroom_curve",
    "TimingGrid", "backward_time_grid", "syncsgd_time_grid",
    "compressed_time_grid", "tradeoff_time_grid",
    "WhatIfPoint", "bandwidth_sweep", "compute_sweep", "TradeoffPoint",
    "encode_tradeoff_grid",
    "Crossing", "sweep_crossings", "find_crossover_gbps", "solve_crossover",
    "Recommendation", "CandidateVerdict", "recommend",
    "recommend_for_inputs", "default_candidates",
    "EpochEstimate", "epoch_time", "batch_size_plan",
    "CostEstimate", "training_cost",
    "StrongScalingPoint", "strong_scaling_sweep",
    "TimeToAccuracy", "time_to_accuracy",
    "measure_statistical_efficiency", "steps_to_loss",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".accuracy": (
        "TimeToAccuracy", "measure_statistical_efficiency", "steps_to_loss",
        "time_to_accuracy",
    ),
    ".advisor": (
        "CandidateVerdict", "Recommendation", "default_candidates",
        "recommend", "recommend_for_inputs",
    ),
    ".calibration": ("CalibrationReport", "calibrate"),
    ".grid": (
        "TimingGrid", "backward_time_grid", "compressed_time_grid",
        "syncsgd_time_grid", "tradeoff_time_grid",
    ),
    ".ideal": (
        "HeadroomPoint", "RequiredCompression", "communicable_bytes",
        "headroom_curve", "required_compression", "required_compression_curve",
    ),
    ".perf_model": (
        "PerfModelInputs", "PredictedTime", "compressed_time", "predict",
        "speedup_over_syncsgd", "syncsgd_time",
    ),
    ".planning": (
        "CostEstimate", "EpochEstimate", "StrongScalingPoint",
        "batch_size_plan", "epoch_time", "strong_scaling_sweep",
        "training_cost",
    ),
    ".validation": ("ValidationCurve", "ValidationPoint", "validate_schemes"),
    ".whatif": (
        "Crossing", "TradeoffPoint", "WhatIfPoint", "bandwidth_sweep",
        "compute_sweep", "encode_tradeoff_grid", "find_crossover_gbps",
        "solve_crossover", "sweep_crossings",
    ),
})
