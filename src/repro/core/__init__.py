"""The paper's primary contribution: performance model + what-if engine."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .accuracy import (
        measure_statistical_efficiency,
        steps_to_loss,
        time_to_accuracy,
    )
    from .advisor import default_candidates, recommend, recommend_for_inputs
    from .calibration import CalibrationReport, calibrate
    from .grid import (
        TimingGrid,
        backward_time_grid,
        compressed_time_grid,
        syncsgd_time_grid,
        tradeoff_time_grid,
    )
    from .ideal import (
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
        batch_size_plan,
        epoch_time,
        strong_scaling_sweep,
        training_cost,
    )
    from .validation import validate_schemes
    from .whatif import (
        TradeoffPoint,
        WhatIfPoint,
        bandwidth_sweep,
        compute_sweep,
        encode_tradeoff_grid,
        find_crossover_gbps,
        solve_crossover,
        sweep_crossings,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".accuracy": (
        "measure_statistical_efficiency", "steps_to_loss", "time_to_accuracy",
    ),
    ".advisor": ("default_candidates", "recommend", "recommend_for_inputs"),
    ".calibration": ("CalibrationReport", "calibrate"),
    ".grid": (
        "TimingGrid", "backward_time_grid", "compressed_time_grid",
        "syncsgd_time_grid", "tradeoff_time_grid",
    ),
    ".ideal": (
        "communicable_bytes", "headroom_curve", "required_compression",
        "required_compression_curve",
    ),
    ".perf_model": (
        "PerfModelInputs", "PredictedTime", "compressed_time", "predict",
        "speedup_over_syncsgd", "syncsgd_time",
    ),
    ".planning": (
        "batch_size_plan", "epoch_time", "strong_scaling_sweep",
        "training_cost",
    ),
    ".validation": ("validate_schemes",),
    ".whatif": (
        "TradeoffPoint", "WhatIfPoint", "bandwidth_sweep", "compute_sweep",
        "encode_tradeoff_grid", "find_crossover_gbps", "solve_crossover",
        "sweep_crossings",
    ),
})
