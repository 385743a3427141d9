"""repro — reproduction of "On the Utility of Gradient Compression in
Distributed Training Systems" (Agarwal et al., MLSys 2022).

The package provides, built from scratch on numpy/scipy:

* :mod:`repro.core` — the paper's performance model for DDP training
  with and without gradient compression, §4.3 calibration, ideal-scaling
  analysis (§5), and the what-if engine (§6);
* :mod:`repro.models` — layer-exact metadata for ResNet-50/101/152,
  BERT base/large, GPT-2 small and VGG-16;
* :mod:`repro.compression` — numerically real implementations of
  PowerSGD, Top-K, signSGD (majority vote), Random-K, QSGD, TernGrad,
  ATOMO, 1-bit SGD, DGC, fp16 and a GradiVeq-style projector, plus the
  calibrated kernel-cost model behind the paper's Table 2;
* :mod:`repro.collectives` — analytic cost models and step-accurate
  numeric ring/tree all-reduce, all-gather, parameter server;
* :mod:`repro.simulator` — a vectorized cluster simulator with
  DDP semantics (bucketing, overlap, contention, incast, OOM);
* :mod:`repro.training` — a numpy training substrate for end-to-end
  convergence validation of the compression algorithms;
* :mod:`repro.experiments` — a runner per table/figure of the paper.

Quickstart::

    from repro.models import get_model
    from repro.hardware import cluster_for_gpus
    from repro.simulator import DDPSimulator
    from repro.compression import PowerSGDScheme

    model = get_model("resnet50")
    cluster = cluster_for_gpus(32)
    base = DDPSimulator(model, cluster).run()
    comp = DDPSimulator(model, cluster, scheme=PowerSGDScheme(4)).run()
    print(base.mean, comp.mean)
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from .errors import (
    CalibrationError,
    CollectiveError,
    CompressionError,
    ConfigurationError,
    OutOfMemoryError,
    ReproError,
    SimulationError,
)

if TYPE_CHECKING:
    from . import (
        analysis,
        collectives,
        compression,
        compute,
        core,
        engine,
        experiments,
        faults,
        hardware,
        memo,
        models,
        network,
        reporting,
        serving,
        simulator,
        telemetry,
        training,
        units,
    )

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": (), ".models": (), ".hardware": (), ".network": (),
    ".collectives": (), ".compression": (), ".simulator": (),
    ".training": (), ".experiments": (), ".analysis": (),
    ".reporting": (), ".telemetry": (),
    ".engine": (), ".faults": (), ".serving": (), ".memo": (),
    ".units": (), ".compute": (),
})
__all__ += [
    "ReproError", "ConfigurationError", "OutOfMemoryError",
    "CollectiveError", "CompressionError", "SimulationError",
    "CalibrationError", "__version__",
]
