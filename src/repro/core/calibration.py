"""§4.3 calibration methodology, run against the simulated testbed.

The paper calibrates its model per experiment:

* **BW** — iperf3 between every instance pair, take the minimum;
* **α** — ring all-reduce of a tiny tensor, divide by the hop count;
* **γ** — the ratio of the backward-pass duration in a *distributed*
  Nsight trace to the single-machine backward time;
* **T_comp** — single-machine backward timing.

This module performs the same four measurements against a
:class:`~repro.network.Fabric` and the cluster simulator, returning
a :class:`~repro.core.perf_model.PerfModelInputs` ready for prediction.
Keeping calibration a *measurement* (rather than copying the fabric's
internal constants) means the Figure-8 validation is honest: the model
never sees ground truth it was not entitled to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..compression.schemes import Scheme
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..network import Fabric, estimate_alpha, measure_cluster
from ..simulator import DDPConfig, DDPSimulator
from ..simulator.trace import estimate_gamma
from .perf_model import PerfModelInputs


@dataclass(frozen=True)
class CalibrationReport:
    """Everything §4.3 measures before a run."""

    inputs: PerfModelInputs
    standalone_backward_s: float
    measured_gamma: float
    min_bandwidth_bytes_per_s: float
    alpha_s: float

    def describe(self) -> str:
        """One line of the measured inputs, in display units."""
        return (
            f"BW = {self.min_bandwidth_bytes_per_s * 8 / 1e9:.2f} Gbit/s "
            f"(pairwise min), alpha = {self.alpha_s * 1e6:.1f} us, "
            f"gamma = {self.measured_gamma:.3f}, "
            f"T_comp = {self.standalone_backward_s * 1e3:.1f} ms")


def calibrate(model: ModelSpec, cluster: ClusterConfig,
              batch_size: Optional[int] = None,
              fabric: Optional[Fabric] = None,
              config: Optional[DDPConfig] = None) -> CalibrationReport:
    """Run the paper's full pre-experiment calibration.

    γ is estimated from one simulated distributed iteration with jitter
    disabled (Nsight traces are single runs too); ``T_comp`` comes from a
    single-worker simulation of the same model.
    """
    fabric = fabric if fabric is not None else Fabric(cluster)
    bs = batch_size if batch_size is not None else model.default_batch_size
    base_cfg = config if config is not None else DDPConfig()

    report = measure_cluster(fabric)
    alpha = estimate_alpha(fabric)

    # T_comp on a single machine: intra-node NVLink communication does
    # not contend with compute, so the single-machine backward runs
    # unstretched (gamma = 1) — this is the paper's standalone timing.
    solo_cluster = ClusterConfig(
        instance=cluster.instance, num_nodes=1, seed=cluster.seed)
    solo_quiet = DDPConfig(
        bucket_cap_bytes=base_cfg.bucket_cap_bytes,
        overlap_communication=base_cfg.overlap_communication,
        gamma=1.0,
        allreduce_algorithm=base_cfg.allreduce_algorithm,
        compute_jitter=0.0, comm_jitter=0.0,
        check_memory=False)
    solo = DDPSimulator(model, solo_cluster, config=solo_quiet)
    solo_trace = solo.simulate_iteration(bs, np.random.default_rng(0))
    t_comp = solo_trace.backward_end - solo_trace.forward_end

    # γ from a distributed trace (with the engine's real gamma in play).
    quiet = DDPConfig(
        bucket_cap_bytes=base_cfg.bucket_cap_bytes,
        overlap_communication=base_cfg.overlap_communication,
        gamma=base_cfg.gamma,
        allreduce_algorithm=base_cfg.allreduce_algorithm,
        compute_jitter=0.0, comm_jitter=0.0,
        check_memory=False)
    dist = DDPSimulator(model, cluster, fabric=fabric, config=quiet)
    dist_trace = dist.simulate_iteration(bs, np.random.default_rng(0))
    gamma = max(1.0, estimate_gamma(dist_trace, t_comp))

    inputs = PerfModelInputs(
        world_size=cluster.world_size,
        bandwidth_bytes_per_s=report.min_bandwidth,
        alpha_s=alpha,
        gamma=gamma,
        batch_size=bs,
        bucket_cap_bytes=base_cfg.bucket_cap_bytes,
    )
    return CalibrationReport(
        inputs=inputs,
        standalone_backward_s=t_comp,
        measured_gamma=gamma,
        min_bandwidth_bytes_per_s=report.min_bandwidth,
        alpha_s=alpha,
    )
