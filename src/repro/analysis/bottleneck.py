"""Blocked-time analysis of simulated iterations.

The paper's methodology descends from Ousterhout et al.'s blocked-time
analysis [43]: instead of asking "how much time does resource X use?",
ask "how much faster would the job be if X were free?".  This module
answers both for a simulated iteration:

* :func:`time_breakdown` — wall-clock attribution per phase (forward,
  backward, encode/decode, exposed communication, optimizer, idle);
* :func:`blocked_time_analysis` — counterfactual re-simulation with one
  resource made free (infinite bandwidth, zero encode cost, infinitely
  fast compute), reporting the speedup each would unlock.

The counterfactuals use the same simulator configuration with one knob
idealized, so they account for overlap correctly — making communication
free does *not* save the time that was already hidden under the backward
pass, which is precisely the paper's point about limited opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..compression.schemes import Scheme
from ..errors import ConfigurationError
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..network import Fabric
from ..simulator import COMM_STREAM, COMPUTE_STREAM, DDPConfig, DDPSimulator
from ..simulator.trace import IterationTrace


@dataclass(frozen=True)
class TimeBreakdown:
    """Wall-clock attribution for one iteration (seconds)."""

    forward: float
    backward: float
    encode_decode: float
    comm_exposed: float
    comm_hidden: float
    optimizer: float
    total: float

    def as_dict(self) -> Dict[str, float]:
        """The six phases by name, in seconds (``total`` left out)."""
        return {
            "forward": self.forward,
            "backward": self.backward,
            "encode_decode": self.encode_decode,
            "comm_exposed": self.comm_exposed,
            "comm_hidden": self.comm_hidden,
            "optimizer": self.optimizer,
        }

    def render(self) -> str:
        """Each phase in ms with its share of the total, as a bar."""
        lines = [f"iteration total: {self.total * 1e3:.1f} ms"]
        for name, value in self.as_dict().items():
            share = value / self.total if self.total > 0 else 0.0
            lines.append(f"  {name:<14} {value * 1e3:7.1f} ms  "
                         f"{share:6.1%}  |{'#' * int(share * 40)}")
        return "\n".join(lines)


def time_breakdown(trace: IterationTrace) -> TimeBreakdown:
    """Attribute one simulated iteration's wall clock to phases.

    Communication is split into the part hidden under compute-stream
    activity and the part that extends the iteration (*exposed*).
    """
    if not trace.spans:
        raise ConfigurationError("trace has no spans")
    by_label: Dict[str, float] = {}
    for span in trace.spans:
        if span.stream == COMPUTE_STREAM:
            key = span.label.split("+")[0]
            if span.label == "backward+encode":
                key = "backward"
            by_label[key] = by_label.get(key, 0.0) + span.duration
    comm_total = trace.stream_busy_time(COMM_STREAM)
    comm_hidden = min(comm_total, trace.compute_comm_overlap())
    comm_exposed = comm_total - comm_hidden

    encode = (by_label.get("encode", 0.0) + by_label.get("decode", 0.0)
              + by_label.get("bucket-cast", 0.0))
    return TimeBreakdown(
        forward=by_label.get("forward", 0.0),
        backward=by_label.get("backward", 0.0),
        encode_decode=encode,
        comm_exposed=comm_exposed,
        comm_hidden=comm_hidden,
        optimizer=by_label.get("optimizer", 0.0),
        total=trace.iteration_end,
    )


@dataclass(frozen=True)
class BlockedTimeReport:
    """Counterfactual speedups: iteration time if a resource were free."""

    baseline_s: float
    free_network_s: float
    free_encode_s: float
    fast_compute_s: float

    def speedup_if(self, what: str) -> float:
        """Fractional iteration-time reduction for one counterfactual
        (``"network"``, ``"encode"`` or ``"compute"``)."""
        mapping = {"network": self.free_network_s,
                   "encode": self.free_encode_s,
                   "compute": self.fast_compute_s}
        if what not in mapping:
            raise ConfigurationError(
                f"unknown counterfactual {what!r}; "
                f"choose from {sorted(mapping)}")
        return (self.baseline_s - mapping[what]) / self.baseline_s

    def dominant_bottleneck(self) -> str:
        """The resource whose removal helps most."""
        return max(("network", "encode", "compute"), key=self.speedup_if)

    def render(self) -> str:
        """The speedup if each resource were free, and the dominant
        bottleneck."""
        lines = [f"baseline iteration: {self.baseline_s * 1e3:.1f} ms"]
        for what in ("network", "encode", "compute"):
            lines.append(
                f"  if {what:<8} were free: "
                f"{self.speedup_if(what):+6.1%}")
        lines.append(f"  dominant bottleneck: {self.dominant_bottleneck()}")
        return "\n".join(lines)


def blocked_time_analysis(model: ModelSpec, cluster: ClusterConfig,
                          scheme: Optional[Scheme] = None,
                          batch_size: Optional[int] = None,
                          config: Optional[DDPConfig] = None,
                          ) -> BlockedTimeReport:
    """Re-simulate with each resource idealized in turn.

    * free network: a fabric with effectively infinite bandwidth and
      zero latency;
    * free encode: a kernel profile scaled ~infinitely fast (compression
      math costs nothing; wire bytes unchanged);
    * fast compute: a GPU 1000x faster (encode scales with it too, as in
      the paper's Figure 12 convention).
    """
    base_cfg = config if config is not None else DDPConfig(
        compute_jitter=0.0, comm_jitter=0.0)
    bs = batch_size if batch_size is not None else model.default_batch_size
    rng = np.random.default_rng(0)

    def iteration(sim: DDPSimulator) -> float:
        return sim.simulate_iteration(bs, rng).iteration_end

    baseline = iteration(DDPSimulator(model, cluster, scheme=scheme,
                                      config=base_cfg))

    fast_fabric = Fabric(cluster, alpha_s=0.0, bandwidth_jitter=0.0,
                         incast_per_sender=0.0)
    fast_fabric._pair_bw = fast_fabric._pair_bw * 1e6  # effectively free
    free_network = iteration(DDPSimulator(
        model, cluster, scheme=scheme, fabric=fast_fabric,
        config=base_cfg))

    from ..compression.kernel_cost import v100_kernel_profile
    free_profile = v100_kernel_profile().scaled(1e6)
    no_hook = DDPConfig(
        bucket_cap_bytes=base_cfg.bucket_cap_bytes,
        overlap_communication=base_cfg.overlap_communication,
        gamma=base_cfg.gamma,
        overlap_compression=base_cfg.overlap_compression,
        contention_penalty=base_cfg.contention_penalty,
        allreduce_algorithm=base_cfg.allreduce_algorithm,
        hook_overhead_per_layer_s=0.0,
        compute_jitter=0.0, comm_jitter=0.0,
        check_memory=base_cfg.check_memory)
    free_encode = iteration(DDPSimulator(
        model, cluster, scheme=scheme, kernel_profile=free_profile,
        config=no_hook))

    fast_cluster = cluster.with_instance(
        cluster.instance.with_gpu(cluster.gpu.scaled(1000.0)))
    fast_profile = v100_kernel_profile().scaled(1000.0)
    fast_compute = iteration(DDPSimulator(
        model, fast_cluster, scheme=scheme, kernel_profile=fast_profile,
        config=base_cfg))

    return BlockedTimeReport(
        baseline_s=baseline,
        free_network_s=free_network,
        free_encode_s=free_encode,
        fast_compute_s=fast_compute,
    )
