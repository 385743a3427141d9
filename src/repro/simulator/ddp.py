"""Simulation of data-parallel training iterations.

Models the mechanisms PyTorch DDP / Horovod use and the paper's §2.2
describes:

* **gradient bucketing** — gradients are grouped into ~25 MB buckets in
  backward order; all-reduce launches per bucket;
* **communication/computation overlap** — bucket all-reduces run on a
  separate stream while the backward pass continues; the backward is
  stretched by the contention factor γ (> 1) while overlap is active;
* **the un-overlappable last bucket** — the final bucket only becomes
  ready when the backward pass ends, the ``T_comm(b̂)`` term;
* **compression execution** — per the paper's §3.1 finding, compression
  runs *sequentially after* the backward pass by default (encode →
  collective(s) → decode); the overlapped mode of Figure 3, where encode
  work interleaves with the backward under a compute-contention penalty,
  is available via :attr:`DDPConfig.overlap_compression`;
* **all-gather fallback** — non-all-reducible schemes pay the
  linear-in-p all-gather, including the fabric's incast degradation
  (which the analytic model deliberately omits);
* **memory accounting** — gather-based schemes stack decoded payloads;
  when ``stack_bytes * p`` plus the training footprint exceeds GPU
  memory, the simulated run raises :class:`~repro.errors.OutOfMemoryError`
  exactly where the paper's BERT runs died beyond 32 GPUs.

Every iteration is evaluated by the vectorized kernel in
:mod:`repro.simulator.batch`; this module holds the simulator's
configuration, its memory check and the collective pricing the kernel
calls.  A single iteration yields an
:class:`~repro.simulator.trace.IterationTrace` whose ``sync_time()`` is
the paper's reported per-iteration metric ("time for gradient
computation and synchronization").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..collectives import (
    allgather_time,
    double_tree_allreduce_time,
    hierarchical_allreduce_time,
    parameter_server_time,
    ring_allreduce_time,
)
from ..compute import ComputeModel
from ..errors import ConfigurationError, OutOfMemoryError
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..network import Fabric
from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.schemes import Scheme, SchemeCost, SyncSGDScheme
from ..telemetry.metrics import get_registry
from ..telemetry.tracing import get_tracer
from ..units import MIB
from .trace import COMM_STREAM, FAULT_STREAM, IterationTrace

if TYPE_CHECKING:
    from ..faults import FaultInjector, FaultSchedule


@dataclass(frozen=True)
class DDPConfig:
    """Knobs of the simulated DDP engine.

    Attributes:
        bucket_cap_bytes: Gradient bucket capacity (PyTorch default 25 MB).
        overlap_communication: Launch bucket all-reduces during backward
            (the DDP optimization; disable for the no-overlap ablation).
        gamma: Backward-pass stretch factor while communication overlaps
            (> 1; the paper measures it from Nsight traces).
        overlap_compression: Run compression concurrently with backward
            (Figure 3's losing strategy) instead of sequentially after it.
        contention_penalty: Combined-stream stretch when compression and
            backward share the GPU (> 1; §3.1's resource contention).
            Calibrated to 1.4 so that all three of the paper's Figure 3
            methods — including signSGD, whose encode is nearly free —
            come out slower overlapped than sequential, as measured.
        allreduce_algorithm: ``"ring"`` (the paper forces this via
            NCCL_TREE_THRESHOLD=0), ``"double_tree"``, ``"hierarchical"``
            (NVLink reduce within the node, ring across nodes — NCCL's
            multi-GPU-node strategy), or ``"parameter_server"`` (the
            central topology all-reduce displaced, §2.2 — incl. the
            server NIC's incast).
        hook_overhead_per_layer_s: Framework integration cost per
            trainable layer when a compression hook runs: extracting the
            gradient, reshaping, copying the decompressed result back.
            The paper's Table 2 explicitly *excludes* this ("we disregard
            the time for extracting gradients, or copying back"), but the
            measured end-to-end runs pay it — the simulator charges it on
            the compressed execution paths only.
        compute_jitter: Lognormal sigma on compute spans.
        comm_jitter: Lognormal sigma on communication spans (networks are
            noisier than GPUs; the paper's error bars are wide).
        check_memory: Enforce the GPU memory budget.
    """

    bucket_cap_bytes: float = 25 * MIB
    overlap_communication: bool = True
    gamma: float = 1.10
    overlap_compression: bool = False
    contention_penalty: float = 1.4
    allreduce_algorithm: str = "ring"
    hook_overhead_per_layer_s: float = 6e-5
    compute_jitter: float = 0.015
    comm_jitter: float = 0.05
    check_memory: bool = True

    def __post_init__(self) -> None:
        if self.bucket_cap_bytes <= 0:
            raise ConfigurationError("bucket_cap_bytes must be > 0")
        if self.gamma < 1.0:
            raise ConfigurationError(
                f"gamma must be >= 1 (it is a slowdown), got {self.gamma}")
        if self.contention_penalty < 1.0:
            raise ConfigurationError(
                f"contention_penalty must be >= 1, got {self.contention_penalty}")
        if self.allreduce_algorithm not in ("ring", "double_tree",
                                            "hierarchical",
                                            "parameter_server"):
            raise ConfigurationError(
                f"unknown allreduce algorithm {self.allreduce_algorithm!r}")
        if self.hook_overhead_per_layer_s < 0:
            raise ConfigurationError(
                "hook_overhead_per_layer_s must be >= 0")
        if self.compute_jitter < 0 or self.comm_jitter < 0:
            raise ConfigurationError("jitter sigmas must be >= 0")


# ``np.mean``/``np.std`` spend most of a short sample's time in their
# argument handling.  These do the same float64 pairwise sum
# (``np.add.reduce``), division by the count, squared deviations and
# correctly rounded square root, so they return the same bits.
_sum = np.add.reduce


def _floats(values: Sequence[float]) -> np.ndarray:
    return np.fromiter(values, float, len(values))


def _mean(values: Sequence[float]) -> float:
    return float(_sum(_floats(values)) / len(values))


@dataclass(frozen=True)
class TimingResult:
    """Statistics over simulated iterations (after warm-up discard).

    ``sync_times`` holds the paper's metric per iteration; ``mean``/
    ``std`` summarize it, matching the paper's 110-iterations-drop-10
    methodology.
    """

    model: str
    scheme: str
    world_size: int
    batch_size: int
    sync_times: Tuple[float, ...]
    iteration_times: Tuple[float, ...]

    @property
    def mean(self) -> float:
        """Mean per-iteration sync time (the paper's reported metric)."""
        return _mean(self.sync_times)

    @property
    def std(self) -> float:
        """Population standard deviation of the sync times."""
        samples = _floats(self.sync_times)
        deviations = samples - _sum(samples) / len(samples)
        deviations *= deviations
        return math.sqrt(_sum(deviations) / len(samples))

    @property
    def mean_iteration(self) -> float:
        """Mean full-iteration time, optimizer step included."""
        return _mean(self.iteration_times)


class DDPSimulator:
    """Simulates data-parallel training of one model on one cluster."""

    def __init__(self, model: ModelSpec, cluster: ClusterConfig,
                 scheme: Optional[Scheme] = None,
                 fabric: Optional[Fabric] = None,
                 config: Optional[DDPConfig] = None,
                 kernel_profile: Optional[KernelProfile] = None,
                 faults: Optional[FaultSchedule] = None):
        """Bind a model, cluster and scheme (syncSGD by default).

        ``fabric`` defaults to a fresh :class:`~repro.network.Fabric`
        of ``cluster`` (its jittered matrix is shared with every other
        fabric of that cluster), ``config`` to :class:`DDPConfig()`,
        ``kernel_profile`` to the Table-2 V100 profile; a non-empty
        ``faults`` schedule attaches a
        :class:`~repro.faults.FaultInjector`.

        Raises:
            ConfigurationError: ``fabric`` was built for a cluster with
                a different node count or instance type.
        """
        self.model = model
        self.cluster = cluster
        self.scheme: Scheme = scheme if scheme is not None else SyncSGDScheme()
        self.fabric = fabric if fabric is not None else Fabric(cluster)
        if self.fabric.cluster is not cluster and (
                self.fabric.cluster.num_nodes != cluster.num_nodes
                or self.fabric.cluster.instance.name != cluster.instance.name):
            raise ConfigurationError(
                "fabric was built for a different cluster")
        self.config = config if config is not None else DDPConfig()
        self.profile = (kernel_profile if kernel_profile is not None
                        else v100_kernel_profile())
        self.compute = ComputeModel(model, cluster.gpu)
        self._is_baseline = isinstance(self.scheme, SyncSGDScheme)
        self.faults = faults
        # An empty schedule is the identity — no injector, so the code
        # path (and therefore the RNG stream and every cache key) is
        # exactly the fault-free one.
        self._injector: Optional[FaultInjector] = None
        if faults is not None and not faults.is_empty:
            from ..faults.injector import FaultInjector
            self._injector = FaultInjector(faults, cluster, self.fabric)
        #: Public handle on the fault injector (``None`` when the run
        #: is fault-free); the CLI prints its post-run summary.
        self.injector = self._injector
        # The scheme cost is memoized per simulator, keyed by world
        # size because elastic crash recovery can shrink the active
        # world mid-run.  The model's static tables (backward order,
        # per-layer backward times, bucket plan) are shared per model
        # spec by :mod:`repro.models` and :mod:`repro.compute`.
        self._cost_cache: dict = {}

    def _scheme_cost(self, world_size: Optional[int] = None) -> SchemeCost:
        """The scheme's cost for this simulator's model at a world size
        (memoized per size; defaults to the cluster's full size)."""
        p = world_size if world_size is not None else self.cluster.world_size
        cost = self._cost_cache.get(p)
        if cost is None:
            cost = self.scheme.cost(self.model, p, self.profile)
            self._cost_cache[p] = cost
        return cost

    # ----- memory ------------------------------------------------------------

    def check_memory(self, batch_size: int) -> float:
        """Validate the per-GPU memory budget; returns required bytes.

        Raises:
            OutOfMemoryError: when training state + activations + the
                scheme's aggregation working set exceed GPU memory.
        """
        p = self.cluster.world_size
        cost = self._scheme_cost()
        working = cost.aggregation_working_set(p)
        fits, required = self.compute.fits_in_memory(batch_size, working)
        if not fits:
            get_registry().counter(
                "sim_oom_total", model=self.model.name,
                scheme=self.scheme.label).inc()
            raise OutOfMemoryError(
                f"{self.model.name} with {self.scheme.label} at "
                f"{p} GPUs needs {required / 1e9:.1f} GB "
                f"(aggregation working set {working / 1e9:.1f} GB) but the "
                f"{self.cluster.gpu.name} has "
                f"{self.cluster.gpu.memory_bytes / 1e9:.1f} GB",
                required_bytes=required,
                budget_bytes=self.cluster.gpu.memory_bytes)
        return required

    # ----- communication pricing ----------------------------------------------

    def _allreduce_time(self, num_bytes,
                        world_size: Optional[int] = None,
                        bw_scale: float = 1.0):
        """All-reduce seconds under the configured algorithm.

        ``num_bytes`` is one payload or an array of them (the batch
        kernel prices every gradient bucket in one call, whatever the
        algorithm); ``bw_scale`` is the fault injector's degraded
        bandwidth multiplier (1.0 healthy).
        """
        p = world_size if world_size is not None else self.cluster.world_size
        bw = self.fabric.min_bandwidth() * bw_scale
        alpha = self.fabric.alpha_s
        if self.config.allreduce_algorithm == "double_tree":
            return double_tree_allreduce_time(num_bytes, p, bw, alpha)
        if self.config.allreduce_algorithm == "hierarchical":
            # Elastic world-size changes keep the node topology here;
            # the degraded-bandwidth scale still applies.
            return hierarchical_allreduce_time(
                num_bytes, self.cluster.num_nodes,
                self.cluster.instance.gpus_per_node, bw,
                self.cluster.instance.intra_node_bytes_per_s, alpha)
        if self.config.allreduce_algorithm == "parameter_server":
            return parameter_server_time(
                num_bytes, p, bw, alpha,
                incast_factor=self.fabric.incast_factor(max(1, p - 1)))
        return ring_allreduce_time(num_bytes, p, bw, alpha)

    def _allgather_time(self, num_bytes: float,
                        world_size: Optional[int] = None,
                        bw_scale: float = 1.0) -> float:
        p = world_size if world_size is not None else self.cluster.world_size
        return allgather_time(
            num_bytes, p, self.fabric.min_bandwidth() * bw_scale,
            self.fabric.alpha_s,
            incast_factor=self.fabric.incast_factor(max(1, p - 1)))

    def _collective_time(self, cost: SchemeCost,
                         world_size: Optional[int] = None,
                         bw_scale: float = 1.0) -> float:
        """Total communication seconds for a compressed gradient: one
        collective per message over an even share of the payload."""
        per_message = cost.wire_bytes / cost.messages
        if cost.all_reducible:
            single = self._allreduce_time(per_message, world_size, bw_scale)
        else:
            single = self._allgather_time(per_message, world_size, bw_scale)
        return single * cost.messages

    # ----- iteration simulation -----------------------------------------------

    def simulate_iteration(self, batch_size: Optional[int] = None,
                           rng: Optional[np.random.Generator] = None,
                           seed: Optional[int] = None,
                           iteration: int = 0) -> IterationTrace:
        """Simulate one iteration; returns its timeline trace.

        Jitter is drawn from ``rng`` when given (callers running many
        iterations thread one generator through; :meth:`run` equals
        threading ``default_rng(seed)`` through every iteration).
        Otherwise a fresh generator is derived from ``seed`` — or from
        OS entropy when ``seed`` is ``None`` — so that repeated direct
        calls actually vary.  (A previous revision defaulted to
        ``default_rng(0)`` on *every* call, which made direct callers
        draw identical jitter and collapsed their variance to zero.)

        ``iteration`` is the 0-based absolute iteration index; it only
        matters when a :class:`~repro.faults.FaultSchedule` is attached,
        where it selects which faults are active.

        The iteration is a one-row call of the batch kernel
        (:mod:`repro.simulator.batch`) drawing from ``rng``, with its
        spans rebuilt from the kernel record.  Unlike
        :func:`~repro.simulator.reconstruct.reconstruct_traces` it has
        the side effects of a stepped iteration: the fault injector's
        retransmit counters advance and telemetry is recorded.
        """
        # Deferred imports: batch.py imports this module.
        from .batch import _evaluate
        from .reconstruct import trace_from_record
        bs = batch_size if batch_size is not None else self.model.default_batch_size
        if rng is None:
            rng = np.random.default_rng(seed)
        record: dict = {}
        _evaluate([self], bs, 1, (rng,), record=record, start=iteration)
        trace = trace_from_record(record, 0)
        if self._injector is not None:
            # Transfer visit order, accumulated with += as each
            # transfer's retransmits land.
            for delay, replays in zip(record["delays"][0].tolist(),
                                      record["replays"][0].tolist()):
                if replays:
                    self._injector.count_retransmits(delay, replays)
            self._injector.record_iterations(record["resolved"].states)
        registry = get_registry()
        if registry.enabled:
            self._record_iteration(registry, trace)
        return trace

    def _record_iteration(self, registry, trace: IterationTrace) -> None:
        """Record one iteration's telemetry (enabled registries only —
        pure reads of the finished trace, never touching the rng, so an
        instrumented run stays bit-identical to a silent one)."""
        label = self.scheme.label
        registry.counter("sim_iterations_total", scheme=label).inc()
        registry.histogram("sim_sync_time_s", scheme=label).observe(
            trace.sync_time())
        registry.histogram("sim_overlap_s", scheme=label).observe(
            trace.compute_comm_overlap())
        wire_bytes = 0.0
        for span in trace.spans:
            if span.stream == FAULT_STREAM:
                # Fault windows are annotations, not occupancy; the
                # injector records its own counters for them.
                continue
            # "bucket17" -> "bucket": keep label cardinality bounded.
            kind = span.label.rstrip("0123456789")
            if span.stream == COMM_STREAM:
                registry.histogram(
                    "sim_comm_span_s", kind=kind).observe(span.duration)
                wire_bytes += span.bytes_on_wire
            else:
                registry.histogram(
                    "sim_compute_span_s", kind=kind).observe(span.duration)
        if wire_bytes > 0:
            registry.counter(
                "sim_wire_bytes_total", scheme=label).inc(wire_bytes)
        if trace.iteration_end > 0:
            registry.histogram(
                "sim_comm_occupancy", scheme=label).observe(
                trace.stream_busy_time(COMM_STREAM) / trace.iteration_end)

    def _hook_overhead(self) -> float:
        """Per-iteration framework cost of running a compression hook over
        every trainable layer (gradient extraction + copy-back)."""
        return (self.config.hook_overhead_per_layer_s
                * len(self.model.trainable_layers))

    # ----- multi-iteration runs -------------------------------------------------

    def run(self, batch_size: Optional[int] = None, iterations: int = 110,
            warmup: int = 10, seed: int = 0) -> TimingResult:
        """Run the paper's measurement protocol: ``iterations`` simulated
        iterations, discard the first ``warmup``, report the rest.

        The whole run is one vectorized kernel call
        (:mod:`repro.simulator.batch`), fault schedules included — the
        kernel applies them as array masks.  The result is bit-identical
        to threading one ``default_rng(seed)`` generator through
        :meth:`simulate_iteration` for ``iterations`` iterations: same
        RNG draws, same floating-point operation order.
        """
        # Deferred imports: batch.py imports TimingResult from here.
        from .batch import run_batch
        tracer = get_tracer()
        if not tracer.enabled:
            return run_batch(self, batch_size, iterations=iterations,
                             warmup=warmup, seed=seed)
        from .reconstruct import trace_from_record
        record: dict = {}
        with tracer.span("sim-run", track="sim", model=self.model.name,
                         scheme=self.scheme.label,
                         gpus=str(self.cluster.world_size),
                         iterations=str(iterations)) as span:
            result = run_batch(self, batch_size, iterations=iterations,
                               warmup=warmup, seed=seed, record=record)
        # The first iteration illustrates the run's internal structure
        # on sim:* tracks (simulated seconds, plotted from the span's
        # start), rebuilt from the run's own kernel record: recording
        # changes no arithmetic, so the traced run stays bit-identical.
        tracer.add_iteration_trace(trace_from_record(record, 0),
                                   base_unix_s=span.start_unix_s,
                                   parent_id=span.span_id)
        return result
