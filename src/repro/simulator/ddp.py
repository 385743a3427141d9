"""Discrete-event simulation of one data-parallel training iteration.

Implements the mechanisms PyTorch DDP / Horovod use and the paper's §2.2
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

Every iteration yields an :class:`~repro.simulator.trace.IterationTrace`
whose ``sync_time()`` is the paper's reported per-iteration metric
("time for gradient computation and synchronization").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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
from ..faults import FAULT_STREAM, FaultInjector, FaultSchedule, IterationFaults
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..network import Fabric
from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.schemes import Scheme, SchemeCost, SyncSGDScheme
from ..telemetry.metrics import get_registry
from ..telemetry.tracing import get_tracer
from ..units import MIB
from .events import EventQueue
from .trace import COMM_STREAM, COMPUTE_STREAM, IterationTrace, Span


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
        return float(np.mean(self.sync_times))

    @property
    def std(self) -> float:
        return float(np.std(self.sync_times))

    @property
    def mean_iteration(self) -> float:
        return float(np.mean(self.iteration_times))


class DDPSimulator:
    """Simulates data-parallel training of one model on one cluster."""

    def __init__(self, model: ModelSpec, cluster: ClusterConfig,
                 scheme: Optional[Scheme] = None,
                 fabric: Optional[Fabric] = None,
                 config: Optional[DDPConfig] = None,
                 kernel_profile: Optional[KernelProfile] = None,
                 faults: Optional[FaultSchedule] = None):
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
        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults, cluster, self.fabric)
            if faults is not None and not faults.is_empty else None)
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

    def _allreduce_time(self, num_bytes: float,
                        world_size: Optional[int] = None,
                        bw_scale: float = 1.0) -> float:
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
        """
        bs = batch_size if batch_size is not None else self.model.default_batch_size
        if self.config.check_memory:
            self.check_memory(bs)
        if rng is None:
            rng = np.random.default_rng(seed)
        ifaults = (self._injector.faults_for(iteration)
                   if self._injector is not None else None)
        if self._is_baseline or self.scheme.ddp_overlap:
            # ddp_overlap schemes (fp16) compress inside the bucket hook:
            # same event structure as syncSGD with scaled payloads.
            trace = self._simulate_baseline(bs, rng, ifaults)
        elif self.config.overlap_compression:
            trace = self._simulate_compressed_overlapped(bs, rng, ifaults)
        else:
            trace = self._simulate_compressed_sequential(bs, rng, ifaults)
        if ifaults is not None:
            if ifaults.active:
                # One fault-window span per iteration on a dedicated
                # stream: the Perfetto export shows exactly when the
                # cluster was degraded, next to compute and comm.
                trace.add(Span(FAULT_STREAM, "+".join(ifaults.active),
                               0.0, trace.iteration_end))
            self._injector.record_iteration(ifaults)
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

    # -- helpers

    def _jitter(self, rng: np.random.Generator, sigma: float) -> float:
        return float(rng.lognormal(mean=0.0, sigma=sigma)) if sigma > 0 else 1.0

    def _hook_overhead(self) -> float:
        """Per-iteration framework cost of running a compression hook over
        every trainable layer (gradient extraction + copy-back)."""
        return (self.config.hook_overhead_per_layer_s
                * len(self.model.trainable_layers))

    def _backward_layer_times(self, bs: int, stretch: float,
                              rng: np.random.Generator) -> List[float]:
        sigma = self.config.compute_jitter
        # One scalar jitter draw per layer, in layer order; Python floats,
        # so every span boundary in the trace stays a plain float.
        return [t * stretch * self._jitter(rng, sigma)
                for t in self.compute.backward_layer_times(bs).tolist()]

    def _fault_params(self, ifaults: Optional[IterationFaults],
                      ) -> Tuple[float, int, float, float]:
        """Unpack one iteration's fault state into the four knobs every
        execution path consumes: (compute slowdown, active world size,
        bandwidth scale, start-of-iteration stall)."""
        if ifaults is None:
            return 1.0, self.cluster.world_size, 1.0, 0.0
        return (ifaults.compute_slowdown, ifaults.world_size,
                ifaults.bandwidth_scale, ifaults.stall_s)

    def _start_stall(self, trace: IterationTrace,
                     ifaults: Optional[IterationFaults]) -> float:
        """Charge any crash-recovery stall at the iteration start;
        returns the instant compute may begin (0.0 when healthy)."""
        if ifaults is None or ifaults.stall_s <= 0:
            return 0.0
        trace.add(Span(FAULT_STREAM, ifaults.stall_label or "recovery",
                       0.0, ifaults.stall_s))
        return ifaults.stall_s

    def _retransmit(self, trace: IterationTrace,
                    ifaults: Optional[IterationFaults],
                    transfer_index: int, label: str, end: float,
                    duration: float, payload_bytes: float) -> float:
        """Append the retransmit penalty (if any) for the transfer that
        just finished at ``end``; returns the new completion instant."""
        if ifaults is None or ifaults.retransmit is None or duration <= 0:
            return end
        assert self._injector is not None
        delay, replays = self._injector.retransmit_delay(
            ifaults.iteration, transfer_index, duration)
        if delay <= 0:
            return end
        trace.add(Span(COMM_STREAM, label, end, end + delay,
                       bytes_on_wire=payload_bytes * replays))
        return end + delay

    def _simulate_baseline(self, bs: int, rng: np.random.Generator,
                           ifaults: Optional[IterationFaults] = None,
                           ) -> IterationTrace:
        """syncSGD (or a ddp_overlap scheme like fp16): bucketed,
        overlapped all-reduce — the paper's §4.1 structure."""
        cfg = self.config
        trace = IterationTrace()
        queue = EventQueue()
        slow, p, bw_scale, _ = self._fault_params(ifaults)
        t0 = self._start_stall(trace, ifaults)

        if self._is_baseline:
            wire_scale, hook_cost = 1.0, 0.0
        else:
            cost = self._scheme_cost(p)
            wire_scale = cost.wire_bytes / self.model.grad_bytes
            hook_cost = cost.encode_decode_s

        overlap = cfg.overlap_communication and p > 1
        stretch = cfg.gamma if overlap else 1.0

        t_fwd = (self.compute.forward_time(bs) * slow
                 * self._jitter(rng, cfg.compute_jitter))
        trace.add(Span(COMPUTE_STREAM, "forward", t0, t0 + t_fwd))
        trace.forward_end = t0 + t_fwd

        plan = self.model.bucket_plan(cfg.bucket_cap_bytes)

        layer_times = self._backward_layer_times(bs, stretch * slow, rng)
        # Cumulative completion time of each backward layer.
        completion = np.cumsum(layer_times) + trace.forward_end
        trace.backward_end = float(completion[-1])
        trace.add(Span(COMPUTE_STREAM, "backward", trace.forward_end,
                       trace.backward_end))

        comm_free = [trace.forward_end]  # comm stream availability

        def make_comm_event(bucket_id: int, size: float):
            def fire(q: EventQueue) -> None:
                start = max(q.now, comm_free[0])
                duration = (self._allreduce_time(size * wire_scale,
                                                 p, bw_scale)
                            if p > 1 else 0.0)
                duration *= self._jitter(rng, cfg.comm_jitter)
                end = start + duration
                trace.add(Span(COMM_STREAM, f"bucket{bucket_id}", start, end,
                               bytes_on_wire=(size * wire_scale
                                              if p > 1 else 0.0)))
                end = self._retransmit(
                    trace, ifaults, bucket_id, f"retransmit{bucket_id}",
                    end, duration, size * wire_scale)
                comm_free[0] = end
                trace.sync_end = max(trace.sync_end, end)
            return fire

        for bucket_id, (size, close_idx) in enumerate(
                zip(plan.sizes, plan.close_idx)):
            if overlap:
                ready = float(completion[close_idx])
            else:
                ready = trace.backward_end
            queue.schedule(ready, make_comm_event(bucket_id, size))

        queue.run()
        trace.sync_end = max(trace.sync_end, trace.backward_end)
        if hook_cost > 0:
            # Per-bucket cast cost (fp16): small and on the critical path.
            end = trace.sync_end + hook_cost * slow * self._jitter(
                rng, cfg.compute_jitter)
            trace.add(Span(COMPUTE_STREAM, "bucket-cast", trace.sync_end,
                           end))
            trace.sync_end = end
        self._finish_optimizer(trace, rng, slow)
        return trace

    def _simulate_compressed_sequential(self, bs: int,
                                        rng: np.random.Generator,
                                        ifaults: Optional[IterationFaults] = None,
                                        ) -> IterationTrace:
        """Compression after backward: encode -> collective(s) -> decode.

        This is the execution the paper settles on after §3.1 and models
        in §4.2: no overlap, so no γ, but the full encode/decode cost on
        the critical path.
        """
        cfg = self.config
        trace = IterationTrace()
        slow, p, bw_scale, _ = self._fault_params(ifaults)
        t0 = self._start_stall(trace, ifaults)
        cost = self._scheme_cost(p)

        t_fwd = (self.compute.forward_time(bs) * slow
                 * self._jitter(rng, cfg.compute_jitter))
        trace.add(Span(COMPUTE_STREAM, "forward", t0, t0 + t_fwd))
        trace.forward_end = t0 + t_fwd

        t_bwd = (self.compute.backward_time(bs) * slow
                 * self._jitter(rng, cfg.compute_jitter))
        trace.backward_end = trace.forward_end + t_bwd
        trace.add(Span(COMPUTE_STREAM, "backward", trace.forward_end,
                       trace.backward_end))

        enc_dec = ((cost.encode_decode_s + self._hook_overhead()) * slow
                   * self._jitter(rng, cfg.compute_jitter))
        encode_end = trace.backward_end + enc_dec / 2.0
        trace.add(Span(COMPUTE_STREAM, "encode", trace.backward_end, encode_end))

        comm = 0.0 if p == 1 else (
            self._collective_time(cost, p, bw_scale)
            * self._jitter(rng, cfg.comm_jitter))
        comm_end = encode_end + comm
        if comm > 0:
            trace.add(Span(COMM_STREAM, "aggregate", encode_end, comm_end,
                           bytes_on_wire=cost.wire_bytes))
            comm_end = self._retransmit(
                trace, ifaults, 0, "retransmit", comm_end, comm,
                cost.wire_bytes)

        decode_end = comm_end + enc_dec / 2.0
        trace.add(Span(COMPUTE_STREAM, "decode", comm_end, decode_end))
        trace.sync_end = decode_end
        self._finish_optimizer(trace, rng, slow)
        return trace

    def _simulate_compressed_overlapped(self, bs: int,
                                        rng: np.random.Generator,
                                        ifaults: Optional[IterationFaults] = None,
                                        ) -> IterationTrace:
        """Figure 3's strategy: encode interleaves with backward.

        Backward and compression contend for SMs, stretching their
        *combined* work by ``contention_penalty``; compressed chunks
        become ready progressively through the stretched phase and their
        collectives overlap.  The paper shows this loses to sequential
        execution; this mode exists to reproduce that comparison.
        """
        cfg = self.config
        trace = IterationTrace()
        slow, p, bw_scale, _ = self._fault_params(ifaults)
        t0 = self._start_stall(trace, ifaults)
        cost = self._scheme_cost(p)

        t_fwd = (self.compute.forward_time(bs) * slow
                 * self._jitter(rng, cfg.compute_jitter))
        fwd_end = t0 + t_fwd
        trace.add(Span(COMPUTE_STREAM, "forward", t0, fwd_end))
        trace.forward_end = fwd_end

        t_bwd = (self.compute.backward_time(bs) * slow
                 * self._jitter(rng, cfg.compute_jitter))
        enc_dec = ((cost.encode_decode_s + self._hook_overhead()) * slow
                   * self._jitter(rng, cfg.compute_jitter))
        encode_part = enc_dec / 2.0
        stretched = (t_bwd + encode_part) * cfg.contention_penalty
        compute_end = fwd_end + stretched
        trace.backward_end = compute_end
        trace.add(Span(
            COMPUTE_STREAM, "backward+encode", fwd_end, compute_end))

        # Compressed chunks stream out in four waves through the phase;
        # the final wave only after the stretched phase completes.  A
        # single worker has no collective at all, so it gets no comm
        # spans — zero-length phantom waves would pollute the trace and
        # compute_comm_overlap() inputs.
        comm_total = 0.0 if p == 1 else self._collective_time(
            cost, p, bw_scale)
        comm_total *= self._jitter(rng, cfg.comm_jitter)
        waves = 4
        comm_free = fwd_end
        sync_end = compute_end
        if p > 1:
            for wave in range(waves):
                ready = fwd_end + stretched * (wave + 1) / waves
                start = max(ready, comm_free)
                end = start + comm_total / waves
                trace.add(Span(COMM_STREAM, f"wave{wave}", start, end,
                               bytes_on_wire=cost.wire_bytes / waves))
                end = self._retransmit(
                    trace, ifaults, wave, f"retransmit{wave}", end,
                    comm_total / waves, cost.wire_bytes / waves)
                comm_free = end
                sync_end = end

        decode_end = max(sync_end, compute_end) + enc_dec / 2.0
        trace.add(Span(COMPUTE_STREAM, "decode",
                       max(sync_end, compute_end), decode_end))
        trace.sync_end = decode_end
        self._finish_optimizer(trace, rng, slow)
        return trace

    def _finish_optimizer(self, trace: IterationTrace,
                          rng: np.random.Generator,
                          slowdown: float = 1.0) -> None:
        start = max(trace.sync_end, trace.backward_end)
        t_opt = (self.compute.optimizer_time() * slowdown
                 * self._jitter(rng, self.config.compute_jitter))
        trace.add(Span(COMPUTE_STREAM, "optimizer", start, start + t_opt))
        trace.iteration_end = start + t_opt

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
