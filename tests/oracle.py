"""Reference implementations the production code is tested against.

``DDPSimulator`` evaluates every iteration through one batch kernel:
``run()`` a whole measurement run, ``simulate_iteration`` one
iteration.  The per-iteration event loop below is the readable spec of
the same DDP semantics: :func:`event_iteration` steps one iteration on
a discrete-event queue, and :func:`event_run` loops it over the
paper's protocol, so tests can assert that the kernel reproduces it
bit for bit.

It also keeps the reference cache-key builders, the advisor sweep's
unsharded reduction, the training substrate's step-by-step loops, the
one-point scalar form of the §4 performance model with its ``T_comp``,
its α+β collectives (every all-reduce algorithm) and its per-point
strong-scaling loop, the per-layer scheme-cost walks, the fabric's
unshared bandwidth draw, the masked jitter draw, the one-value-at-a-time
histogram, the per-iteration fault resolution and retransmit draw, the
uncached metric lookup, the cache's byte-budgeted LRU hot tier and the
pack index's line-by-line loader (below).
"""

import hashlib
import heapq
import itertools
import json
import math
import os
import weakref
from collections import OrderedDict
from dataclasses import asdict, replace

import numpy as np

from repro.analysis.advisor import (
    AdvisorReport,
    FrontierPoint,
    pareto_mask,
    plan_sweep,
)
from repro.compression.hybrid import HybridPowerSGDScheme
from repro.compression.kernel_cost import v100_kernel_profile
from repro.compression.schemes import (
    ATOMOScheme,
    PowerSGDScheme,
    SchemeCost,
    SyncSGDScheme,
)
from repro.core.advisor import recommend_for_inputs
from repro.core.grid import compressed_time_grid
from repro.core.perf_model import PredictedTime, predict
from repro.core.whatif import solve_crossover
from repro.engine import AdvisorShardResult
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FAULT_STREAM, IterationFaults
from repro.hardware import V100
from repro.simulator import (
    COMM_STREAM,
    COMPUTE_STREAM,
    DDPConfig,
    IterationTrace,
    Span,
    TimingResult,
)
from repro.telemetry.metrics import (
    MAX_HISTOGRAM_SAMPLES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
)
from repro.units import FLOAT32_BYTES, GIGA


# ----- simulator oracle ------------------------------------------------------
#
# The DDP iteration stated as a discrete-event loop: spans are
# scheduled on a shared virtual clock, and bucket-ready events fire
# mid-backward and enqueue communication work.  The batch kernel
# (``run()``, ``simulate_iteration``, ``reconstruct_traces``) must
# reproduce it bit for bit.


class EventQueue:
    """Priority queue of timestamped events with a virtual clock, with
    deterministic tie-breaking (insertion order)."""

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self):
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed(self):
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self):
        """Number of events still queued (not yet executed)."""
        return len(self._heap)

    def schedule(self, time, callback):
        """Enqueue ``callback`` to fire at absolute virtual ``time``.

        Scheduling into the past is an inconsistency, not a rounding
        issue, so it raises.
        """
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at {time:.9f}s; clock is already "
                f"at {self._now:.9f}s")
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def schedule_after(self, delay, callback):
        """Enqueue ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.schedule(self._now + delay, callback)

    def run(self, max_events=1_000_000):
        """Drain the queue; returns the final clock value.

        ``max_events`` is a per-invocation budget against runaway
        callbacks; exhausting it raises rather than returning a
        truncated timeline.
        """
        executed = 0
        while self._heap:
            if executed >= max_events:
                raise SimulationError(
                    f"event budget exhausted: processed {max_events} "
                    f"events in one run() with {self.pending} still "
                    f"queued at virtual time {self._now:.6f}s — the "
                    f"timeline is incomplete.  This usually means a "
                    f"callback reschedules itself unconditionally; if "
                    f"the workload is legitimately this large, raise "
                    f"max_events.")
            time, _, callback = heapq.heappop(self._heap)
            self._now = time
            executed += 1
            self._processed += 1
            callback(self)
        return self._now

    def empty(self):
        """Whether any events remain."""
        return not self._heap


def event_iteration(sim, bs, rng, iteration=0):
    """What ``sim.simulate_iteration(bs, rng, iteration=iteration)``
    must return, stepped on the event loop, with the same side effects:
    the injector's retransmit counters and fault telemetry, and
    ``sim._record_iteration`` when the registry is enabled."""
    if sim.config.check_memory:
        sim.check_memory(bs)
    injector = sim.injector
    ifaults = (_oracle_faults(injector, iteration)
               if injector is not None else None)
    if sim._is_baseline or sim.scheme.ddp_overlap:
        # ddp_overlap schemes (fp16) compress inside the bucket hook:
        # same event structure as syncSGD with scaled payloads.
        trace = _simulate_baseline(sim, bs, rng, ifaults)
    elif sim.config.overlap_compression:
        trace = _simulate_compressed_overlapped(sim, bs, rng, ifaults)
    else:
        trace = _simulate_compressed_sequential(sim, bs, rng, ifaults)
    if ifaults is not None:
        if ifaults.active:
            trace.add(Span(FAULT_STREAM, "+".join(ifaults.active),
                           0.0, trace.iteration_end))
        injector.record_iterations((ifaults,))
    registry = get_registry()
    if registry.enabled:
        sim._record_iteration(registry, trace)
    return trace


def event_run(sim, batch_size=None, iterations=110, warmup=10, seed=0):
    """``sim.run(...)`` computed on the event loop instead of the kernel.

    One ``default_rng(seed)`` generator is threaded through every
    iteration, the first ``warmup`` iterations are dropped, and the
    fault injector's per-run retransmit counters are reset first, just
    as ``run()`` resets them.
    """
    if sim.injector is not None:
        sim.injector.reset_run_counters()
    bs = batch_size if batch_size is not None else sim.model.default_batch_size
    rng = np.random.default_rng(seed)
    traces = [event_iteration(sim, bs, rng, iteration=i)
              for i in range(iterations)]
    measured = traces[warmup:]
    return TimingResult(
        model=sim.model.name,
        scheme=sim.scheme.label,
        world_size=sim.cluster.world_size,
        batch_size=bs,
        sync_times=tuple(t.sync_time() for t in measured),
        iteration_times=tuple(t.iteration_end for t in measured),
    )


class FaultResolutionOracle:
    """Per-iteration fault resolution: the injector's resolution as it
    was before ranges were resolved per activity pattern and shared.

    Binds a schedule to a cluster and a fabric like
    :class:`~repro.faults.FaultInjector`; :meth:`faults_for` resolves
    one iteration at a time, reading the fabric's matrix one pair at a
    time, with the bandwidth scale memoized per active-fault pattern.
    """

    def __init__(self, schedule, cluster, fabric):
        self.schedule = schedule
        self.cluster = cluster
        self.fabric = fabric
        self._base_min_bw = fabric.min_bandwidth()
        self._cache = {}
        self._bw_cache = {}

    def faults_for(self, iteration):
        state = self._cache.get(iteration)
        if state is None:
            state = self._resolve(iteration)
            self._cache[iteration] = state
        return state

    def _resolve(self, iteration: int) -> IterationFaults:
        """Compute one iteration's fault state from the schedule."""
        active = []

        slowdown = 1.0
        for s in self.schedule.stragglers:
            if s.active(iteration) and not self._crashed_out(
                    s.worker, iteration):
                slowdown = max(slowdown, s.slowdown)
                active.append("straggler")

        bw_scale = self._bandwidth_scale(iteration)
        if bw_scale < 1.0:
            active.append("degraded-link")

        world = self.cluster.world_size
        stall_s = 0.0
        stall_label = None
        elastic_gone: set = set()
        for c in self.schedule.crashes:
            if (c.recovery == "elastic" and iteration >= c.at_iteration
                    and c.worker not in elastic_gone):
                # Decrement once per *departed worker*, not per entry:
                # the schedule validates against duplicate elastic
                # crashes, but a hand-built duplicate must not shrink
                # the world twice for one physical departure.
                elastic_gone.add(c.worker)
                world -= 1
            if iteration == c.at_iteration:
                stall_s += c.stall_s
                stall_label = f"crash-{c.recovery}"
                active.append(f"crash-{c.recovery}")
        world = max(1, world)

        retransmit = None
        for r in self.schedule.retransmits:
            if r.active(iteration):
                # With several overlapping policies the harshest wins —
                # modelling independent loss processes would need a
                # combined rate anyway, and one policy is the 99% case.
                if retransmit is None or r.drop_rate > retransmit.drop_rate:
                    retransmit = r
        if retransmit is not None:
            active.append("retransmit-risk")

        return IterationFaults(
            iteration=iteration,
            compute_slowdown=slowdown,
            bandwidth_scale=bw_scale,
            world_size=world,
            stall_s=stall_s,
            stall_label=stall_label,
            retransmit=retransmit,
            active=tuple(sorted(set(active))),
        )

    def _crashed_out(self, worker: int, iteration: int) -> bool:
        """Whether ``worker`` has been elastically dropped by now (a
        dropped straggler stops straggling — the silver lining)."""
        return any(c.worker == worker and c.recovery == "elastic"
                   and iteration >= c.at_iteration
                   for c in self.schedule.crashes)

    def _bandwidth_scale(self, iteration: int) -> float:
        """Effective min-bandwidth multiplier after active link faults.

        Applies every active link/NIC factor to a copy of the fabric's
        pairwise matrix and re-takes the minimum — exactly the paper's
        probe-and-take-minimum methodology, run against the degraded
        fabric.  Clusters are small (<= a few dozen nodes), so the
        O(n^2) copy per *distinct* fault pattern is negligible — the
        scale is memoized by active-fault pattern, since a schedule
        spends whole windows in the same handful of patterns.
        """
        n = self.cluster.num_nodes
        if n <= 1:
            return 1.0
        active_links = tuple(f for f in self.schedule.links
                             if f.active(iteration))
        active_nodes = tuple(f for f in self.schedule.nodes
                             if f.active(iteration))
        if not active_links and not active_nodes:
            return 1.0
        pattern = (active_links, active_nodes)
        cached = self._bw_cache.get(pattern)
        if cached is not None:
            return cached
        matrix = np.array(
            [[self.fabric.pair_bandwidth(a, b) if a != b else np.inf
              for b in range(n)] for a in range(n)])
        for link in active_links:
            matrix[link.node_a, link.node_b] *= link.factor
            matrix[link.node_b, link.node_a] *= link.factor
        for node in active_nodes:
            for other in range(n):
                if other != node.node:
                    matrix[node.node, other] *= node.factor
                    matrix[other, node.node] *= node.factor
        scale = float(matrix.min()) / self._base_min_bw
        self._bw_cache[pattern] = scale
        return scale


def window_active_oracle(iteration, start, duration, period=None):
    """Whether a (start, duration, period) window covers one iteration."""
    if iteration < start:
        return False
    offset = iteration - start
    if period is not None:
        offset %= period
    return duration is None or offset < duration


#: One resolution oracle per injector, so the event loop resolves each
#: iteration once per run, as the per-iteration injector did.
_FAULT_ORACLES = weakref.WeakKeyDictionary()


def _oracle_faults(injector, iteration):
    oracle = _FAULT_ORACLES.get(injector)
    if oracle is None:
        oracle = _FAULT_ORACLES[injector] = FaultResolutionOracle(
            injector.schedule, injector.cluster, injector.fabric)
    return oracle.faults_for(iteration)


def retransmit_delay(injector, iteration, transfer_index, base_duration_s):
    """Extra seconds one transfer pays to loss at ``iteration``: the
    scalar form of ``FaultInjector.retransmit_delay_range``.

    Returns ``(delay_s, replays)``.  The policy comes from the
    oracle's own per-iteration resolution; each attempt drops with its
    ``drop_rate``, attempt *k*'s failure costs
    ``timeout_s * backoff**(k-1)`` plus a replay of the transfer, and
    after ``max_retries`` failures the transfer is forced through.  The
    draws come from a ``(schedule seed, iteration, transfer_index)``
    generator.  Unlike the range form it counts what it injects, through
    ``injector.count_retransmits``, as a stepped iteration does.
    """
    policy = _oracle_faults(injector, iteration).retransmit
    if policy is None or policy.drop_rate == 0.0:
        return 0.0, 0
    rng = np.random.default_rng(
        (injector.schedule.seed, iteration, transfer_index))
    delay = 0.0
    replays = 0
    while replays < policy.max_retries:
        if rng.random() >= policy.drop_rate:
            break
        delay += (policy.timeout_s * policy.backoff ** replays
                  + base_duration_s)
        replays += 1
    if replays:
        injector.count_retransmits(delay, replays)
    return delay, replays


def _jitter(rng, sigma):
    return float(rng.lognormal(mean=0.0, sigma=sigma)) if sigma > 0 else 1.0


def _backward_layer_times(sim, bs, stretch, rng):
    sigma = sim.config.compute_jitter
    # One scalar jitter draw per layer, in layer order; Python floats,
    # so every span boundary in the trace stays a plain float.
    return [t * stretch * _jitter(rng, sigma)
            for t in sim.compute.backward_layer_times(bs).tolist()]


def _fault_params(sim, ifaults):
    """(compute slowdown, active world size, bandwidth scale)."""
    if ifaults is None:
        return 1.0, sim.cluster.world_size, 1.0
    return (ifaults.compute_slowdown, ifaults.world_size,
            ifaults.bandwidth_scale)


def _start_stall(trace, ifaults):
    """Charge any crash-recovery stall at the iteration start; returns
    the instant compute may begin (0.0 when healthy)."""
    if ifaults is None or ifaults.stall_s <= 0:
        return 0.0
    trace.add(Span(FAULT_STREAM, ifaults.stall_label or "recovery",
                   0.0, ifaults.stall_s))
    return ifaults.stall_s


def _retransmit(sim, trace, ifaults, transfer_index, label, end, duration,
                payload_bytes):
    """Append the retransmit penalty (if any) for the transfer that just
    finished at ``end``; returns the new completion instant."""
    if ifaults is None or ifaults.retransmit is None or duration <= 0:
        return end
    delay, replays = retransmit_delay(
        sim.injector, ifaults.iteration, transfer_index, duration)
    if delay <= 0:
        return end
    trace.add(Span(COMM_STREAM, label, end, end + delay,
                   bytes_on_wire=payload_bytes * replays))
    return end + delay


def _simulate_baseline(sim, bs, rng, ifaults):
    """syncSGD (or a ddp_overlap scheme like fp16): bucketed,
    overlapped all-reduce — the paper's §4.1 structure."""
    cfg = sim.config
    trace = IterationTrace()
    queue = EventQueue()
    slow, p, bw_scale = _fault_params(sim, ifaults)
    t0 = _start_stall(trace, ifaults)

    if sim._is_baseline:
        wire_scale, hook_cost = 1.0, 0.0
    else:
        cost = sim._scheme_cost(p)
        wire_scale = cost.wire_bytes / sim.model.grad_bytes
        hook_cost = cost.encode_decode_s

    overlap = cfg.overlap_communication and p > 1
    stretch = cfg.gamma if overlap else 1.0

    t_fwd = (sim.compute.forward_time(bs) * slow
             * _jitter(rng, cfg.compute_jitter))
    trace.add(Span(COMPUTE_STREAM, "forward", t0, t0 + t_fwd))
    trace.forward_end = t0 + t_fwd

    plan = sim.model.bucket_plan(cfg.bucket_cap_bytes)

    layer_times = _backward_layer_times(sim, bs, stretch * slow, rng)
    # Cumulative completion time of each backward layer.
    completion = np.cumsum(layer_times) + trace.forward_end
    trace.backward_end = float(completion[-1])
    trace.add(Span(COMPUTE_STREAM, "backward", trace.forward_end,
                   trace.backward_end))

    comm_free = [trace.forward_end]  # comm stream availability

    def make_comm_event(bucket_id, size):
        def fire(q):
            start = max(q.now, comm_free[0])
            duration = (sim._allreduce_time(size * wire_scale, p, bw_scale)
                        if p > 1 else 0.0)
            duration *= _jitter(rng, cfg.comm_jitter)
            end = start + duration
            trace.add(Span(COMM_STREAM, f"bucket{bucket_id}", start, end,
                           bytes_on_wire=(size * wire_scale
                                          if p > 1 else 0.0)))
            end = _retransmit(sim, trace, ifaults, bucket_id,
                              f"retransmit{bucket_id}", end, duration,
                              size * wire_scale)
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
        end = trace.sync_end + hook_cost * slow * _jitter(
            rng, cfg.compute_jitter)
        trace.add(Span(COMPUTE_STREAM, "bucket-cast", trace.sync_end, end))
        trace.sync_end = end
    _finish_optimizer(sim, trace, rng, slow)
    return trace


def _simulate_compressed_sequential(sim, bs, rng, ifaults):
    """Compression after backward: encode -> collective(s) -> decode
    (the paper's §4.2 execution: no overlap, so no γ, but the full
    encode/decode cost on the critical path)."""
    cfg = sim.config
    trace = IterationTrace()
    slow, p, bw_scale = _fault_params(sim, ifaults)
    t0 = _start_stall(trace, ifaults)
    cost = sim._scheme_cost(p)

    t_fwd = (sim.compute.forward_time(bs) * slow
             * _jitter(rng, cfg.compute_jitter))
    trace.add(Span(COMPUTE_STREAM, "forward", t0, t0 + t_fwd))
    trace.forward_end = t0 + t_fwd

    t_bwd = (backward_time(sim.model, sim.compute.gpu, bs) * slow
             * _jitter(rng, cfg.compute_jitter))
    trace.backward_end = trace.forward_end + t_bwd
    trace.add(Span(COMPUTE_STREAM, "backward", trace.forward_end,
                   trace.backward_end))

    enc_dec = ((cost.encode_decode_s + sim._hook_overhead()) * slow
               * _jitter(rng, cfg.compute_jitter))
    encode_end = trace.backward_end + enc_dec / 2.0
    trace.add(Span(COMPUTE_STREAM, "encode", trace.backward_end, encode_end))

    comm = 0.0 if p == 1 else (
        sim._collective_time(cost, p, bw_scale)
        * _jitter(rng, cfg.comm_jitter))
    comm_end = encode_end + comm
    if comm > 0:
        trace.add(Span(COMM_STREAM, "aggregate", encode_end, comm_end,
                       bytes_on_wire=cost.wire_bytes))
        comm_end = _retransmit(sim, trace, ifaults, 0, "retransmit",
                               comm_end, comm, cost.wire_bytes)

    decode_end = comm_end + enc_dec / 2.0
    trace.add(Span(COMPUTE_STREAM, "decode", comm_end, decode_end))
    trace.sync_end = decode_end
    _finish_optimizer(sim, trace, rng, slow)
    return trace


def _simulate_compressed_overlapped(sim, bs, rng, ifaults):
    """Figure 3's strategy: encode interleaves with backward.

    Backward and compression contend for SMs, stretching their
    *combined* work by ``contention_penalty``; compressed chunks become
    ready progressively through the stretched phase and their
    collectives overlap.
    """
    cfg = sim.config
    trace = IterationTrace()
    slow, p, bw_scale = _fault_params(sim, ifaults)
    t0 = _start_stall(trace, ifaults)
    cost = sim._scheme_cost(p)

    t_fwd = (sim.compute.forward_time(bs) * slow
             * _jitter(rng, cfg.compute_jitter))
    fwd_end = t0 + t_fwd
    trace.add(Span(COMPUTE_STREAM, "forward", t0, fwd_end))
    trace.forward_end = fwd_end

    t_bwd = (backward_time(sim.model, sim.compute.gpu, bs) * slow
             * _jitter(rng, cfg.compute_jitter))
    enc_dec = ((cost.encode_decode_s + sim._hook_overhead()) * slow
               * _jitter(rng, cfg.compute_jitter))
    encode_part = enc_dec / 2.0
    stretched = (t_bwd + encode_part) * cfg.contention_penalty
    compute_end = fwd_end + stretched
    trace.backward_end = compute_end
    trace.add(Span(COMPUTE_STREAM, "backward+encode", fwd_end, compute_end))

    # Compressed chunks stream out in four waves through the phase; the
    # final wave only after the stretched phase completes.  A single
    # worker has no collective at all, so it gets no comm spans.
    comm_total = 0.0 if p == 1 else sim._collective_time(cost, p, bw_scale)
    comm_total *= _jitter(rng, cfg.comm_jitter)
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
            end = _retransmit(sim, trace, ifaults, wave, f"retransmit{wave}",
                              end, comm_total / waves,
                              cost.wire_bytes / waves)
            comm_free = end
            sync_end = end

    decode_end = max(sync_end, compute_end) + enc_dec / 2.0
    trace.add(Span(COMPUTE_STREAM, "decode",
                   max(sync_end, compute_end), decode_end))
    trace.sync_end = decode_end
    _finish_optimizer(sim, trace, rng, slow)
    return trace


def _finish_optimizer(sim, trace, rng, slowdown=1.0):
    start = max(trace.sync_end, trace.backward_end)
    t_opt = (sim.compute.optimizer_time() * slowdown
             * _jitter(rng, sim.config.compute_jitter))
    trace.add(Span(COMPUTE_STREAM, "optimizer", start, start + t_opt))
    trace.iteration_end = start + t_opt


# ----- cache-key oracle ------------------------------------------------------
#
# The expanded dict payloads of the engine's job kinds, built from scratch
# on every call.  A key is the SHA-256 of
# ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` after
# each frozen member (model, cluster, config, profile, GPU) is replaced by
# the SHA-256 of its own canonical JSON; the keys that
# :mod:`repro.engine.fingerprint` composes from memoized digests must be
# byte-identical to these.


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_payload(model):
    return {
        "name": model.name,
        "default_batch_size": model.default_batch_size,
        "compute_efficiency": model.compute_efficiency,
        "batch_half_saturation": model.batch_half_saturation,
        "gather_granularity": model.gather_granularity,
        "layers": [
            {
                "name": layer.name,
                "kind": layer.kind,
                "param_shape": list(layer.param_shape),
                "matrix_shape": list(layer.matrix_shape),
                "extra_params": layer.extra_params,
                "fwd_flops_per_sample": layer.fwd_flops_per_sample,
                "activation_bytes_per_sample":
                    layer.activation_bytes_per_sample,
            }
            for layer in model.layers
        ],
    }


def scheme_payload(scheme):
    if scheme is None:
        return {"name": "syncsgd", "label": "syncsgd", "params": {}}
    return {
        "name": scheme.name,
        "label": scheme.label,
        "class": type(scheme).__name__,
        "all_reducible": scheme.all_reducible,
        "layerwise": scheme.layerwise,
        "ddp_overlap": scheme.ddp_overlap,
        "params": {k: v for k, v in sorted(vars(scheme).items())
                   if not k.startswith("_")},
    }


def gpu_payload(gpu):
    return {
        "name": gpu.name,
        "peak_fp32_flops": gpu.peak_fp32_flops,
        "training_efficiency": gpu.training_efficiency,
        "memcpy_bytes_per_s": gpu.memcpy_bytes_per_s,
        "memory_bytes": gpu.memory_bytes,
        "kernel_launch_overhead_s": gpu.kernel_launch_overhead_s,
    }


def cluster_payload(cluster):
    instance = cluster.instance
    return {
        "num_nodes": cluster.num_nodes,
        "seed": cluster.seed,
        "instance": {
            "name": instance.name,
            "gpus_per_node": instance.gpus_per_node,
            "network_bytes_per_s": instance.network_bytes_per_s,
            "intra_node_bytes_per_s": instance.intra_node_bytes_per_s,
        },
        "gpu": gpu_payload(instance.gpu),
    }


def fabric_payload(fabric):
    if fabric is None:
        return {"default": True}
    return {
        "default": False,
        "alpha_s": fabric.alpha_s,
        "bandwidth_jitter": fabric.bandwidth_jitter,
        "incast_per_sender": fabric.incast_per_sender,
        "pair_bw_sha256": hashlib.sha256(
            fabric._pair_bw.tobytes()).hexdigest(),
    }


def profile_payload(profile):
    if profile is None:
        return {"default": True}
    payload = asdict(profile)
    payload["default"] = False
    return payload


def config_payload(config):
    return asdict(config if config is not None else DDPConfig())


def faults_payload(faults):
    if faults is None or faults.is_empty:
        return None
    return faults.fingerprint_payload()


def sim_family_payload(job):
    return {
        "version": 2,
        "model": model_payload(job.model),
        "cluster": cluster_payload(job.cluster),
        "scheme": scheme_payload(job.scheme),
        "fabric": fabric_payload(job.fabric),
        "config": config_payload(job.config),
        "profile": profile_payload(job.profile),
        "batch_size": job.batch_size,
        "iterations": job.iterations,
        "warmup": job.warmup,
    }


def sim_payload(job):
    payload = sim_family_payload(job)
    payload["seed"] = job.seed
    fault_payload = faults_payload(job.faults)
    if fault_payload is not None:
        payload["faults"] = fault_payload
    return payload


def model_eval_payload(job):
    return {
        "kind": "model-eval",
        "version": 2,
        "model": model_payload(job.model),
        "scheme": scheme_payload(job.scheme),
        "gpu": gpu_payload(job.gpu),
        "profile": profile_payload(job.profile),
        "inputs": {
            "world_size": job.inputs.world_size,
            "bandwidth_bytes_per_s": job.inputs.bandwidth_bytes_per_s,
            "alpha_s": job.inputs.alpha_s,
            "gamma": job.inputs.gamma,
            "batch_size": job.inputs.batch_size,
            "bucket_cap_bytes": job.inputs.bucket_cap_bytes,
        },
        "compute_factor": job.compute_factor,
        "tradeoff": (None if not job.is_tradeoff
                     else {"k": job.tradeoff_k, "l": job.tradeoff_l}),
    }


def model_eval_family_payload(job):
    payload = {
        "model": model_payload(job.model),
        "scheme": scheme_payload(job.scheme),
        "gpu": gpu_payload(job.gpu),
        "profile": profile_payload(job.profile),
        "alpha_s": job.inputs.alpha_s,
        "gamma": job.inputs.gamma,
        "bucket_cap_bytes": job.inputs.bucket_cap_bytes,
    }
    if job.is_tradeoff:
        payload["kind"] = "tradeoff"
        payload["world_size"] = job.inputs.world_size
        payload["bandwidth_bytes_per_s"] = job.inputs.bandwidth_bytes_per_s
        payload["batch_size"] = job.inputs.batch_size
    else:
        payload["kind"] = "sweep"
    return payload


def advisor_payload(job):
    return {
        "kind": "advisor-shard",
        "version": 2,
        "model": model_payload(job.model),
        "scheme": scheme_payload(job.scheme),
        "gpu": gpu_payload(job.gpu),
        "profile": profile_payload(job.profile),
        "inputs": {
            "alpha_s": job.inputs.alpha_s,
            "gamma": job.inputs.gamma,
            "batch_size": job.inputs.batch_size,
            "bucket_cap_bytes": job.inputs.bucket_cap_bytes,
        },
        "world_size": job.world_size,
        "axis": {
            "lo_gbps": job.bw_lo_gbps,
            "hi_gbps": job.bw_hi_gbps,
            "points": job.bw_points,
            "start": job.start,
            "count": job.count,
        },
    }


def advisor_family_payload(job):
    return {
        "kind": "advisor-shard",
        "model": model_payload(job.model),
        "scheme": scheme_payload(job.scheme),
        "gpu": gpu_payload(job.gpu),
        "profile": profile_payload(job.profile),
        "alpha_s": job.inputs.alpha_s,
        "gamma": job.inputs.gamma,
        "batch_size": job.inputs.batch_size,
        "bucket_cap_bytes": job.inputs.bucket_cap_bytes,
    }


_KEY_PAYLOADS = {
    "SimJob": (sim_payload, sim_family_payload),
    "ModelEvalJob": (model_eval_payload, model_eval_family_payload),
    "AdvisorShardJob": (advisor_payload, advisor_family_payload),
}


#: The payload members that stand for a frozen spec object.
FROZEN_MEMBERS = ("model", "cluster", "config", "profile", "gpu")


def with_digests(payload):
    """``payload`` with every frozen member replaced by the SHA-256 of
    its canonical JSON."""
    return {key: _sha(_canonical(value)) if key in FROZEN_MEMBERS else value
            for key, value in payload.items()}


def oracle_fingerprint(job):
    """What ``job.fingerprint()`` must return."""
    payload = _KEY_PAYLOADS[type(job).__name__][0](job)
    return _sha(_canonical(with_digests(payload)))


def oracle_family_key(job):
    """What ``job.family_key()`` must return: the digest of the family
    payload, its frozen members given by their digests."""
    payload = _KEY_PAYLOADS[type(job).__name__][1](job)
    return _sha(_canonical(with_digests(payload)))


def legacy_family_key(job):
    """The family key as it was when it embedded the whole model
    rendering.  Grouping jobs by ``family_key()`` must give exactly the
    partition grouping by this gives."""
    return _sha(_canonical(_KEY_PAYLOADS[type(job).__name__][1](job)))


# ----- advisor sweep oracle --------------------------------------------------
#
# The sweep's reduction as it ran before shards reduced in the worker:
# every feasible (candidate, world size) pair priced over the whole
# bandwidth axis, each total tagged with its pair's error, and one
# Pareto sweep over the union of every priced cell.  And one shard as
# it ran before families fused: its own grid call over its slice, then
# a full Pareto sweep over a constant error column.


def shard_oracle(job):
    """What ``evaluate_advisor_family`` must return for ``job``."""
    grid = compressed_time_grid(
        job.model, job.scheme or SyncSGDScheme(), job.inputs, job.gpu,
        job.profile, bandwidth_bytes_per_s=job.bandwidth_axis(),
        world_size=job.world_size)
    totals = grid.total
    keep = np.flatnonzero(pareto_mask(totals, np.zeros(totals.size)))
    return AdvisorShardResult(priced=int(totals.size),
                              offsets=tuple(keep.tolist()),
                              total_s=tuple(totals[keep].tolist()))


def advise_oracle(model, cluster, spec, candidates=None, batch_size=None):
    """What ``advise(model, cluster, ...)`` must report, with no shards.

    Planning (calibration, the memory screen, each pair's error) is
    ``plan_sweep``'s; only its shard expansion is ignored — one grid
    call per pair covers the full axis.
    """
    plan = plan_sweep(model, cluster, batch_size=batch_size,
                      candidates=candidates, spec=spec)
    bw_gbps = np.linspace(spec.min_bandwidth_gbps, spec.max_bandwidth_gbps,
                          spec.bandwidth_points)
    pairs = dict.fromkeys((ci, p, error) for ci, p, error, _ in plan.meta)
    times, errors, tags = [], [], []
    for ci, p, error in pairs:
        total = compressed_time_grid(
            model, plan.schemes[ci], plan.inputs, cluster.gpu,
            bandwidth_bytes_per_s=bw_gbps * GIGA / 8.0,
            world_size=p).total
        times.append(total)
        errors.append(np.full(total.size, error))
        tags.extend((plan.schemes[ci], p, i) for i in range(total.size))
    t = np.concatenate(times)
    e = np.concatenate(errors)
    keep = np.flatnonzero(pareto_mask(t, e))

    frontier = sorted(
        (FrontierPoint(scheme_label=tags[i][0].label,
                       world_size=int(tags[i][1]),
                       bandwidth_gbps=float(bw_gbps[tags[i][2]]),
                       time_s=float(t[i]), error=float(e[i]))
         for i in keep),
        key=lambda pt: (pt.time_s, pt.error, pt.scheme_label,
                        pt.world_size, pt.bandwidth_gbps))
    by_label = {}
    for i in keep:
        by_label.setdefault(tags[i][0].label, tags[i][0])
    labels = list(dict.fromkeys(pt.scheme_label for pt in frontier))
    crossovers = tuple(
        (label, solve_crossover(model, by_label[label], plan.inputs,
                                spec.min_bandwidth_gbps,
                                spec.max_bandwidth_gbps, gpu=cluster.gpu))
        for label in labels
        if not isinstance(by_label[label], SyncSGDScheme))
    return AdvisorReport(
        model=model.name,
        cluster=cluster.describe(),
        world_size=plan.inputs.world_size,
        bandwidth_gbps=plan.inputs.bandwidth_bytes_per_s * 8 / 1e9,
        spec=spec,
        candidates_total=len(plan.schemes),
        configs_total=(len(plan.schemes) * len(spec.world_sizes)
                       * spec.bandwidth_points),
        configs_priced=int(t.size),
        shards=len(plan.jobs),
        infeasible_pairs=plan.infeasible_pairs,
        frontier=tuple(frontier),
        crossovers=crossovers,
        recommendation=recommend_for_inputs(
            model, plan.inputs,
            candidates=[by_label[label] for label in labels],
            gpu=cluster.gpu),
    )


# ----- training substrate oracle ---------------------------------------------
#
# The numeric training path as it ran before it was vectorized: the ring
# all-reduce stepping chunk by chunk, fp16 encoded by numpy's own cast
# and aggregated as halves widened through a table, signSGD voting on
# decoded ±1 tensors, and one forward/backward per rank on 2-D batches.
# The production kernels must match these bit for bit.


def ring_allreduce_oracle(arrays, op=np.add):
    """What ``ring_allreduce(arrays, op)`` must return: the reduce-scatter
    and all-gather replayed step by step over copies of the inputs."""
    p = len(arrays)
    if p == 1:
        return [arrays[0].copy()]

    shape = arrays[0].shape
    flats = [np.array(a, copy=True).reshape(-1) for a in arrays]
    n = flats[0].size
    bounds = np.linspace(0, n, p + 1).astype(int)

    def chunk(rank, idx):
        return flats[rank][bounds[idx]:bounds[idx + 1]]

    for step in range(p - 1):
        sends = [(rank, (rank - step) % p,
                  chunk(rank, (rank - step) % p).copy())
                 for rank in range(p)]
        for src, idx, payload in sends:
            seg = chunk((src + 1) % p, idx)
            seg[:] = op(seg, payload)

    for step in range(p - 1):
        sends = [(rank, (rank + 1 - step) % p,
                  chunk(rank, (rank + 1 - step) % p).copy())
                 for rank in range(p)]
        for src, idx, payload in sends:
            chunk((src + 1) % p, idx)[:] = payload

    return [f.reshape(shape) for f in flats]


def fp16_encode_oracle(arr):
    """What ``FP16Compressor`` puts on the wire for float64 ``arr``."""
    finfo = np.finfo(np.float16)
    return np.clip(arr, finfo.min, finfo.max).astype(np.float16)


#: The fp16 codec's constants and widening table, as they read before it
#: rounded onto the half grid in float64.
_HALF_TINY = 2.0 ** -14
_EXPONENT = np.uint64(0x7FF0_0000_0000_0000)
_HALF_TO_DOUBLE = (np.arange(1 << 16, dtype=np.uint16).view(np.float16)
                   .astype(np.float64))


def to_half_oracle(arr):
    """``arr.astype(np.float16)`` for finite ``arr``, built from the
    float64 bits: adding ``2**(e + 42)`` leaves the half's mantissa in
    the sum's low bits (the fp16 codec's encoder before it kept float64)."""
    arr = np.asarray(arr, dtype=np.float64)
    mag = np.abs(arr)
    np.fmin(mag, 65536.0, out=mag)
    scale = np.fmax(mag, _HALF_TINY).view(np.uint64)
    scale &= _EXPONENT
    scale += np.uint64(42 << 52)
    mag += scale.view(np.float64)
    bits = mag.view(np.uint64)
    bits &= np.uint64(0xFFF)
    scale >>= np.uint64(42)
    bits += scale
    bits -= np.uint64(1051 << 10)  # (1023 - 14 + 42) << 10
    sign = np.right_shift(arr.view(np.uint64), np.uint64(48), out=scale)
    sign &= np.uint64(0x8000)
    bits |= sign
    half = bits.astype(np.uint16).view(np.float16)
    nan = np.isnan(arr)
    if nan.any():
        half[nan] = arr[nan].astype(np.float16)
    return half


def fp16_mean_allreduce_oracle(grads):
    """What ``MeanAllReduceAggregator(p, FP16Compressor()).step(grads)``
    must return, as ``(update, sent, received, messages, collective)``:
    each rank's gradient clipped and cast to halves, the halves widened
    through the table, summed over the step-by-step ring and averaged."""
    finfo = np.finfo(np.float16)
    halves = [to_half_oracle(np.clip(np.asarray(g, dtype=np.float64),
                                     finfo.min, finfo.max))
              for g in grads]
    values = [_HALF_TO_DOUBLE[h.view(np.uint16)] for h in halves]
    summed = ring_allreduce_oracle(values)[0]
    summed /= len(grads)
    update = summed.astype(np.float64).reshape(np.shape(grads[0]))
    wire = float(np.size(grads[0]) * 2)
    return update, wire, wire, 1, "ring_allreduce"


def majority_vote_oracle(grads):
    """What ``MajorityVoteAggregator(p).step(grads)`` must return, as
    ``(update, sent, received, messages, collective)``: every rank's
    packed signs decoded to a ±1.0 tensor, the ``p`` tensors summed and
    the sum's sign taken, ties toward +1."""
    p = len(grads)
    shape = np.shape(grads[0])
    numel = int(np.prod(shape))
    signs = np.array([-1.0, 1.0])
    decoded = np.empty((p, *shape))
    for rank, grad in enumerate(grads):
        packed = np.packbits(np.asarray(grad, dtype=np.float64)
                             .reshape(-1) >= 0.0)
        decoded[rank] = signs[np.unpackbits(packed, count=numel)].reshape(
            shape)
    total = np.sum(decoded, axis=0)
    update = np.where(total >= 0.0, 1.0, -1.0)
    wire = float(np.ceil(numel / 8.0))
    return update, wire, wire * (p - 1), 1, "allgather"


def loss_and_grads_oracle(model, x, y):
    """``model.loss_and_grads(x, y)`` for one 2-D batch, row-indexed."""
    h = x
    inputs = [x]
    for i in range(model.num_layers):
        z = h @ model.params[f"w{i}"] + model.params[f"b{i}"]
        h = np.maximum(z, 0.0) if i < model.num_layers - 1 else z
        inputs.append(h)
    shifted = h - h.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = x.shape[0]
    loss = float(-np.log(probs[np.arange(n), y] + 1e-12).mean())

    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads = {}
    for i in reversed(range(model.num_layers)):
        grads[f"w{i}"] = inputs[i].T @ delta
        grads[f"b{i}"] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.params[f"w{i}"].T
            delta *= (inputs[i] > 0.0)
    return loss, grads


def worker_grads_oracle(trainer, batch_size, step):
    """What ``trainer._worker_grads(batch_size, step)`` must return: one
    2-D forward/backward per rank, losses averaged."""
    losses, all_grads = [], []
    for rank, shard in enumerate(trainer.shards):
        rng = np.random.default_rng((trainer.seed, step, rank))
        idx = rng.choice(shard.num_samples,
                         size=min(batch_size, shard.num_samples),
                         replace=False)
        loss, grads = loss_and_grads_oracle(trainer.model, shard.x[idx],
                                            shard.y[idx])
        losses.append(loss)
        all_grads.append(grads)
    return float(np.mean(losses)), all_grads


# ----- performance-model oracle ----------------------------------------------
#
# The §4 model and its α+β collectives as one-point scalar code, the way
# they read before the array-generic kernel replaced them: early returns
# for a single worker, one collective call per bucket, one telemetry
# record per collective call.  Every one-point call, grid cell and
# tradeoff cell of the production kernel must match these bit for bit.


def _record_collective(algorithm, num_bytes, p, incast_factor=1.0):
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter("collective_calls_total", algorithm=algorithm).inc()
    registry.counter("collective_bytes_total",
                     algorithm=algorithm).inc(num_bytes)
    if incast_factor > 1.0 and p > 1:
        registry.counter("collective_incast_degraded_total",
                         algorithm=algorithm).inc()


def _validate_collective(num_bytes, p, bandwidth, alpha):
    if num_bytes < 0:
        raise ConfigurationError(f"num_bytes must be >= 0, got {num_bytes}")
    if p < 1:
        raise ConfigurationError(f"world size must be >= 1, got {p}")
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth}")
    if alpha < 0:
        raise ConfigurationError(f"alpha must be >= 0, got {alpha}")


def ring_allreduce_time(num_bytes, p, bandwidth, alpha):
    """Ring all-reduce: ``2α(p-1) + 2n(p-1)/(p·BW)``, 0.0 for one worker."""
    _validate_collective(num_bytes, p, bandwidth, alpha)
    _record_collective("ring_allreduce", num_bytes, p)
    if p == 1:
        return 0.0
    latency = 2.0 * alpha * (p - 1)
    transfer = 2.0 * num_bytes * (p - 1) / (p * bandwidth)
    return latency + transfer


def allgather_time(num_bytes, p, bandwidth, alpha, incast_factor=1.0):
    """Ring all-gather: ``α(p-1) + n(p-1)/BW``, 0.0 for one worker."""
    _validate_collective(num_bytes, p, bandwidth, alpha)
    if incast_factor < 1.0:
        raise ConfigurationError(
            f"incast_factor must be >= 1, got {incast_factor}")
    _record_collective("allgather", num_bytes, p, incast_factor)
    if p == 1:
        return 0.0
    latency = alpha * (p - 1)
    transfer = num_bytes * (p - 1) / bandwidth * incast_factor
    return latency + transfer


def double_tree_allreduce_time(num_bytes, p, bandwidth, alpha,
                               block_bytes=512 * 1024):
    """Double-binary-tree all-reduce: ``2α·log2(p)`` latency, the ring's
    bandwidth term, and one pipeline-fill block per tree level."""
    _validate_collective(num_bytes, p, bandwidth, alpha)
    if block_bytes <= 0:
        raise ConfigurationError(
            f"block_bytes must be > 0, got {block_bytes}")
    _record_collective("double_tree_allreduce", num_bytes, p)
    if p == 1:
        return 0.0
    levels = math.ceil(math.log2(p))
    latency = 2.0 * alpha * levels
    transfer = 2.0 * num_bytes * (p - 1) / (p * bandwidth)
    pipeline_fill = levels * min(block_bytes, num_bytes) / bandwidth
    return latency + transfer + pipeline_fill


def parameter_server_time(num_bytes, p, bandwidth, alpha,
                          incast_factor=1.0):
    """Parameter server: ``p-1`` uploads through one NIC (incast-scaled),
    then the broadcast back."""
    _validate_collective(num_bytes, p, bandwidth, alpha)
    if incast_factor < 1.0:
        raise ConfigurationError(
            f"incast_factor must be >= 1, got {incast_factor}")
    _record_collective("parameter_server", num_bytes, p, incast_factor)
    if p == 1:
        return 0.0
    gather = alpha + num_bytes * (p - 1) / bandwidth * incast_factor
    scatter = alpha + num_bytes * (p - 1) / bandwidth
    return gather + scatter


def hierarchical_allreduce_time(num_bytes, num_nodes, gpus_per_node,
                                nic_bytes_per_s, nvlink_bytes_per_s,
                                alpha_s):
    """Two-level all-reduce: ring within the node over NVLink, ring
    across nodes over the NIC, broadcast back over NVLink."""
    if num_bytes < 0:
        raise ConfigurationError(f"num_bytes must be >= 0, got {num_bytes}")
    if num_nodes < 1 or gpus_per_node < 1:
        raise ConfigurationError(
            f"invalid topology: {num_nodes} nodes x {gpus_per_node} GPUs")
    if nic_bytes_per_s <= 0 or nvlink_bytes_per_s <= 0:
        raise ConfigurationError("bandwidths must be > 0")
    if alpha_s < 0:
        raise ConfigurationError(f"alpha must be >= 0, got {alpha_s}")
    intra = 0.0
    if gpus_per_node > 1:
        intra = (2.0 * num_bytes * (gpus_per_node - 1)
                 / (gpus_per_node * nvlink_bytes_per_s))
    inter = ring_allreduce_time(num_bytes, num_nodes, nic_bytes_per_s,
                                alpha_s)
    bcast = num_bytes / nvlink_bytes_per_s if gpus_per_node > 1 else 0.0
    return intra + inter + bcast


def backward_time(model, gpu, batch_size):
    """``T_comp`` as ``ComputeModel`` wrote it: the whole batch's
    backward FLOPs over the sustained FLOP/s at that batch size."""
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}")
    saturation = 1.0 / (1.0 + model.batch_half_saturation / batch_size)
    rate = (gpu.effective_training_flops * model.compute_efficiency
            * saturation)
    return model.bwd_flops(batch_size) / rate


def syncsgd_time(model, inputs, gpu=V100):
    """§4.1 model for synchronous SGD with bucketing and overlap."""
    bs = inputs.batch_size or model.default_batch_size
    t_comp = backward_time(model, gpu, bs)
    p = inputs.world_size
    if p == 1:
        return PredictedTime(total=t_comp, compute=t_comp,
                             encode_decode=0.0, comm_exposed=0.0)

    bucket_sizes = model.bucket_sizes_bytes(inputs.bucket_cap_bytes)
    bw, alpha = inputs.bandwidth_bytes_per_s, inputs.alpha_s
    overlappable = sum(
        ring_allreduce_time(b, p, bw, alpha) for b in bucket_sizes[:-1])
    last = ring_allreduce_time(bucket_sizes[-1], p, bw, alpha)

    stretched = inputs.gamma * t_comp
    total = max(stretched, overlappable) + last
    return PredictedTime(
        total=total,
        compute=stretched,
        encode_decode=0.0,
        comm_exposed=total - stretched if total > stretched else last,
    )


def compressed_time(model, scheme, inputs, gpu=V100, profile=None,
                    scheme_cost=None):
    """§4.2 model for sequential compression; DDP-hook schemes use the
    overlap structure of :func:`syncsgd_time` on scaled buckets.  The
    scheme is priced by ``scheme_cost(scheme, model, world_size,
    profile)``, by default the production ``Scheme.cost``."""
    if isinstance(scheme, SyncSGDScheme):
        return syncsgd_time(model, inputs, gpu)
    prof = profile if profile is not None else v100_kernel_profile()
    bs = inputs.batch_size or model.default_batch_size
    t_comp = backward_time(model, gpu, bs)
    p = inputs.world_size
    if scheme_cost is None:
        cost = scheme.cost(model, p, prof)
    else:
        cost = scheme_cost(scheme, model, p, prof)

    if scheme.ddp_overlap:
        if p == 1:
            return PredictedTime(total=t_comp, compute=t_comp,
                                 encode_decode=cost.encode_decode_s,
                                 comm_exposed=0.0)
        ratio = cost.wire_bytes / model.grad_bytes
        buckets = model.bucket_sizes_bytes(inputs.bucket_cap_bytes)
        bw, alpha = inputs.bandwidth_bytes_per_s, inputs.alpha_s
        overlappable = sum(
            ring_allreduce_time(b * ratio, p, bw, alpha)
            for b in buckets[:-1])
        last = ring_allreduce_time(buckets[-1] * ratio, p, bw, alpha)
        stretched = inputs.gamma * t_comp
        total = (max(stretched, overlappable) + last
                 + cost.encode_decode_s)
        return PredictedTime(
            total=total, compute=stretched,
            encode_decode=cost.encode_decode_s,
            comm_exposed=max(0.0, total - stretched
                             - cost.encode_decode_s))

    if p == 1:
        comm = 0.0
    else:
        per_message = cost.wire_bytes / cost.messages
        bw, alpha = inputs.bandwidth_bytes_per_s, inputs.alpha_s
        if cost.all_reducible:
            single = ring_allreduce_time(per_message, p, bw, alpha)
        else:
            single = allgather_time(per_message, p, bw, alpha)
        comm = single * cost.messages

    total = t_comp + cost.encode_decode_s + comm
    return PredictedTime(
        total=total,
        compute=t_comp,
        encode_decode=cost.encode_decode_s,
        comm_exposed=comm,
    )


def tradeoff_time(model, base_scheme, k, l, inputs, gpu=V100,
                  profile=None):
    """Figure-13 cell: predicted seconds for the hypothetical scheme
    with encode/decode ``/k`` and wire payload ``*(l·k)``."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if l < 1:
        raise ConfigurationError(f"l must be >= 1, got {l}")
    prof = profile if profile is not None else v100_kernel_profile()
    bs = inputs.batch_size or model.default_batch_size
    t_comp = backward_time(model, gpu, bs)
    p = inputs.world_size
    base_cost = base_scheme.cost(model, p, prof)
    wire = min(base_cost.wire_bytes * l * k,
               float(model.grad_bytes))
    enc = base_cost.encode_decode_s / k
    if p == 1:
        comm = 0.0
    else:
        per_message = wire / base_cost.messages
        if base_cost.all_reducible:
            single = ring_allreduce_time(
                per_message, p, inputs.bandwidth_bytes_per_s,
                inputs.alpha_s)
        else:
            single = allgather_time(
                per_message, p, inputs.bandwidth_bytes_per_s,
                inputs.alpha_s)
        comm = single * base_cost.messages
    return t_comp + enc + comm


def strong_scaling_sweep(model, scheme, base_inputs, global_batch,
                         world_sizes, gpu=V100):
    """``(world size, per-GPU batch, iteration seconds)`` per sorted
    distinct world size: one ``predict`` call each."""
    points = []
    for p in sorted(set(world_sizes)):
        bs = global_batch // p
        inputs = replace(base_inputs, world_size=p, batch_size=bs)
        points.append((p, bs, predict(model, scheme, inputs, gpu).total))
    return points


# ----- scheme-cost oracle ------------------------------------------------------
#
# The layer-walking scheme costs as they read before the per-model
# tables: one Python pass over the trainable layers per call, adding
# each term to a running float.  The tables must reproduce every
# SchemeCost field bit for bit, scalar and array-valued profiles alike.


def _effective_rank(rank, m, n):
    return max(1, min(rank, m, n))


def powersgd_encode_decode_oracle(model, rank, profile):
    """PowerSGD encode+decode seconds, one layer at a time."""
    if rank < 1:
        raise ConfigurationError(f"rank must be >= 1, got {rank}")
    total = 0.0
    extras = 0
    for layer in model.trainable_layers:
        if layer.has_matrix:
            m, n = layer.matrix_shape
            r = _effective_rank(rank, m, n)
            total += profile.tensor_overhead_s
            total += 6.0 * m * n * r / profile.matmul_flops_per_s
            total += (m + n) * r * r / profile.orth_elems_per_s
            extras += layer.extra_params
        else:
            extras += layer.num_params
    total += extras / profile.elementwise_elems_per_s
    return total


def atomo_encode_decode_oracle(model, rank, profile, world_size):
    """ATOMO encode+decode seconds, one matrix layer at a time."""
    if rank < 1:
        raise ConfigurationError(f"rank must be >= 1, got {rank}")
    if world_size < 1:
        raise ConfigurationError(
            f"world_size must be >= 1, got {world_size}")
    total = 0.0
    for layer in model.matrix_layers:
        m, n = layer.matrix_shape
        r = _effective_rank(rank, m, n)
        total += profile.tensor_overhead_s
        total += 8.0 * m * n * min(m, n) / profile.svd_flops_per_s
        total += 2.0 * m * n * r * world_size / profile.matmul_flops_per_s
    return total


def _powersgd_cost(scheme, model, profile):
    wire = 0.0
    for layer in model.trainable_layers:
        if layer.has_matrix:
            m, n = layer.matrix_shape
            r = max(1, min(scheme.rank, m, n))
            wire += r * (m + n) * FLOAT32_BYTES
            wire += layer.extra_params * FLOAT32_BYTES
        else:
            wire += layer.num_params * FLOAT32_BYTES
    return SchemeCost(
        wire_bytes=wire, messages=2,
        encode_decode_s=powersgd_encode_decode_oracle(
            model, scheme.rank, profile),
        all_reducible=True, gather_stack_bytes=0.0)


def _atomo_cost(scheme, model, world_size, profile):
    wire = 0.0
    for layer in model.trainable_layers:
        if layer.has_matrix:
            m, n = layer.matrix_shape
            r = max(1, min(scheme.rank, m, n))
            wire += (r * (m + n + 1) + layer.extra_params) * FLOAT32_BYTES
        else:
            wire += layer.num_params * FLOAT32_BYTES
    return SchemeCost(
        wire_bytes=wire, messages=3,
        encode_decode_s=atomo_encode_decode_oracle(
            model, scheme.rank, profile, world_size),
        all_reducible=False, gather_stack_bytes=_stack_bytes(scheme, model))


def _hybrid_cost(scheme, model, profile):
    compressed, dense = scheme.partition(model)
    wire = 0.0
    encode = 0.0
    for layer in compressed:
        m, n = layer.matrix_shape
        r = _effective_rank(scheme.rank, m, n)
        wire += (r * (m + n) + layer.extra_params) * FLOAT32_BYTES
        encode += profile.tensor_overhead_s
        encode += 6.0 * m * n * r / profile.matmul_flops_per_s
        encode += (m + n) * r * r / profile.orth_elems_per_s
    dense_params = sum(layer.num_params for layer in dense)
    wire += dense_params * FLOAT32_BYTES
    encode += dense_params / profile.elementwise_elems_per_s
    return SchemeCost(
        wire_bytes=wire, messages=2 if compressed else 1,
        encode_decode_s=encode, all_reducible=True, gather_stack_bytes=0.0)


def _stack_bytes(scheme, model):
    if scheme.all_reducible:
        return 0.0
    if model.gather_granularity == "layer":
        return float(max(layer.grad_bytes
                         for layer in model.trainable_layers))
    return float(model.grad_bytes)


def scheme_cost_oracle(scheme, model, world_size, profile):
    """``scheme.cost(model, world_size, profile)`` with every layer walk
    done per call: PowerSGD, ATOMO and the hybrid policy walk the
    trainable layers, and gather schemes rescan the largest layer."""
    if isinstance(scheme, HybridPowerSGDScheme):
        return _hybrid_cost(scheme, model, profile)
    if isinstance(scheme, PowerSGDScheme):
        return _powersgd_cost(scheme, model, profile)
    if isinstance(scheme, ATOMOScheme):
        return _atomo_cost(scheme, model, world_size, profile)
    cost = scheme.cost(model, world_size, profile)
    return replace(cost, gather_stack_bytes=_stack_bytes(scheme, model))


# ----- fabric, jitter-draw and histogram oracles -------------------------------


def bandwidth_matrix_oracle(fabric):
    """A fresh, private draw of ``fabric``'s pairwise bandwidth matrix."""
    n = fabric.cluster.num_nodes
    nominal = fabric.cluster.instance.network_bytes_per_s
    rng = np.random.default_rng(fabric.cluster.seed)
    matrix = np.full((n, n), nominal)
    if fabric.bandwidth_jitter > 0 and n > 1:
        draws = rng.lognormal(
            mean=0.0, sigma=fabric.bandwidth_jitter, size=(n, n))
        draws = np.minimum(np.tril(draws, -1) + np.tril(draws, -1).T, 1.0)
        np.fill_diagonal(draws, 1.0)
        matrix = matrix * draws
    return matrix


def masked_draw_oracle(sigmas, rng, present):
    """One member's ``(n, S)`` jitter matrix through the boolean gather
    and scatter, whatever the presence mask."""
    n = present.shape[0]
    S = len(sigmas)
    if S == 0:
        return np.ones((n, 0))
    J = np.ones((n, S))
    sigma = np.broadcast_to(np.asarray(sigmas, dtype=float), (n, S))
    flat = sigma[present]
    if flat.size:
        J[present] = rng.lognormal(mean=0.0, sigma=flat)
    return J


class HistogramOracle:
    """``Histogram.observe`` one value at a time."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples = []

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < MAX_HISTOGRAM_SAMPLES:
            self.samples.append(value)


class UncachedRegistry(MetricsRegistry):
    """A registry that derives every lookup's canonical key, as the
    registry did before its per-call lookup cache."""

    def counter(self, name, **labels):
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name, **labels):
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name, **labels):
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric


class LRUOracle:
    """The hot tier's byte-budgeted LRU, with its byte count summed
    from the entries at every step instead of kept as a running total.

    ``entries`` maps key -> (payload, charged bytes), least recent
    first.  An entry larger than the whole budget is refused, after
    dropping the key's older payload.
    """

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.entries = OrderedDict()
        self.evictions = 0

    @property
    def current_bytes(self):
        return sum(nbytes for _, nbytes in self.entries.values())

    def get_many(self, keys):
        found = {}
        for key in keys:
            if key in self.entries:
                self.entries.move_to_end(key)
                found[key] = self.entries[key][0]
        return found

    def put_many(self, items):
        evicted = 0
        for key, payload, nbytes in items:
            if nbytes is None:
                nbytes = len(json.dumps(payload, separators=(",", ":")))
            self.entries.pop(key, None)
            if nbytes > self.max_bytes:
                continue
            self.entries[key] = (payload, nbytes)
            while self.current_bytes > self.max_bytes:
                self.entries.popitem(last=False)
                evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self):
        self.entries.clear()


# ----- pack index: the line-by-line loader ------------------------------------
#
# How ``PackStore`` loaded ``pack-index.jsonl`` before an intact index
# was parsed in one ``json.loads``: every line on its own, then the same
# validation of each entry.


def index_oracle(directory):
    """``(index, truncated)`` as a store opened on ``directory`` must
    hold them: ``index`` maps each key to ``(segment, offset, length)``."""
    sizes = {}
    for name in os.listdir(directory):
        if name.startswith("pack-") and name.endswith(".jsonl") \
                and name[5:11].isdigit() and len(name) == 17:
            sizes[name] = os.path.getsize(os.path.join(directory, name))
    try:
        with open(os.path.join(directory, "pack-index.jsonl"),
                  encoding="utf-8", errors="replace") as handle:
            lines = handle.read().split("\n")
    except OSError:
        lines = []
    index, truncated = {}, 0
    for line in lines:
        if not line:
            continue
        try:
            entry = json.loads(line)
            key = entry["k"]
            location = (entry["s"], int(entry["o"]), int(entry["l"]))
            size = sizes.get(location[0])
            hash(key)
        except (ValueError, KeyError, TypeError, OverflowError):
            truncated += 1
            continue
        if size is None or location[1] + location[2] > size:
            truncated += 1
            continue
        index[key] = location
    return index, truncated
