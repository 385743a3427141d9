"""Reference implementations the production code is tested against.

``DDPSimulator.run`` computes a whole measurement run in one batch
kernel call; :meth:`DDPSimulator.simulate_iteration` is the readable
per-iteration spec of the same DDP semantics.  :func:`event_run` loops
the spec over the paper's protocol, so tests can assert that ``run()``
reproduces it bit for bit.

It also keeps the reference cache-key builders, the advisor sweep's
unsharded reduction and the training substrate's step-by-step loops
(below).
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np

from repro.analysis.advisor import (
    AdvisorReport,
    FrontierPoint,
    pareto_mask,
    plan_sweep,
)
from repro.compression.schemes import SyncSGDScheme
from repro.core.advisor import recommend_for_inputs
from repro.core.grid import compressed_time_grid
from repro.core.whatif import solve_crossover
from repro.simulator import DDPConfig, TimingResult
from repro.units import GIGA


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
    traces = [sim.simulate_iteration(bs, rng, iteration=i)
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


# ----- cache-key oracle ------------------------------------------------------
#
# The expanded dict-payload builders the engine's job kinds hashed before
# their keys were composed from memoized fragments
# (:mod:`repro.engine.fingerprint`).  Every key is the SHA-256 of
# ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``; the
# composed keys must stay byte-identical to these.


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
        "version": 1,
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
        "version": 1,
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
        "version": 1,
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


def oracle_fingerprint(job):
    """What ``job.fingerprint()`` must return."""
    return _sha(_canonical(_KEY_PAYLOADS[type(job).__name__][0](job)))


def oracle_family_key(job):
    """What ``job.family_key()`` must return: the digest of the family
    payload, for every job kind."""
    return _sha(_canonical(_KEY_PAYLOADS[type(job).__name__][1](job)))


# ----- advisor sweep oracle --------------------------------------------------
#
# The sweep's reduction as it ran before shards reduced in the worker:
# every feasible (candidate, world size) pair priced over the whole
# bandwidth axis, each total tagged with its pair's error, and one
# Pareto sweep over the union of every priced cell.


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
# all-reduce stepping chunk by chunk, fp16 encoded by numpy's own cast,
# and one forward/backward per rank on 2-D batches.  The production
# kernels must match these bit for bit.


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
