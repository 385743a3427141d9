"""Stable content fingerprints for simulation configurations.

The result cache is *content-addressed*: a simulation's identity is the
SHA-256 of a canonical JSON rendering of everything that determines its
output — the model's exact layer metadata, the scheme (label and
parameters), the cluster, the :class:`~repro.simulator.DDPConfig`, the
fabric's pricing parameters *and its current bandwidth matrix* (so a
``degrade_link`` fault produces a different key), the kernel profile,
and the run protocol (batch size, iterations, warmup, seed).

Two rules keep keys stable across processes and sessions:

* floats are rendered with ``repr`` (shortest round-trip form), so the
  same value always serializes to the same text;
* dict keys are sorted, so insertion order never leaks into the hash.

**Digest-composed keys.**  A job's key payload is a small flat dict.
Each frozen input — :class:`~repro.models.ModelSpec` (hundreds of
layers), :class:`~repro.hardware.ClusterConfig`,
:class:`~repro.simulator.DDPConfig`,
:class:`~repro.compression.kernel_cost.KernelProfile` and
:class:`~repro.hardware.GPUSpec` — enters it as the SHA-256 of its own
canonical JSON, computed by a ``*_digest`` function once per spec
object (:func:`~repro.memo.per_object`: keyed by identity, evicted by a
weak reference when the spec dies, nothing stored on the spec).  So a
key hashes a payload of well under 2 kB however large the model is,
and equal content still gives an equal key.  The mutable inputs are
rendered on every call: the scheme (its parameters are read from
``vars()``), the fabric (``degrade_link`` rewrites its live bandwidth
matrix) and the fault schedule.  Family keys, which only group misses
inside one batch and are never persisted, are digests of the same
members minus the axes a family stacks.

Version 2 of the key format introduced the digests (version 1 embedded
each spec's full rendering), so a cache directory written under
version 1 misses once, re-executes into the pack, and hits after that.
``tests/oracle.py`` keeps the expanded dict builders; the key is their
payload with every frozen member replaced by its digest.

Anything not captured here MUST NOT influence ``DDPSimulator.run`` —
that is the cache's correctness contract, and what
``tests/test_engine_cache.py`` exercises field by field.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, TypeVar

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..hardware import ClusterConfig, GPUSpec
from ..memo import per_object
from ..models import ModelSpec
from ..network import Fabric
from ..simulator import DDPConfig

if TYPE_CHECKING:
    from ..faults import FaultSchedule

#: Bump when the simulator's output semantics or the key or payload
#: format change incompatibly, so stale cache directories are never
#: silently reused across versions.
FINGERPRINT_VERSION = 2

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return _ENCODER.encode(payload)


def digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


_Spec = TypeVar("_Spec")


def _spec_digest(render: Callable[[_Spec], Any]) -> Callable[[_Spec], str]:
    """Memoize ``digest(render(spec))`` per spec object
    (:func:`~repro.memo.per_object`: only for frozen specs)."""
    return functools.wraps(render)(per_object(
        lambda spec: digest(render(spec))))


@_spec_digest
def model_digest(model: ModelSpec) -> Dict[str, Any]:
    """Digest of everything about a model that the simulator's timing
    depends on, its per-layer metadata included."""
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


def _gpu_payload(gpu: GPUSpec) -> Dict[str, Any]:
    return {
        "name": gpu.name,
        "peak_fp32_flops": gpu.peak_fp32_flops,
        "training_efficiency": gpu.training_efficiency,
        "memcpy_bytes_per_s": gpu.memcpy_bytes_per_s,
        "memory_bytes": gpu.memory_bytes,
        "kernel_launch_overhead_s": gpu.kernel_launch_overhead_s,
    }


#: GPU identity, in the same rendering cluster payloads nest.
gpu_digest = _spec_digest(_gpu_payload)


@_spec_digest
def cluster_digest(cluster: ClusterConfig) -> Dict[str, Any]:
    """Digest of the cluster's identity: topology, seed, instance and
    GPU parameters."""
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
        "gpu": _gpu_payload(instance.gpu),
    }


@_spec_digest
def _config_digest(config: DDPConfig) -> Dict[str, Any]:
    return asdict(config)


_DEFAULT_CONFIG = DDPConfig()


def config_digest(config: Optional[DDPConfig]) -> str:
    """Digest of all :class:`DDPConfig` knobs (``None`` is the default
    config)."""
    return _config_digest(config if config is not None
                          else _DEFAULT_CONFIG)


@_spec_digest
def _profile_digest(profile: KernelProfile) -> Dict[str, Any]:
    payload = asdict(profile)
    payload["default"] = False
    return payload


_DEFAULT_PROFILE = digest({"default": True})


def profile_digest(profile: Optional[KernelProfile]) -> str:
    """Digest of the kernel-cost profile parameters (``None`` = the
    simulator default)."""
    if profile is None:
        return _DEFAULT_PROFILE
    return _profile_digest(profile)


def scheme_payload(scheme: Optional[Scheme]) -> Dict[str, Any]:
    """Scheme identity: class, label, and all constructor parameters.

    ``None`` (the syncSGD default) hashes distinctly from an explicit
    :class:`~repro.compression.schemes.SyncSGDScheme` label so the key
    still matches what the simulator actually runs.
    """
    if scheme is None:
        return {"name": "syncsgd", "label": "syncsgd", "params": {}}
    return {
        "name": scheme.name,
        "label": scheme.label,
        "class": type(scheme).__name__,
        "all_reducible": scheme.all_reducible,
        "layerwise": scheme.layerwise,
        "ddp_overlap": scheme.ddp_overlap,
        # Built-in schemes keep their parameters (rank, fraction, ...)
        # as plain instance attributes; custom schemes should too.
        "params": {k: v for k, v in sorted(vars(scheme).items())
                   if not k.startswith("_")},
    }


def spec_payload(model: ModelSpec, scheme: Optional[Scheme], gpu: GPUSpec,
                 profile: Optional[KernelProfile]) -> Dict[str, Any]:
    """The members a closed-form job's fingerprint and family key share
    (model-eval points, advisor shards)."""
    return {
        "model": model_digest(model),
        "scheme": scheme_payload(scheme),
        "gpu": gpu_digest(gpu),
        "profile": profile_digest(profile),
    }


def fabric_payload(fabric: Optional[Fabric]) -> Dict[str, Any]:
    """Fabric pricing parameters plus the live bandwidth matrix.

    The matrix digest is what invalidates cache entries after
    ``degrade_link``/``degrade_node``: the same cluster with a limping
    link is a different experiment.
    """
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


def faults_payload(faults: Optional[FaultSchedule],
                   ) -> Optional[Dict[str, Any]]:
    """The schedule's full payload, or ``None`` when there is nothing
    to inject.

    ``None`` and an *empty* schedule both return ``None`` — the
    simulator treats them identically, so they must share a cache key
    (``SimJob.fingerprint`` omits the ``faults`` field entirely in that
    case).
    """
    if faults is None or faults.is_empty:
        return None
    return faults.fingerprint_payload()
