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

**Fragments.**  A job's key payload is a flat dict whose big members
are rendered once per spec object and reused.  The frozen inputs —
:class:`~repro.models.ModelSpec` (hundreds of layers),
:class:`~repro.hardware.ClusterConfig`,
:class:`~repro.simulator.DDPConfig`,
:class:`~repro.compression.kernel_cost.KernelProfile` and
:class:`~repro.hardware.GPUSpec` — go through ``*_fragment`` functions
that memoize their canonical JSON text as a :class:`Fragment`, keyed by
object identity in a per-kind table; a weak reference evicts the entry
when the spec dies, so nothing is stored on the spec itself and a
pickled spec stays the size it was.  The mutable inputs are rendered on
every call: the scheme (its parameters are read from ``vars()``), the
fabric (``degrade_link`` rewrites its live bandwidth matrix) and the
fault schedule.  Family keys are never persisted.  They carry the model
as :func:`model_digest`, the memoized SHA-256 of its fragment, instead
of the fragment itself; a simulation's family key
(:func:`sim_family_key`) hashes the memoized fragments as they are
instead of encoding one payload per job.

:func:`canonical_json` splices a top-level :class:`Fragment` member in
verbatim.  Because a fragment *is* the canonical JSON of its payload,
and ``json.dumps(sort_keys=True, separators=(",", ":"))`` of a dict is
just ``"key":<value JSON>`` pairs joined in sorted key order, the
spliced text — and so every SHA-256 key — is byte-identical to encoding
the fully expanded payload.  ``tests/oracle.py`` keeps the expanded
dict builders as the reference that property is tested against.

Anything not captured here MUST NOT influence ``DDPSimulator.run`` —
that is the cache's correctness contract, and what
``tests/test_engine_cache.py`` exercises field by field.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, TypeVar

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..hardware import ClusterConfig, GPUSpec
from ..memo import per_object
from ..models import ModelSpec
from ..network import Fabric
from ..simulator import DDPConfig

if TYPE_CHECKING:
    from ..faults import FaultSchedule

#: Bump when the simulator's output semantics change incompatibly, so
#: stale cache directories are never silently reused across versions.
FINGERPRINT_VERSION = 1

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False)


class Fragment(str):
    """Canonical JSON text of one payload member, already rendered.

    :func:`canonical_json` splices it into a top-level dict verbatim
    instead of encoding it as a string.
    """

    __slots__ = ()


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance.

    :class:`Fragment` members of a top-level dict are spliced in as the
    JSON they already are; the result is the text the expanded payload
    would encode to.  Each run of plain members between two fragments
    (in sorted key order) is encoded as one dict with its braces
    stripped, which is exactly those members' text.
    """
    if not (isinstance(payload, dict) and any(
            type(value) is Fragment for value in payload.values())):
        return _ENCODER.encode(payload)
    parts: List[str] = []
    run: Dict[str, Any] = {}
    for key, value in sorted(payload.items()):
        if type(value) is not Fragment:
            run[key] = value
            continue
        if run:
            parts.append(_ENCODER.encode(run)[1:-1])
            run = {}
        parts.append(encode_basestring_ascii(key) + ":" + value)
    if run:
        parts.append(_ENCODER.encode(run)[1:-1])
    return "{" + ",".join(parts) + "}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return _sha256(canonical_json(payload))


_Spec = TypeVar("_Spec")


def _memoized(render: Callable[[_Spec], Any]) -> Callable[[_Spec], Fragment]:
    """Memoize ``Fragment(canonical_json(render(spec)))`` per spec object
    (:func:`~repro.memo.per_object`: only for frozen specs)."""
    return functools.wraps(render)(per_object(
        lambda spec: Fragment(canonical_json(render(spec)))))


@_memoized
def model_fragment(model: ModelSpec) -> Dict[str, Any]:
    """Everything about a model that the simulator's timing depends on."""
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


@per_object
def model_digest(model: ModelSpec) -> str:
    """SHA-256 hex digest of :func:`model_fragment`, once per model.

    Family keys carry this instead of the fragment: equal content still
    gives an equal key, but grouping a sweep no longer hashes a
    hundred-layer rendering per job.  Cache keys keep the fragment.
    """
    return _sha256(model_fragment(model))


def _gpu_payload(gpu: GPUSpec) -> Dict[str, Any]:
    return {
        "name": gpu.name,
        "peak_fp32_flops": gpu.peak_fp32_flops,
        "training_efficiency": gpu.training_efficiency,
        "memcpy_bytes_per_s": gpu.memcpy_bytes_per_s,
        "memory_bytes": gpu.memory_bytes,
        "kernel_launch_overhead_s": gpu.kernel_launch_overhead_s,
    }


#: GPU identity, in the same rendering cluster fragments nest.
gpu_fragment = _memoized(_gpu_payload)


@_memoized
def cluster_fragment(cluster: ClusterConfig) -> Dict[str, Any]:
    """Cluster identity: topology, seed, instance and GPU parameters."""
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


@_memoized
def _config_fragment(config: DDPConfig) -> Dict[str, Any]:
    return asdict(config)


_DEFAULT_CONFIG = DDPConfig()


def config_fragment(config: Optional[DDPConfig]) -> Fragment:
    """All :class:`DDPConfig` knobs (``None`` renders as the default)."""
    return _config_fragment(config if config is not None
                            else _DEFAULT_CONFIG)


@_memoized
def _profile_fragment(profile: KernelProfile) -> Dict[str, Any]:
    payload = asdict(profile)
    payload["default"] = False
    return payload


_DEFAULT_PROFILE = Fragment(canonical_json({"default": True}))


def profile_fragment(profile: Optional[KernelProfile]) -> Fragment:
    """Kernel-cost profile parameters (``None`` = simulator default)."""
    if profile is None:
        return _DEFAULT_PROFILE
    return _profile_fragment(profile)


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


def spec_payload(model: str, scheme: Optional[Scheme], gpu: GPUSpec,
                 profile: Optional[KernelProfile]) -> Dict[str, Any]:
    """The members a closed-form job's fingerprint and family key share
    (model-eval points, advisor shards); ``model`` is the model's
    fragment or, in a family key, its digest."""
    return {
        "model": model,
        "scheme": scheme_payload(scheme),
        "gpu": gpu_fragment(gpu),
        "profile": profile_fragment(profile),
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


def sim_family_key(model: ModelSpec, cluster: ClusterConfig,
                   scheme: Optional[Scheme], fabric: Optional[Fabric],
                   config: Optional[DDPConfig],
                   profile: Optional[KernelProfile],
                   protocol: List[Any]) -> str:
    """Content key of a simulation family, without re-encoding spec JSON.

    The SHA-256 of one line per input: the model's memoized digest, the
    memoized fragments of the other frozen inputs (cluster, config,
    profile), and the canonical JSON of the mutable inputs (scheme,
    fabric) and of ``protocol`` (batch size, iterations, warmup),
    rendered on every call.  Equal content gives an equal key.
    """
    return _sha256("\n".join((
        f"sim-family/{FINGERPRINT_VERSION}",
        model_digest(model),
        cluster_fragment(cluster),
        _ENCODER.encode(scheme_payload(scheme)),
        _ENCODER.encode(fabric_payload(fabric)),
        config_fragment(config),
        profile_fragment(profile),
        _ENCODER.encode(protocol))))


def faults_payload(faults: Optional[FaultSchedule],
                   ) -> Optional[Dict[str, Any]]:
    """The schedule's full payload, or ``None`` when there is nothing
    to inject.

    ``None`` and an *empty* schedule both return ``None`` — the
    simulator treats them identically, so they must share a cache key;
    and a fault-free job's key must stay byte-for-byte what it was
    before fault injection existed (``SimJob.fingerprint`` omits the
    ``faults`` field entirely in that case).
    """
    if faults is None or faults.is_empty:
        return None
    return faults.fingerprint_payload()
