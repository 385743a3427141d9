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

**Digest-composed keys.**  A job's key is the SHA-256 of a small
flat JSON object, assembled by :func:`compose` from the canonical JSON
text of each member, in sorted-name order, without encoding the object
as a dict.  Each frozen input — :class:`~repro.models.ModelSpec`
(hundreds of layers), :class:`~repro.hardware.ClusterConfig`,
:class:`~repro.simulator.DDPConfig`,
:class:`~repro.compression.kernel_cost.KernelProfile` and
:class:`~repro.hardware.GPUSpec` — enters it as the SHA-256 of its own
canonical JSON, so a key hashes well under 2 kB however large the
model is, and equal content still gives an equal key.

**What is memoized, and why no key goes stale.**  Every memo is kept
by :func:`~repro.memo.per_object`: keyed by identity, evicted by a weak
reference when the object dies, nothing stored on the object.

* The spec digests above, and the texts of a
  :class:`~repro.faults.FaultSchedule` and of a job's
  :class:`~repro.core.perf_model.PerfModelInputs` members: all of
  these objects are frozen, so their text cannot change while they
  live.
* A scheme's text (:func:`scheme_fragment`).  Schemes are mutable, so
  the memo also holds the scheme's class and a snapshot of its
  ``vars()``, and the text is rendered again whenever the class, an
  attribute name or any attribute value's identity differs.  Values
  are compared by identity, not ``==``, so ``1``, ``1.0``, ``True``
  and ``-0.0``/``0.0`` (which render differently) never pass for each
  other.  A scheme holding any value that is not a plain scalar
  (``int``, ``float``, ``str``, ``bool``, ``None``), which could change
  in place, is rendered on every call.  A scheme's text must depend
  only on its class and ``vars()``, as the built-in schemes' does.
* Nothing about the fabric: ``degrade_link`` rewrites its live
  bandwidth matrix, so it is rendered on every call.

Family keys, which only group misses inside one batch and are never
persisted, are composed from the same members minus the axes a family
stacks.

Version 2 of the key format introduced the digests (version 1 embedded
each spec's full rendering), so a cache directory written under
version 1 misses once, re-executes into the pack, and hits after that.
``tests/oracle.py`` keeps the expanded dict builders; the key is the
digest of their payload with every frozen member replaced by its
digest.

Anything not captured here MUST NOT influence ``DDPSimulator.run`` —
that is the cache's correctness contract, and what
``tests/test_engine_cache.py`` exercises field by field.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _json_string
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple, TypeVar)

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


class Fragment(str):
    """Canonical JSON text of one key member, which :func:`compose`
    splices into the key verbatim."""

    __slots__ = ()


def spec_fragment(render: Callable[[_Spec], Any],
                  ) -> Callable[[_Spec], Fragment]:
    """Memoize the canonical JSON of ``render(spec)`` per spec object as
    a :class:`Fragment` (:func:`~repro.memo.per_object`: only for
    frozen specs)."""
    return functools.wraps(render)(per_object(
        lambda spec: Fragment(canonical_json(render(spec)))))


#: Member names in sorted order with their JSON prefixes, per tuple of
#: names as a job kind lists them.
_ORDERS: Dict[Tuple[str, ...], List[Tuple[str, str]]] = {}


def compose(members: Dict[str, Any]) -> str:
    """SHA-256 of ``canonical_json(members)``, assembled from each
    member's text in sorted-name order, without encoding the dict.

    A :class:`Fragment` is spliced in as already rendered; strings,
    ints, finite floats and ``None`` are rendered as
    :func:`canonical_json` renders them, anything else by it.  Member
    names must be plain identifiers.
    """
    names = tuple(members)
    order = _ORDERS.get(names)
    if order is None:
        order = _ORDERS[names] = [(name, f'"{name}":')
                                  for name in sorted(names)]
    parts = []
    for name, prefix in order:
        value = members[name]
        kind = type(value)
        if kind is Fragment:
            text = value
        elif kind is str:
            text = _json_string(value)
        elif kind is int:
            text = int.__repr__(value)
        elif kind is float and value - value == 0.0:  # finite
            text = float.__repr__(value)
        elif value is None:
            text = "null"
        else:
            text = canonical_json(value)
        parts.append(prefix + text)
    text = ",".join(parts)
    return hashlib.sha256(f"{{{text}}}".encode("utf-8")).hexdigest()


def _scheme_payload(scheme: Scheme) -> Dict[str, Any]:
    """Scheme identity: class, label, and all constructor parameters."""
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


#: ``None`` (the syncSGD default) hashes distinctly from an explicit
#: :class:`~repro.compression.schemes.SyncSGDScheme` so the key still
#: matches what the simulator actually runs.
_DEFAULT_SCHEME = Fragment(canonical_json(
    {"name": "syncsgd", "label": "syncsgd", "params": {}}))

_PLAIN = frozenset({int, float, str, bool, type(None)})


@per_object
def _scheme_memo(scheme: Scheme) -> List[Any]:
    """One slot per scheme: ``(class, names, values, text)`` of its last
    rendering, stored as one tuple so threads never see a torn pair."""
    return [None]


def scheme_fragment(scheme: Optional[Scheme]) -> Fragment:
    """The scheme's payload text, rendered again whenever its class or
    ``vars()`` snapshot differs (see the module docstring)."""
    if scheme is None:
        return _DEFAULT_SCHEME
    state = vars(scheme)
    kind, names, values = type(scheme), tuple(state), tuple(state.values())
    slot = _scheme_memo(scheme)
    last = slot[0]
    if last is not None and last[0] is kind and last[1] == names \
            and all(map(operator.is_, last[2], values)):
        return last[3]
    text = Fragment(canonical_json(_scheme_payload(scheme)))
    if all(type(value) in _PLAIN for value in values):
        slot[0] = (kind, names, values, text)
    return text


def spec_members(model: ModelSpec, scheme: Optional[Scheme], gpu: GPUSpec,
                 profile: Optional[KernelProfile]) -> Dict[str, Any]:
    """The members a closed-form job's fingerprint and family key share
    (model-eval points, advisor shards)."""
    return {
        "model": model_digest(model),
        "scheme": scheme_fragment(scheme),
        "gpu": gpu_digest(gpu),
        "profile": profile_digest(profile),
    }


_DEFAULT_FABRIC = Fragment(canonical_json({"default": True}))


def fabric_fragment(fabric: Optional[Fabric]) -> Fragment:
    """Fabric pricing parameters plus the live bandwidth matrix,
    rendered on every call.

    The matrix digest is what invalidates cache entries after
    ``degrade_link``/``degrade_node``: the same cluster with a limping
    link is a different experiment.
    """
    if fabric is None:
        return _DEFAULT_FABRIC
    return Fragment(canonical_json({
        "default": False,
        "alpha_s": fabric.alpha_s,
        "bandwidth_jitter": fabric.bandwidth_jitter,
        "incast_per_sender": fabric.incast_per_sender,
        "pair_bw_sha256": hashlib.sha256(
            fabric._pair_bw.tobytes()).hexdigest(),
    }))


@per_object
def _faults_fragment(faults: FaultSchedule) -> Optional[Fragment]:
    """The schedule's text; ``None``, remembered too, when it is empty."""
    if faults.is_empty:
        return None
    return Fragment(canonical_json(faults.fingerprint_payload()))


def faults_fragment(faults: Optional[FaultSchedule]) -> Optional[Fragment]:
    """The schedule's full payload text, or ``None`` when there is
    nothing to inject.

    ``None`` and an *empty* schedule both return ``None`` — the
    simulator treats them identically, so they must share a cache key
    (``SimJob.fingerprint`` omits the ``faults`` field entirely in that
    case).
    """
    return None if faults is None else _faults_fragment(faults)
