"""Core interfaces of the compression package.

Three layers, mirroring how the paper treats compression:

* :class:`Compressor` — the single-tensor math: encode a gradient into a
  compact payload, decode it back.  Stateless; numerically real (numpy).
* :class:`Aggregator` — the distributed semantics: given one gradient per
  worker, produce the update every worker applies, moving payloads
  through the *numeric collectives* (ring all-reduce when the method is
  associative, all-gather otherwise) and tracking how many bytes each
  worker put on the wire.  Stateful (error feedback, warm starts).
* wire/cost planning (:mod:`repro.compression.schemes`,
  :mod:`repro.compression.kernel_cost`) — byte and time accounting from a
  :class:`~repro.models.ModelSpec` alone, for the performance model.

Payloads are :class:`Payload` objects: a tuple of numpy arrays plus the
number of bytes the payload occupies on the wire.  Wire bytes are computed
from the *logical* encoding (packed bits for signs, fp16 for half
precision), not from the numpy dtypes used to carry the data around.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import CompressionError
from .registry import get_method


@dataclass(frozen=True)
class Payload:
    """An encoded gradient.

    Attributes:
        arrays: The tensors making up the encoding (e.g. ``(values,
            indices)`` for Top-K, ``(P, Q)`` for PowerSGD).
        wire_bytes: Size of the encoding on the wire, after logical
            packing (bit-packed signs, fp16 halves, ...).
        shape: Shape of the original gradient, needed to decode.
        meta: Small method-specific extras (scales, norms).
    """

    arrays: Tuple[np.ndarray, ...]
    wire_bytes: float
    shape: Tuple[int, ...]
    meta: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.wire_bytes < 0:
            raise CompressionError(
                f"wire_bytes must be >= 0, got {self.wire_bytes}")


class Compressor(abc.ABC):
    """Single-tensor lossy codec.

    Subclasses set ``name``, the codec's name in the method registry.
    The paper's Table 1 flags (``all_reducible``, ``layerwise``) belong
    to the method, not the codec: its :class:`~repro.compression.
    registry.Method` row reads them from the scheme class.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, grad: np.ndarray) -> Payload:
        """Compress one gradient tensor."""

    @abc.abstractmethod
    def decode(self, payload: Payload) -> np.ndarray:
        """Reconstruct a dense gradient from a payload."""

    def compression_ratio(self, grad: np.ndarray) -> float:
        """Dense bytes divided by wire bytes for this tensor."""
        payload = self.encode(np.asarray(grad, dtype=np.float64))
        if payload.wire_bytes == 0:
            raise CompressionError(f"{self.name}: payload has zero wire bytes")
        return grad.size * 4.0 / payload.wire_bytes

    def _require_floating(self, grad: np.ndarray) -> np.ndarray:
        arr = np.asarray(grad)
        if arr.size == 0:
            raise CompressionError(f"{self.name}: cannot encode empty gradient")
        if arr.dtype.kind != "f":
            raise CompressionError(
                f"{self.name}: gradient must be floating point, got {arr.dtype}")
        if not np.isfinite(arr).all():
            raise CompressionError(
                f"{self.name}: gradient contains non-finite values")
        return arr.astype(np.float64, copy=False)


@dataclass(frozen=True)
class AggregationResult:
    """Outcome of one distributed aggregation step.

    Attributes:
        update: The dense update every worker applies (the aggregate the
            method defines: a mean for unbiased codecs, a majority vote
            for signSGD, ...).
        bytes_sent_per_worker: Wire bytes each worker transmitted.
        bytes_received_per_worker: Wire bytes each worker received;
            for all-gather this grows linearly with the world size.
        messages: Number of separate collective calls (latency count —
            PowerSGD pays two, for P and Q).
        collective: Which collective carried the traffic
            (``"ring_allreduce"``, ``"allgather"``, ``"none"``).
    """

    update: np.ndarray
    bytes_sent_per_worker: float
    bytes_received_per_worker: float
    messages: int
    collective: str


class Aggregator(abc.ABC):
    """Distributed aggregation semantics for one gradient slot.

    One instance manages one tensor position (a layer, or the whole flat
    gradient) across all workers: it owns the per-worker error-feedback
    memories and any shared state (PowerSGD's warm-started ``Q``), so it
    must be fed the same number of worker gradients every step.
    """

    name: str = "abstract"
    #: Whether this aggregator sums payloads by all-reduce; a codec it
    #: wraps must have the same Table 1 flag (:meth:`_check_codec`).
    all_reducible: bool = False

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise CompressionError(
                f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._buffers: Dict[str, np.ndarray] = {}

    @abc.abstractmethod
    def step(self, worker_grads: Sequence[np.ndarray]) -> AggregationResult:
        """Aggregate one round of per-worker gradients.

        The worker gradients are valid only for the duration of the
        call: the trainer writes the next step's gradients into the same
        buffers.  Whatever an aggregator keeps past the call (error
        feedback residuals, warm starts) must be a copy, and the update
        it returns must not share memory with the inputs.
        """

    def _check_codec(self, codec: Compressor) -> Compressor:
        """``codec``, if its method row's all-reduce flag is this
        aggregator's."""
        if get_method(codec.name).all_reducible == self.all_reducible:
            return codec
        if self.all_reducible:
            raise CompressionError(
                f"{codec.name} is not all-reducible; use a gather aggregator")
        raise CompressionError(
            f"{codec.name} is all-reducible; use MeanAllReduceAggregator")

    def _buffer(self, key: str, shape: Tuple[int, ...]) -> np.ndarray:
        """A float64 array of ``shape`` that this aggregator reuses from
        step to step, for values that never leave :meth:`step`; its
        contents on entry are undefined."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self._buffers[key] = np.empty(shape)
        return buf

    def _check_round(self, worker_grads: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(worker_grads) != self.num_workers:
            raise CompressionError(
                f"{self.name}: expected {self.num_workers} worker gradients, "
                f"got {len(worker_grads)}")
        shape = np.asarray(worker_grads[0]).shape
        out = []
        for rank, grad in enumerate(worker_grads):
            arr = np.asarray(grad, dtype=np.float64)
            if arr.shape != shape:
                raise CompressionError(
                    f"{self.name}: rank {rank} gradient shape {arr.shape} "
                    f"differs from rank 0 shape {shape}")
            out.append(arr)
        return out
