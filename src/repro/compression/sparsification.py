"""Sparsification compressors: Top-K [7], Random-K [65], DGC [39].

Top-K keeps the ``k`` largest-magnitude coordinates.  Different workers
select different indices, so payloads cannot be summed — aggregation needs
an all-gather (Table 1: not all-reducible, hence the §3.2 scalability
cliff).

Random-K with a *shared* seed makes every worker select the same random
index set, so the value vectors align and can be ring-all-reduced —
Table 1 classifies Random-K as all-reduce compatible but *not* layer-wise
(the shared random draw is made over the whole flat gradient).

DGC communicates coordinates whose magnitude exceeds a threshold chosen
per step from a sampled quantile, with local gradient accumulation of the
rest (a momentum-corrected error feedback).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import CompressionError
from ..units import FLOAT32_BYTES, INT32_BYTES, INT64_BYTES
from .base import AggregationResult, Aggregator, Compressor, Payload
from .error_feedback import ErrorFeedback
from .schemes import check_fraction


def _index_bytes(numel: int) -> int:
    """int32 indices cover tensors up to 2^31 elements, int64 beyond."""
    return INT32_BYTES if numel < 2**31 else INT64_BYTES


def _num_selected(numel: int, fraction: float) -> int:
    return max(1, int(round(numel * fraction)))


class TopKCompressor(Compressor):
    """Keep the top ``fraction`` of coordinates by absolute value.

    Payload is ``(values, indices)``; wire size counts 4 bytes per value
    plus 4 (or 8) bytes per index — sending *indices doubles the cost per
    kept coordinate*, one of the overheads the paper's Top-K model
    (two ``T_comm`` terms) accounts for.
    """

    name = "topk"

    def __init__(self, fraction: float = 0.01):
        self.fraction = check_fraction(fraction, error=CompressionError)

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        k = _num_selected(flat.size, self.fraction)
        # argpartition is O(n); full sorting is unnecessary for selection.
        idx = np.argpartition(np.abs(flat), flat.size - k)[-k:]
        idx = np.sort(idx)
        values = flat[idx]
        return Payload(
            arrays=(values, idx.astype(np.int64)),
            wire_bytes=float(k * (FLOAT32_BYTES + _index_bytes(flat.size))),
            shape=arr.shape,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        values, idx = payload.arrays
        out = np.zeros(int(np.prod(payload.shape)), dtype=np.float64)
        out[idx] = values
        return out.reshape(payload.shape)


class RandomKCompressor(Compressor):
    """Keep a random ``fraction`` of coordinates, chosen by a seed shared
    across workers and advanced every round.

    Because all workers agree on the index set, only the values travel
    and they can be summed by all-reduce.  The kept values are scaled by
    ``1/fraction`` so the estimator is unbiased.
    """

    name = "randomk"

    def __init__(self, fraction: float = 0.01, seed: int = 0):
        self.fraction = check_fraction(fraction, error=CompressionError)
        self.seed = seed
        self._round = 0

    def advance_round(self) -> None:
        """Move to the next shared random draw (call once per step)."""
        self._round += 1

    def _indices(self, numel: int) -> np.ndarray:
        k = _num_selected(numel, self.fraction)
        rng = np.random.default_rng((self.seed, self._round, numel))
        return np.sort(rng.choice(numel, size=k, replace=False))

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        idx = self._indices(flat.size)
        values = flat[idx] / self.fraction
        return Payload(
            arrays=(values,),
            wire_bytes=float(values.size * FLOAT32_BYTES),
            shape=arr.shape,
            meta={"round": float(self._round)},
        )

    def decode(self, payload: Payload) -> np.ndarray:
        numel = int(np.prod(payload.shape))
        idx = self._indices(numel)
        out = np.zeros(numel, dtype=np.float64)
        out[idx] = payload.arrays[0]
        return out.reshape(payload.shape)


class DGCCompressor(Compressor):
    """Deep Gradient Compression-style threshold sparsification.

    The threshold is the ``1 - fraction`` quantile of a random sample of
    the magnitudes (sampling the whole tensor is what makes exact Top-K
    expensive; DGC's sampled threshold trades exactness for speed, so the
    actual density fluctuates around ``fraction``).  The sample holds
    enough values for about :attr:`SAMPLE_HITS` of them to pass the
    threshold, so the density stays near ``fraction`` on small tensors
    too; a tensor smaller than that is thresholded whole.
    """

    name = "dgc"

    #: Fraction of coordinates sampled to estimate the threshold.
    SAMPLE_FRACTION = 0.01
    #: Sampled values expected above the threshold: the sample holds at
    #: least ``SAMPLE_HITS / fraction`` values.
    SAMPLE_HITS = 64

    def __init__(self, fraction: float = 0.001, seed: int = 0):
        self.fraction = check_fraction(fraction, error=CompressionError)
        self._rng = np.random.default_rng(seed)

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        magnitudes = np.abs(flat)
        sample_size = max(int(flat.size * self.SAMPLE_FRACTION),
                          math.ceil(self.SAMPLE_HITS / self.fraction))
        sample_size = min(sample_size, flat.size)
        sample_idx = self._rng.choice(flat.size, size=sample_size, replace=False)
        threshold = np.quantile(magnitudes[sample_idx], 1.0 - self.fraction)
        idx = np.flatnonzero(magnitudes >= threshold)
        if idx.size == 0:  # degenerate all-equal tensors
            idx = np.array([int(np.argmax(magnitudes))])
        values = flat[idx]
        return Payload(
            arrays=(values, idx.astype(np.int64)),
            wire_bytes=float(
                idx.size * (FLOAT32_BYTES + _index_bytes(flat.size))),
            shape=arr.shape,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        values, idx = payload.arrays
        out = np.zeros(int(np.prod(payload.shape)), dtype=np.float64)
        out[idx] = values
        return out.reshape(payload.shape)


class SparseGatherAggregator(Aggregator):
    """Aggregation for non-all-reducible sparsifiers (Top-K, DGC).

    Each worker encodes with error feedback, payloads are all-gathered,
    every worker decodes all ``p`` of them and averages.  Error feedback
    keeps what the worker's own selection dropped.
    """

    name = "sparse-gather"
    all_reducible = False

    def __init__(self, num_workers: int, codec: Compressor,
                 use_error_feedback: bool = False):
        super().__init__(num_workers)
        self.codec = self._check_codec(codec)
        self.error_feedback: Optional[ErrorFeedback] = (
            ErrorFeedback(num_workers) if use_error_feedback else None)

    def step(self, worker_grads: Sequence[np.ndarray]) -> AggregationResult:
        grads = self._check_round(worker_grads)
        decoded = self._buffer("decoded", (self.num_workers, *grads[0].shape))
        sent = 0.0
        for rank, grad in enumerate(grads):
            if self.error_feedback is not None:
                corrected = self.error_feedback.corrected(rank, grad)
            else:
                corrected = grad
            payload = self.codec.encode(corrected)
            approx = self.codec.decode(payload)
            decoded[rank] = approx
            if self.error_feedback is not None:
                corrected -= approx
                self.error_feedback.store(rank, corrected)
            sent = max(sent, payload.wire_bytes)
        update = np.mean(decoded, axis=0)
        return AggregationResult(
            update=update,
            bytes_sent_per_worker=sent,
            bytes_received_per_worker=sent * (self.num_workers - 1),
            messages=2,  # values and indices travel as separate buffers
            collective="allgather",
        )


class MeanAllReduceAggregator(Aggregator):
    """Aggregation for all-reducible codecs (fp32, fp16, Random-K).

    Payload arrays align across workers, so they are summed with the ring
    all-reduce and decoded once.  Bytes received per worker is the same as
    sent — the constant-in-``p`` behaviour that makes these methods scale.
    """

    name = "mean-allreduce"
    all_reducible = True

    def __init__(self, num_workers: int, codec: Compressor):
        super().__init__(num_workers)
        self.codec = self._check_codec(codec)

    def step(self, worker_grads: Sequence[np.ndarray]) -> AggregationResult:
        from ..collectives import ring_allreduce  # local import avoids cycle

        grads = self._check_round(worker_grads)
        payloads = [self.codec.encode(g) for g in grads]
        # The ring leaves its inputs untouched, so the float64 payloads
        # are passed without a copy.
        value_arrays = [p.arrays[0] for p in payloads]
        ring = self._buffer("ring", (self.num_workers, value_arrays[0].size))
        summed = ring_allreduce(value_arrays, out=ring)[0]
        summed /= self.num_workers
        mean_payload = Payload(
            arrays=(summed,),
            wire_bytes=payloads[0].wire_bytes,
            shape=payloads[0].shape,
            meta=dict(payloads[0].meta),
        )
        update = self.codec.decode(mean_payload)
        if isinstance(self.codec, RandomKCompressor):
            self.codec.advance_round()
        wire = payloads[0].wire_bytes
        return AggregationResult(
            update=update,
            bytes_sent_per_worker=wire,
            bytes_received_per_worker=wire,
            messages=1,
            collective="ring_allreduce",
        )
