"""signSGD with majority vote [12, 13].

Encode: keep only the sign of each coordinate, bit-packed — 1 bit per
32-bit float, ~32x compression.  Aggregate: *majority vote* across
workers, ``sign(sum_i sign(g_i))``.

The vote is **not associative** — ``sign(sign(a+b) + sign(c))`` differs
from ``sign(sign(a) + sign(b+c))`` — so workers cannot ring-all-reduce
their payloads; they must all-gather all ``p`` sign vectors and vote
locally.  Received volume and decode work therefore grow linearly with
``p``, which is the paper's §3.2 explanation for signSGD taking ~1075 ms
at 96 GPUs on ResNet-101 while syncSGD needs ~265 ms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import CompressionError
from .base import AggregationResult, Aggregator, Compressor, Payload


#: The decoded value of a sign bit: 0 is -1.0, 1 is +1.0.
_SIGNS = np.array([-1.0, 1.0])


class SignSGDCompressor(Compressor):
    """Bit-packed sign compressor.

    Zero is mapped to +1 (a tie-break every implementation must pick;
    matching ``np.sign`` would waste a symbol on an event of measure
    zero).  The decoded tensor is the unit-magnitude sign pattern — the
    optimizer's learning rate carries the step size, as in the signSGD
    paper.
    """

    name = "signsgd"

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        bits = (arr.reshape(-1) >= 0.0)
        packed = np.packbits(bits)
        return Payload(
            arrays=(packed,),
            wire_bytes=float(np.ceil(arr.size / 8.0)),
            shape=arr.shape,
            meta={"numel": float(arr.size)},
        )

    def decode(self, payload: Payload) -> np.ndarray:
        numel = int(payload.meta["numel"])
        bits = np.unpackbits(payload.arrays[0], count=numel)
        return _SIGNS[bits].reshape(payload.shape)


def _vote(margin: np.ndarray) -> np.ndarray:
    """The vote on a summed sign margin: +1 where it is at least 0 (ties
    go to +1, consistent with the encoder's zero convention), else -1."""
    return np.where(margin >= 0, 1.0, -1.0)


def majority_vote(sign_tensors: Sequence[np.ndarray]) -> np.ndarray:
    """``sign(sum_i sign_i)`` with ties broken toward +1."""
    if len(sign_tensors) == 0:
        raise CompressionError("majority vote needs at least one worker")
    return _vote(np.sum(sign_tensors, axis=0))


class MajorityVoteAggregator(Aggregator):
    """Full signSGD aggregation: encode per worker, all-gather the packed
    sign vectors, unpack all ``p`` of them and vote.

    The vote counts set bits: with ``ones`` of the ``p`` signs +1 at a
    coordinate, the sum of the decoded signs is exactly ``2 * ones - p``,
    so no decoded ±1 tensor is built.  The returned update is the voted
    sign pattern (unit magnitude).  Note the received bytes: ``(p-1)``
    payloads per worker — the linear term.
    """

    name = "signsgd"
    all_reducible = False

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self._codec = SignSGDCompressor()

    def step(self, worker_grads: Sequence[np.ndarray]) -> AggregationResult:
        grads = self._check_round(worker_grads)
        payloads = [self._codec.encode(g) for g in grads]
        # All-gather: every worker receives every other worker's payload.
        numel = grads[0].size
        ones = np.unpackbits(payloads[0].arrays[0], count=numel).astype(
            np.int32)
        for payload in payloads[1:]:
            ones += np.unpackbits(payload.arrays[0], count=numel)
        update = _vote(2 * ones - self.num_workers).reshape(grads[0].shape)
        wire = payloads[0].wire_bytes
        return AggregationResult(
            update=update,
            bytes_sent_per_worker=wire,
            bytes_received_per_worker=wire * (self.num_workers - 1),
            messages=1,
            collective="allgather",
        )
