"""Low-rank compressors: PowerSGD [63], ATOMO [64], GradiVeq-style [70].

A gradient matrix ``G (m x n)`` is approximated by rank-``r`` factors
``P (m x r)`` and ``Q (n x r)``, cutting communication from ``O(mn)`` to
``O(r(m+n))``.  4D conv kernels are viewed as ``(cout, cin*k*k)`` — the
:attr:`~repro.models.LayerSpec.matrix_shape` the model zoo records.

PowerSGD finds the factors with a *single warm-started power iteration*
and — crucially for the paper — its aggregation is a plain mean of the
``P`` (then ``Q``) matrices, so it is **all-reduce compatible**.  ATOMO
computes an SVD per worker, whose factors do not align across workers, so
it needs all-gather (Table 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CompressionError
from ..units import FLOAT32_BYTES
from .base import AggregationResult, Aggregator, Compressor, Payload
from .error_feedback import ErrorFeedback
from .schemes import check_count, check_projection


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    """View a gradient tensor as 2D: ``(dim0, rest)``; 1D tensors become
    a single row."""
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim == 2:
        return arr
    return arr.reshape(arr.shape[0], -1)


def orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Numerically stable Gram-Schmidt via thin QR, tolerating rank
    deficiency (zero columns stay zero rather than becoming NaN)."""
    if matrix.ndim != 2:
        raise CompressionError(
            f"orthonormalize expects a 2D matrix, got shape {matrix.shape}")
    q, r = np.linalg.qr(matrix)
    # QR leaves arbitrary signs on null columns; zero them for stability.
    col_norms = np.abs(np.diag(r)) if r.shape[0] >= r.shape[1] else None
    if col_norms is not None:
        q = q * (col_norms > 1e-12)
    return q


class PowerSGDCompressor(Compressor):
    """Single-shot PowerSGD factorization of one matrix (no shared state).

    This is the single-tensor codec used for wire-size accounting and
    round-trip tests; the distributed algorithm with warm start and error
    feedback lives in :class:`PowerSGDAggregator`.
    """

    name = "powersgd"

    def __init__(self, rank: int = 4, seed: int = 0):
        self.rank = check_count("rank", rank, error=CompressionError)
        self.seed = seed

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        matrix = _as_matrix(arr)
        m, n = matrix.shape
        r = min(self.rank, m, n)
        rng = np.random.default_rng((self.seed, m, n))
        q = orthonormalize(rng.standard_normal((n, r)))
        p = matrix @ q
        p_hat = orthonormalize(p)
        q_new = matrix.T @ p_hat
        return Payload(
            arrays=(p_hat, q_new),
            wire_bytes=float((p_hat.size + q_new.size) * FLOAT32_BYTES),
            shape=arr.shape,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        p_hat, q_new = payload.arrays
        return (p_hat @ q_new.T).reshape(payload.shape)


class ATOMOCompressor(Compressor):
    """ATOMO with SVD atoms: keep the top-``rank`` singular triplets.

    The SVD is exactly why the paper found ATOMO's encode cost high; the
    kernel-cost model charges it a full ``O(mn·min(m,n))`` decomposition.
    """

    name = "atomo"

    def __init__(self, rank: int = 4):
        self.rank = check_count("rank", rank, error=CompressionError)

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        matrix = _as_matrix(arr)
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        r = min(self.rank, s.size)
        return Payload(
            arrays=(u[:, :r], s[:r], vt[:r, :]),
            wire_bytes=float(
                (u[:, :r].size + r + vt[:r, :].size) * FLOAT32_BYTES),
            shape=arr.shape,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        u, s, vt = payload.arrays
        return (u @ np.diag(s) @ vt).reshape(payload.shape)


class GradiVeqCompressor(Compressor):
    """GradiVeq-style linear projection onto a shared basis.

    Gradients are chunked into fixed-length blocks and projected onto a
    seeded orthonormal basis shared by all workers.  Projection is linear,
    so coefficient vectors sum correctly — all-reduce compatible — and the
    method works per layer (Table 1: all-reduce yes, layer-wise yes).
    The real GradiVeq learns the basis from gradient history (PCA); a
    fixed random basis preserves the system-level behaviour (linearity,
    size, cost) though not the accuracy claims.
    """

    name = "gradiveq"

    def __init__(self, block: int = 512, dims: int = 64, seed: int = 0):
        self.block, self.dims = check_projection(block, dims,
                                                 error=CompressionError)
        self.seed = seed
        self._basis_cache: Dict[int, np.ndarray] = {}

    def _basis(self, block: int) -> np.ndarray:
        basis = self._basis_cache.get(block)
        if basis is None:
            rng = np.random.default_rng((self.seed, block))
            dims = min(self.dims, block)
            basis = orthonormalize(rng.standard_normal((block, dims)))
            self._basis_cache[block] = basis
        return basis

    def encode(self, grad: np.ndarray) -> Payload:
        arr = self._require_floating(grad)
        flat = arr.reshape(-1)
        pad = (-flat.size) % self.block
        padded = np.pad(flat, (0, pad))
        blocks = padded.reshape(-1, self.block)
        coeffs = blocks @ self._basis(self.block)
        return Payload(
            arrays=(coeffs,),
            wire_bytes=float(coeffs.size * FLOAT32_BYTES),
            shape=arr.shape,
            meta={"pad": float(pad)},
        )

    def decode(self, payload: Payload) -> np.ndarray:
        coeffs = payload.arrays[0]
        blocks = coeffs @ self._basis(self.block).T
        flat = blocks.reshape(-1)
        pad = int(payload.meta["pad"])
        if pad:
            flat = flat[:-pad]
        return flat.reshape(payload.shape)


class PowerSGDAggregator(Aggregator):
    """The full distributed PowerSGD step (Algorithm 1 of [63]).

    Per round, with per-worker error feedback and a warm-started shared
    ``Q``::

        C_i = G_i + E_i                      (error feedback)
        P   = mean_i(C_i @ Q)                (all-reduce #1)
        P̂  = orthonormalize(P)
        Q'  = mean_i(C_i^T @ P̂)             (all-reduce #2)
        M̂  = P̂ @ Q'^T                       (decode; the applied update)
        E_i = C_i - M̂                        (store residual)
        Q  <- Q'                              (warm start)

    Both all-reduces are plain sums — PowerSGD is all-reduce compatible —
    but there are **two** of them, the double latency cost the paper's
    §4.2 model charges PowerSGD for.
    """

    name = "powersgd"
    all_reducible = True

    def __init__(self, num_workers: int, rank: int = 4, seed: int = 0,
                 use_error_feedback: bool = True):
        super().__init__(num_workers)
        self.rank = check_count("rank", rank, error=CompressionError)
        self.seed = seed
        self.error_feedback: Optional[ErrorFeedback] = (
            ErrorFeedback(num_workers) if use_error_feedback else None)
        self._q: Optional[np.ndarray] = None

    def _initial_q(self, n: int, r: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, n, r))
        return orthonormalize(rng.standard_normal((n, r)))

    def step(self, worker_grads: Sequence[np.ndarray]) -> AggregationResult:
        from ..collectives import ring_allreduce  # local import avoids cycle

        grads = self._check_round(worker_grads)
        shape = grads[0].shape
        matrices: List[np.ndarray] = []
        for rank_idx, grad in enumerate(grads):
            if self.error_feedback is not None:
                corrected = self.error_feedback.corrected(rank_idx, grad)
            else:
                corrected = grad
            matrices.append(_as_matrix(corrected))

        m, n = matrices[0].shape
        r = min(self.rank, m, n)
        if self._q is None or self._q.shape != (n, r):
            self._q = self._initial_q(n, r)

        local_p = [mat @ self._q for mat in matrices]
        p_mean = ring_allreduce(local_p)[0] / self.num_workers
        p_hat = orthonormalize(p_mean)
        local_q = [mat.T @ p_hat for mat in matrices]
        q_mean = ring_allreduce(local_q)[0] / self.num_workers
        update = (p_hat @ q_mean.T).reshape(shape)

        if self.error_feedback is not None:
            for rank_idx, mat in enumerate(matrices):
                residual = mat.reshape(shape)
                residual -= update
                self.error_feedback.store(rank_idx, residual)
        self._q = q_mean

        wire = float((p_hat.size + q_mean.size) * FLOAT32_BYTES)
        return AggregationResult(
            update=update,
            bytes_sent_per_worker=wire,
            bytes_received_per_worker=wire,
            messages=2,
            collective="ring_allreduce",
        )


class GatherDecodeAggregator(Aggregator):
    """Generic aggregation for non-all-reducible codecs (ATOMO, QSGD,
    TernGrad, 1-bit): all-gather payloads, decode all ``p``, average.
    Optional error feedback for the biased ones."""

    name = "gather-decode"
    all_reducible = False

    def __init__(self, num_workers: int, codec: Compressor,
                 use_error_feedback: bool = False, messages: int = 1):
        super().__init__(num_workers)
        self.codec = self._check_codec(codec)
        self.messages = messages
        self.error_feedback: Optional[ErrorFeedback] = (
            ErrorFeedback(num_workers) if use_error_feedback else None)

    def step(self, worker_grads: Sequence[np.ndarray]) -> AggregationResult:
        grads = self._check_round(worker_grads)
        decoded = self._buffer("decoded", (self.num_workers, *grads[0].shape))
        wire = 0.0
        for rank_idx, grad in enumerate(grads):
            if self.error_feedback is not None:
                corrected = self.error_feedback.corrected(rank_idx, grad)
            else:
                corrected = grad
            payload = self.codec.encode(corrected)
            approx = self.codec.decode(payload)
            decoded[rank_idx] = approx
            if self.error_feedback is not None:
                corrected -= approx
                self.error_feedback.store(rank_idx, corrected)
            wire = max(wire, payload.wire_bytes)
        update = np.mean(decoded, axis=0)
        return AggregationResult(
            update=update,
            bytes_sent_per_worker=wire,
            bytes_received_per_worker=wire * (self.num_workers - 1),
            messages=self.messages,
            collective="allgather",
        )
