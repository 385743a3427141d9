"""Numeric collective implementations.

These operate on a list of numpy arrays, one per (simulated) worker, and
reduce in the order each algorithm's step structure — chunking, ring
neighbours, tree pairings — dictates, rather than calling ``np.sum`` and
declaring victory.  The ring folds each chunk over the ranks in ring
order with whole-buffer array ops, bit for bit what its 2(p-1) steps
compute (see :func:`ring_allreduce`).  The unit and property tests
verify that ring all-reduce really is a sum, and that a non-associative
"reduction" (e.g. majority vote) produces rank-dependent garbage if you
force it through a ring — the paper's Table 1 criterion, demonstrated in
code.

The distributed training substrate (:mod:`repro.training`) uses these to
aggregate genuinely compressed gradients.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import CollectiveError

#: Binary reduction operator applied elementwise to two arrays.
ReduceOp = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _check_inputs(arrays: Sequence[np.ndarray]) -> None:
    if len(arrays) == 0:
        raise CollectiveError("collective requires at least one worker")
    shape, dtype = arrays[0].shape, arrays[0].dtype
    for rank, arr in enumerate(arrays):
        if arr.shape != shape:
            raise CollectiveError(
                f"rank {rank} has shape {arr.shape}, rank 0 has {shape}")
        if arr.dtype != dtype:
            raise CollectiveError(
                f"rank {rank} has dtype {arr.dtype}, rank 0 has {dtype}")


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def ring_allreduce(arrays: Sequence[np.ndarray], op: ReduceOp = _add,
                   out: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """Ring all-reduce: reduce-scatter then all-gather over a ring.

    Each worker's flat buffer is split into ``p`` chunks at
    ``linspace(0, n, p + 1)``.  During reduce-scatter step ``s``, rank
    ``r`` sends chunk ``(r - s) mod p`` to rank ``r + 1``, which reduces
    it into its own copy as ``op(own, incoming)``.  After ``p - 1`` steps
    rank ``c - 1`` owns the fully reduced chunk ``c``; the all-gather
    phase circulates those unchanged.

    So chunk ``c`` starts at rank ``c`` and picks up the other ranks in
    ring order: each of its elements is
    ``op(x[c+p-1], ... op(x[c+2], op(x[c+1], x[c])))`` (ranks mod ``p``),
    cast back to the input dtype after every ``op``.  The kernel keeps
    exactly that fold.  It fills a ``(p, n)`` buffer with row ``s`` of
    chunk ``c`` taken from rank ``(c + s) mod p``, then folds the rows
    with ``p - 1`` full-length ``op`` calls and copies the last row into
    the others.  The inputs are never written.

    Args:
        arrays: One array per rank (all same shape/dtype).
        op: Binary elementwise reduction; **must be associative and
            commutative** for the result to be rank-independent.  The
            default is addition.  Passing a non-associative op is allowed
            (tests use it to demonstrate why such ops are incompatible
            with all-reduce) but produces order-dependent output.
        out: Optional ``(p, n)`` buffer of the inputs' dtype (``n``
            elements per input) to fold in, so a caller that reduces
            same-sized gradients every step reuses one buffer.  For
            ``p > 1`` the returned arrays are its rows.

    Returns:
        One fully reduced array per rank (all equal after the all-gather).
    """
    _check_inputs(arrays)
    p, n, dtype = len(arrays), arrays[0].size, arrays[0].dtype
    if out is not None and (out.shape != (p, n) or out.dtype != dtype):
        raise CollectiveError(f"out must be a {(p, n)} {dtype} buffer, "
                              f"got {out.shape} {out.dtype}")
    if p == 1:
        return [arrays[0].copy()]

    shape = arrays[0].shape
    flats = [np.asarray(a).reshape(-1) for a in arrays]
    bounds = np.linspace(0, n, p + 1).astype(int)

    # Row s holds what chunk c meets at reduce-scatter step s - 1.
    z = np.empty((p, n), dtype=dtype) if out is None else out
    for c in range(p):
        lo, hi = bounds[c], bounds[c + 1]
        for s in range(p):
            z[s, lo:hi] = flats[(c + s) % p][lo:hi]
    for s in range(1, p):
        if op is _add:  # the same sums, without a temporary per step
            np.add(z[s], z[s - 1], out=z[s])
        else:
            z[s] = op(z[s], z[s - 1])

    # All-gather: every rank's row receives the reduced buffer.
    z[:p - 1] = z[p - 1]
    return [row.reshape(shape) for row in z]


def tree_allreduce(arrays: Sequence[np.ndarray],
                   op: ReduceOp = _add) -> List[np.ndarray]:
    """Binary-tree all-reduce: recursive-halving reduce to rank 0, then a
    binomial broadcast.  Works for any world size (odd ranks fold in)."""
    _check_inputs(arrays)
    p = len(arrays)
    buffers = [np.array(a, copy=True) for a in arrays]
    # Reduce phase: pair ranks at stride 1, 2, 4, ...
    stride = 1
    while stride < p:
        for dst in range(0, p, 2 * stride):
            src = dst + stride
            if src < p:
                buffers[dst] = op(buffers[dst], buffers[src])
        stride *= 2
    # Broadcast phase.
    result = buffers[0]
    return [result.copy() for _ in range(p)]


def allgather(arrays: Sequence[np.ndarray]) -> List[List[np.ndarray]]:
    """All-gather: every rank receives every rank's buffer, in rank order.

    Unlike all-reduce, per-rank received volume grows linearly with the
    world size — the scalability cliff of non-all-reducible compressors.
    Buffers may have *different shapes* (Top-K selects different indices
    per rank), which is precisely why these methods cannot use all-reduce.
    """
    if len(arrays) == 0:
        raise CollectiveError("collective requires at least one worker")
    gathered = [np.array(a, copy=True) for a in arrays]
    return [[g.copy() for g in gathered] for _ in range(len(arrays))]


def reduce_scatter(arrays: Sequence[np.ndarray],
                   op: ReduceOp = _add) -> List[np.ndarray]:
    """Reduce-scatter: rank ``r`` ends up with the reduced ``r``-th chunk."""
    _check_inputs(arrays)
    p = len(arrays)
    n = arrays[0].reshape(-1).size
    bounds = np.linspace(0, n, p + 1).astype(int)
    flats = [np.array(a, copy=True).reshape(-1) for a in arrays]
    out: List[np.ndarray] = []
    for rank in range(p):
        lo, hi = bounds[rank], bounds[rank + 1]
        acc = flats[0][lo:hi].copy()
        for other in range(1, p):
            acc = op(acc, flats[other][lo:hi])
        out.append(acc)
    return out


def broadcast(arrays: Sequence[np.ndarray], root: int = 0) -> List[np.ndarray]:
    """Broadcast the root's buffer to every rank."""
    _check_inputs(arrays)
    if not 0 <= root < len(arrays):
        raise CollectiveError(
            f"root {root} out of range for {len(arrays)} ranks")
    return [arrays[root].copy() for _ in arrays]


def parameter_server_reduce(arrays: Sequence[np.ndarray],
                            op: ReduceOp = _add) -> List[np.ndarray]:
    """Parameter-server aggregation: reduce sequentially at a central
    server (rank 0), then send the result back to everyone."""
    _check_inputs(arrays)
    acc = np.array(arrays[0], copy=True)
    for a in arrays[1:]:
        acc = op(acc, a)
    return [acc.copy() for _ in arrays]


def is_allreduce_safe(op: ReduceOp, probe: Sequence[np.ndarray],
                      atol: float = 1e-6) -> bool:
    """Empirically check whether ``op`` commutes with ring restructuring.

    Runs the op through ring, tree and sequential reductions of the probe
    arrays and checks all three agree.  Associative+commutative ops pass;
    majority-vote style ops generally fail — the executable version of the
    paper's Table 1 column.
    """
    ring = ring_allreduce(probe, op)[0]
    tree = tree_allreduce(probe, op)[0]
    seq = parameter_server_reduce(probe, op)[0]
    return (np.allclose(ring, tree, atol=atol)
            and np.allclose(ring, seq, atol=atol))
