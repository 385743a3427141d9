"""The vectorized training substrate against its step-by-step oracles.

The ring all-reduce folds a stacked buffer, the fp16 codec rounds onto
the half grid in float64, signSGD votes from bit counts, and the trainer
runs every rank's forward/backward in one stacked call.  Each must
reproduce the loop it replaced (``tests/oracle.py``) bit for bit: same
dtype, same shape, same bytes.
"""

import numpy as np
import pytest

from repro.collectives import ring_allreduce
from repro.compression import (
    FP16Compressor,
    MajorityVoteAggregator,
    MeanAllReduceAggregator,
)
from repro.compression.identity import round_to_half
from repro.errors import CollectiveError
from repro.experiments.ext_time_to_accuracy import (
    EXT_TTA_FEATURES,
    EXT_TTA_HIDDEN,
    EXT_TTA_METHODS,
)
from repro.training import MLP, DistributedTrainer, MLPConfig, gaussian_blobs
from repro.training.distributed import TrainHistory
from .oracle import (
    fp16_encode_oracle,
    fp16_mean_allreduce_oracle,
    loss_and_grads_oracle,
    majority_vote_oracle,
    ring_allreduce_oracle,
    worker_grads_oracle,
)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# ----- ring all-reduce -------------------------------------------------------

RING_OPS = {
    "add": np.add,
    "maximum": np.maximum,
    # Not associative: the clip depends on the order partial sums form.
    "clipped-sum": lambda a, b: np.clip(a + b, -1.5, 1.5),
    # Not commutative, and float64 results for float32/int64 inputs, so
    # every step's cast back to the input dtype shows.
    "affine": lambda a, b: 0.5 * a - b / 3.0,
    "vote": lambda a, b: np.sign(a + b),
}


def _ring_inputs(rng, p, n, dtype):
    if dtype == np.int64:
        return [rng.integers(-50, 50, size=n) for _ in range(p)]
    return [rng.normal(size=n).astype(dtype) for _ in range(p)]


@pytest.mark.parametrize("op_name", sorted(RING_OPS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_ring_matches_step_by_step_loop(op_name, dtype):
    op = RING_OPS[op_name]
    rng = np.random.default_rng(20)
    for p in range(1, 14):
        # n = 0, n < p (empty chunks), and sizes that split unevenly.
        for n in sorted({0, p - 1, p, p + 1, int(rng.integers(1, 300))}):
            arrays = _ring_inputs(rng, p, n, dtype)
            got = ring_allreduce(arrays, op)
            want = ring_allreduce_oracle(arrays, op)
            assert len(got) == p
            for g, w in zip(got, want):
                assert_same_bits(g, w)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_default_ring_matches_step_by_step_additions(dtype):
    rng = np.random.default_rng(21)
    for p in range(1, 10):
        for n in (0, p - 1, p + 1, 257):
            arrays = _ring_inputs(rng, p, n, dtype)
            for g, w in zip(ring_allreduce(arrays),
                            ring_allreduce_oracle(arrays, np.add)):
                assert_same_bits(g, w)


def test_ring_folds_into_a_given_buffer(rng):
    for p in (1, 2, 5):
        arrays = [rng.normal(size=(3, 7)) for _ in range(p)]
        buffer = np.full((p, 21), np.nan)
        got = ring_allreduce(arrays, out=buffer)
        for g, w in zip(got, ring_allreduce_oracle(arrays)):
            assert_same_bits(g, w)
        if p > 1:
            assert all(np.shares_memory(g, buffer) for g in got)
        for bad in (np.empty((p, 20)), np.empty((p, 21), np.float32)):
            with pytest.raises(CollectiveError):
                ring_allreduce(arrays, out=bad)


def test_ring_keeps_shapes_of_nd_and_scalar_inputs(rng):
    for shape in [(), (1,), (3, 5), (2, 3, 4)]:
        arrays = [rng.normal(size=shape) for _ in range(4)]
        for g, w in zip(ring_allreduce(arrays, RING_OPS["affine"]),
                        ring_allreduce_oracle(arrays, RING_OPS["affine"])):
            assert_same_bits(g, w)


def test_ring_leaves_inputs_untouched(rng):
    def accumulate_in_place(own, incoming):
        own += incoming
        return own

    for p in (1, 2, 5):
        arrays = [rng.normal(size=(3, 7)) for _ in range(p)]
        before = [a.copy() for a in arrays]
        for op in (np.add, accumulate_in_place):
            out = ring_allreduce(arrays, op)
            for a, b in zip(arrays, before):
                assert_same_bits(a, b)
            assert not any(np.shares_memory(o, a)
                           for o in out for a in arrays)


def test_ring_outputs_are_independent_buffers(rng):
    out = ring_allreduce([rng.normal(size=10) for _ in range(4)])
    expected = out[1].copy()
    out[0][:] = 0.0
    assert_same_bits(out[1], expected)


# ----- fp16 codec ------------------------------------------------------------

def _fp16_probe_values():
    ulp = 2.0 ** -24
    k = np.arange(0, 1100, dtype=np.float64)
    grid = np.concatenate([k * ulp, (k + 0.5) * ulp])
    ties = np.concatenate([grid, np.nextafter(grid, np.inf),
                           np.nextafter(grid, -np.inf)])
    tiny = 2.0 ** -14
    special = np.array([
        0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-30,
        tiny, np.nextafter(tiny, 0.0), np.nextafter(tiny, 1.0),
        (1023.5) * ulp, 6e-8, 1e-4, 1.0, 1.0 + 2.0 ** -11,
        65504.0, 65519.9, 65520.0, 1e10, np.finfo(np.float64).max,
    ])
    rng = np.random.default_rng(16)
    scaled = np.concatenate([rng.normal(0.0, sigma, 4000)
                             for sigma in (1e-8, 1e-6, 1e-5, 1e-3, 1.0, 1e4)])
    values = np.concatenate([ties, special, scaled])
    return np.concatenate([values, -values])


def test_fp16_encode_matches_astype():
    values = _fp16_probe_values()
    codec = FP16Compressor()
    for shape in [values.shape, (2, values.size // 2)]:
        arr = values.reshape(shape)
        payload = codec.encode(arr)
        want = fp16_encode_oracle(arr).astype(np.float64)
        assert_same_bits(payload.arrays[0], want)


def test_fp16_encode_keeps_signed_zero_and_saturates():
    values = FP16Compressor().encode(
        np.array([0.0, -0.0, 1e-30, -1e-30, 1e9, -1e9])).arrays[0]
    assert_same_bits(values,
                     np.array([0.0, -0.0, 0.0, -0.0, 65504.0, -65504.0]))


def test_every_half_decodes_as_astype():
    """Every finite half is a fixed point of the rounding, and decode
    returns the payload's values in a fresh array."""
    half = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
    widened = half[np.isfinite(half)].astype(np.float64)
    assert_same_bits(round_to_half(widened), widened)
    codec = FP16Compressor()
    payload = codec.encode(_fp16_probe_values())
    decoded = codec.decode(payload)
    assert_same_bits(decoded, payload.arrays[0])
    assert not np.shares_memory(decoded, payload.arrays[0])


def test_round_to_half_matches_astype_at_every_rounding_boundary():
    """Every finite half, the midpoints between neighbours (the ties) and
    the doubles either side of each, both signs, up to and past the
    saturation threshold."""
    halves = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
    exact = np.unique(np.abs(halves[np.isfinite(halves)]).astype(np.float64))
    edges = np.concatenate([exact, (exact[:-1] + exact[1:]) / 2,
                            [65520.0, 65536.0, 1e300]])
    values = np.concatenate([edges, np.nextafter(edges, np.inf),
                             np.nextafter(edges, 0.0)])
    values = np.concatenate([values, -values])
    want = fp16_encode_oracle(values).astype(np.float64)
    assert_same_bits(round_to_half(values), want)


def test_round_to_half_leaves_its_input_alone(rng):
    arr = rng.normal(size=8)
    before = arr.copy()
    out = round_to_half(arr)
    assert_same_bits(arr, before)
    assert not np.shares_memory(out, arr)


def test_fp16_encodes_a_scalar_gradient():
    codec = FP16Compressor()
    for value in (0.3, -1e-6, 1e9):
        arr = np.array(value)
        decoded = codec.decode(codec.encode(arr))
        assert_same_bits(decoded, fp16_encode_oracle(arr).astype(np.float64))


# ----- fp16 and signSGD aggregation ------------------------------------------

AGGREGATION_SHAPES = [(1,), (7,), (5, 3), (4, 2, 3)]


def _aggregation_grads(rng, p, shape):
    """``p`` gradients of ``shape`` whose magnitudes are log-uniform over
    1e-12 to 1e6 (fp16 subnormals, underflow and saturation), salted
    with exact half midpoints and signed zeros."""
    n = int(np.prod(shape))
    grads = []
    for _ in range(p):
        mag = np.exp(rng.uniform(np.log(1e-12), np.log(1e6), n))
        special = rng.random(n)
        # The midpoint between the half m * 2**-24 and its neighbour, and
        # a normal-range midpoint (1 + (2k + 1) * 2**-11) * 2**e.
        mag = np.where(special < 0.15,
                       (rng.integers(0, 2048, n) + 0.5) * 2.0 ** -24, mag)
        mag = np.where((special >= 0.15) & (special < 0.3),
                       (1.0 + (2 * rng.integers(0, 1024, n) + 1) * 2.0 ** -11)
                       * 2.0 ** rng.integers(-14, 16, n), mag)
        mag = np.where((special >= 0.3) & (special < 0.4), 0.0, mag)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        grads.append((sign * mag).reshape(shape))
    return grads


AGGREGATIONS = {
    "fp16": (lambda p: MeanAllReduceAggregator(p, FP16Compressor()),
             fp16_mean_allreduce_oracle),
    "signsgd": (MajorityVoteAggregator, majority_vote_oracle),
}


@pytest.mark.parametrize("method", sorted(AGGREGATIONS))
def test_aggregation_matches_the_oracle(method):
    """Seeded draws of world size 1-9 (even ones tie votes) and shape:
    three steps of one aggregator against the loop it replaced."""
    make, oracle = AGGREGATIONS[method]
    rng = np.random.default_rng(31)
    ties = 0
    for case in range(60):
        p = int(rng.integers(1, 10))
        shape = AGGREGATION_SHAPES[case % len(AGGREGATION_SHAPES)]
        aggregator = make(p)
        for _ in range(3):
            grads = _aggregation_grads(rng, p, shape)
            result = aggregator.step(grads)
            update, sent, received, messages, collective = oracle(grads)
            assert_same_bits(result.update, update)
            assert result.bytes_sent_per_worker == sent
            assert result.bytes_received_per_worker == received
            assert result.messages == messages
            assert result.collective == collective
            if method == "signsgd":
                ones = sum((g >= 0.0).astype(int) for g in grads)
                ties += int((2 * ones == p).sum())
    if method == "signsgd":
        assert ties > 0


# ----- stacked forward/backward ----------------------------------------------

def test_stacked_loss_and_grads_equal_per_batch_calls(rng):
    model = MLP(MLPConfig(input_dim=EXT_TTA_FEATURES,
                          hidden_dims=EXT_TTA_HIDDEN, num_classes=8, seed=3))
    x = rng.normal(size=(8, 32, EXT_TTA_FEATURES))
    y = rng.integers(0, 8, size=(8, 32))
    losses, grads = model.loss_and_grads(x, y)
    assert losses.shape == (8,)
    for w in range(8):
        loss, want = loss_and_grads_oracle(model, x[w], y[w])
        assert losses[w] == loss
        single_loss, single = model.loss_and_grads(x[w], y[w])
        assert isinstance(single_loss, float) and single_loss == loss
        for name, g in want.items():
            assert_same_bits(grads[name][w], g)
            assert_same_bits(single[name], g)


def _trainer(method, agg_params, num_samples, num_workers, seed=0):
    dataset = gaussian_blobs(num_samples=num_samples,
                             num_features=EXT_TTA_FEATURES, num_classes=8,
                             spread=1.2, seed=seed)
    model = MLP(MLPConfig(input_dim=EXT_TTA_FEATURES,
                          hidden_dims=EXT_TTA_HIDDEN, num_classes=8,
                          seed=seed))
    agg_name = "fp32" if method == "syncsgd" else method
    return DistributedTrainer(model, dataset, num_workers, method=agg_name,
                              method_params=agg_params or None, seed=seed)


def _assert_steps_match_oracle(trainer, batch_size, steps):
    history = TrainHistory()
    for step in range(steps):
        loss, grads = trainer._worker_grads(batch_size, step)
        want_loss, want_grads = worker_grads_oracle(trainer, batch_size, step)
        assert isinstance(loss, float) and loss == want_loss
        assert len(grads) == len(want_grads) == trainer.num_workers
        for got, want in zip(grads, want_grads):
            assert list(got) == list(want)
            for name in want:
                assert_same_bits(got[name], want[name])
        trainer.step(batch_size, step, history)


@pytest.mark.parametrize("method,agg_params", [
    (method, agg_params) for method, agg_params, _, _ in EXT_TTA_METHODS])
def test_worker_grads_match_per_rank_loop(method, agg_params):
    """Every ext-tta method, at its real network size, trained through
    its real aggregator: each step's stacked gradients are the per-rank
    ones bit for bit."""
    trainer = _trainer(method, agg_params, num_samples=512, num_workers=8)
    _assert_steps_match_oracle(trainer, batch_size=32, steps=3)


def test_worker_grads_with_unequal_shard_lengths():
    # 45 samples over 4 workers shard as 12/11/11/11; a batch of 16 takes
    # each whole shard, so the mini-batches differ in length.
    trainer = _trainer("fp16", {}, num_samples=45, num_workers=4, seed=5)
    assert len({s.num_samples for s in trainer.shards}) == 2
    _assert_steps_match_oracle(trainer, batch_size=16, steps=3)
