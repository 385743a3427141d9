"""The training substrate's reused buffers.

The trainer writes every step's worker gradients into one workspace, so
an aggregator sees them only for the duration of its ``step`` call, and
the aggregators fold and stack in buffers they keep from step to step.
None of that may change a bit of what they compute or leak into what
they return.
"""

import numpy as np
import pytest

from repro.compression import available_methods, make_aggregator
from repro.training import MLP, DistributedTrainer, MLPConfig, gaussian_blobs
from repro.training.distributed import TrainHistory

WORKERS = 4


def _aggregate(method, shape, overwrite):
    """Three steps of ``method`` on gradients written into one reused
    workspace; ``overwrite`` poisons the workspace right after each call,
    otherwise each call gets private copies."""
    aggregator = make_aggregator(method, WORKERS)
    workspace = np.empty((WORKERS, *shape))
    rng = np.random.default_rng(11)
    results, snapshots = [], []
    for _ in range(3):
        workspace[...] = rng.normal(0.0, 1e-2, size=workspace.shape)
        if overwrite:
            result = aggregator.step(list(workspace))
            workspace[...] = np.nan
        else:
            result = aggregator.step([g.copy() for g in workspace])
        results.append(result)
        snapshots.append(result.update.copy())
    return aggregator, results, snapshots


def _residuals(aggregator):
    feedback = getattr(aggregator, "error_feedback", None)
    if feedback is None:
        return {}
    return {rank: (mem.shape, mem.tobytes())
            for rank, mem in feedback._memory.items()}


@pytest.mark.parametrize("shape", [(12, 20), (7,)])
@pytest.mark.parametrize("method", available_methods())
def test_aggregators_use_worker_grads_only_during_the_call(method, shape):
    reused, got, got_snapshots = _aggregate(method, shape, overwrite=True)
    private, want, _ = _aggregate(method, shape, overwrite=False)
    for result, expected, snapshot in zip(got, want, got_snapshots):
        assert result.update.dtype == expected.update.dtype
        assert result.update.shape == expected.update.shape
        assert result.update.tobytes() == expected.update.tobytes()
        # No later step wrote into an update already returned.
        assert result.update.tobytes() == snapshot.tobytes()
        assert result.bytes_sent_per_worker == expected.bytes_sent_per_worker
        assert (result.bytes_received_per_worker
                == expected.bytes_received_per_worker)
        assert result.messages == expected.messages
        assert result.collective == expected.collective
    assert _residuals(reused) == _residuals(private)


# ----- loss_and_grads(out=...) -------------------------------------------

@pytest.fixture
def mlp():
    return MLP(MLPConfig(input_dim=6, hidden_dims=(9, 5), num_classes=3,
                         seed=2))


@pytest.mark.parametrize("batch_shape", [(8,), (3, 8)])
def test_loss_and_grads_fills_given_buffers_bit_for_bit(mlp, rng,
                                                        batch_shape):
    x = rng.normal(size=(*batch_shape, 6))
    y = rng.integers(0, 3, size=batch_shape)
    loss, fresh = mlp.loss_and_grads(x, y)
    buffers = {name: np.full(g.shape, np.nan) for name, g in fresh.items()}
    loss_out, written = mlp.loss_and_grads(x, y, out=buffers)
    assert np.asarray(loss_out).tobytes() == np.asarray(loss).tobytes()
    assert list(written) == list(fresh)
    for name, g in fresh.items():
        assert written[name] is buffers[name]
        assert written[name].dtype == g.dtype
        assert written[name].tobytes() == g.tobytes()


def test_default_loss_and_grads_calls_never_alias(mlp, rng):
    x = rng.normal(size=(8, 6))
    y = rng.integers(0, 3, size=8)
    _, first = mlp.loss_and_grads(x, y)
    _, second = mlp.loss_and_grads(x, y)
    for name in first:
        assert not np.shares_memory(first[name], second[name])


# ----- the trainer ------------------------------------------------------------

def _trainer(num_samples, method="fp16"):
    dataset = gaussian_blobs(num_samples=num_samples, num_features=6,
                             num_classes=3, seed=4)
    model = MLP(MLPConfig(input_dim=6, hidden_dims=(9,), num_classes=3,
                          seed=4))
    return DistributedTrainer(model, dataset, 4, method=method, seed=4)


def test_train_measures_accuracy_once_after_the_last_step(monkeypatch):
    trainer = _trainer(256)
    accuracy = MLP.accuracy
    steps_at_call = []

    def counted(self, x, y):
        steps_at_call.append(trainer.optimizer.steps_taken)
        return accuracy(self, x, y)

    monkeypatch.setattr(MLP, "accuracy", counted)
    history = trainer.train(steps=12, batch_size=16)
    assert steps_at_call == [12]
    assert history.final_accuracy == accuracy(
        trainer.model, trainer.dataset.x, trainer.dataset.y)


@pytest.mark.parametrize("num_samples", [256, 45])
def test_steps_reuse_one_gradient_workspace(num_samples):
    """Equal mini-batches (one stacked call) and unequal ones (45
    samples shard as 12/11/11/11, one call per rank) both write every
    step's gradients into the same buffers."""
    trainer = _trainer(num_samples)
    history = TrainHistory()
    addresses = []
    for step in range(3):
        _, grads = trainer._worker_grads(16, step)
        addresses.append([{name: g.ctypes.data for name, g in rank.items()}
                          for rank in grads])
        trainer.step(16, step, history)
    assert addresses[0] == addresses[1] == addresses[2]
    buffers = {address for rank in addresses[0] for address in rank.values()}
    assert len(buffers) == sum(len(rank) for rank in addresses[0])
