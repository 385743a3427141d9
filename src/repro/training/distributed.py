"""Data-parallel training through real compression aggregators.

This wires together the numeric substrate: ``num_workers`` logical workers
each hold a shard of the data, compute *real* gradients on a shared model
replica, and aggregate them through the *actual* compressor +
error-feedback + collective machinery of :mod:`repro.compression`.  The
result is the end-to-end convergence validation the timing study takes for
granted: fp32 aggregation is bit-equivalent to large-batch SGD, error
feedback rescues biased compressors, signSGD needs its own learning-rate
regime, and so on.

It also tracks wire traffic, so examples can report the accuracy-vs-bytes
trade-off alongside the simulator's time predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compression import Aggregator, make_aggregator
from ..errors import ConfigurationError
from .data import Dataset
from .nn import MLP, Grads, MLPConfig
from .optim import SGD, Optimizer


@dataclass
class TrainHistory:
    """Per-step records of a distributed training run."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    bytes_sent_per_worker: float = 0.0
    bytes_received_per_worker: float = 0.0
    steps: int = 0

    @property
    def final_loss(self) -> float:
        """Mean worker loss of the last step."""
        if not self.losses:
            raise ConfigurationError("no steps recorded")
        return self.losses[-1]

    @property
    def final_accuracy(self) -> float:
        """Accuracy on the whole dataset after the last step."""
        if not self.accuracies:
            raise ConfigurationError("no accuracy recorded")
        return self.accuracies[-1]


class DistributedTrainer:
    """Synchronous data-parallel trainer over logical workers.

    One :class:`~repro.compression.Aggregator` instance is created per
    model parameter (the granularity real per-layer hooks use), so
    stateful methods (error feedback, PowerSGD warm start) keep their
    state per tensor, as the reference implementations do.
    """

    def __init__(self, model: MLP, dataset: Dataset, num_workers: int,
                 method: str = "fp32",
                 method_params: Optional[Dict] = None,
                 lr: float = 0.1, seed: int = 0,
                 optimizer: Optional[Optimizer] = None):
        """Shard ``dataset`` over ``num_workers`` logical workers and
        build one ``method`` aggregator per parameter of ``model``.

        ``method_params`` go to :func:`~repro.compression.make_aggregator`;
        ``seed`` draws the mini-batches; ``optimizer`` defaults to plain
        SGD at ``lr``.
        """
        if num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {num_workers}")
        if dataset.num_samples < num_workers:
            raise ConfigurationError(
                f"dataset of {dataset.num_samples} samples cannot shard "
                f"across {num_workers} workers")
        self.model = model
        self.dataset = dataset
        self.num_workers = num_workers
        self.method = method
        self.lr = lr
        self.seed = seed
        self.optimizer = optimizer if optimizer is not None else SGD(lr)
        self.shards = [dataset.shard(r, num_workers)
                       for r in range(num_workers)]
        params = dict(method_params or {})
        self.aggregators: Dict[str, Aggregator] = {
            name: make_aggregator(method, num_workers, **params)
            for name in model.param_names()
        }
        # The gradient workspace: rank r's gradients live in row r of
        # these stacks, and every step overwrites them.
        self._grads: Grads = {
            name: np.empty((num_workers, *value.shape))
            for name, value in model.params.items()}
        self._rank_grads = [{name: g[rank] for name, g in self._grads.items()}
                            for rank in range(num_workers)]

    def _worker_grads(self, batch_size: int,
                      step: int) -> Tuple[float, List[Grads]]:
        """Each worker computes gradients on its own mini-batch.

        Equal-sized mini-batches go through one stacked
        :meth:`MLP.loss_and_grads` call; otherwise each rank calls it on
        its own batch.  Either way rank ``r`` gets exactly the gradients
        of its batch alone, written into the trainer's gradient
        workspace: they stay valid until the next call.
        """
        xs, ys = [], []
        for rank, shard in enumerate(self.shards):
            rng = np.random.default_rng((self.seed, step, rank))
            idx = rng.choice(shard.num_samples,
                             size=min(batch_size, shard.num_samples),
                             replace=False)
            xs.append(shard.x[idx])
            ys.append(shard.y[idx])
        if len({y.size for y in ys}) == 1:
            losses, stacked = self.model.loss_and_grads(
                np.stack(xs), np.stack(ys), out=self._grads)
            all_grads = [{name: g[rank] for name, g in stacked.items()}
                         for rank in range(self.num_workers)]
        else:
            losses, all_grads = zip(*map(self.model.loss_and_grads, xs, ys,
                                         self._rank_grads))
        return float(np.mean(losses)), list(all_grads)

    def step(self, batch_size: int, step_index: int,
             history: TrainHistory) -> float:
        """One synchronous step: shard-local gradients, per-parameter
        compressed aggregation, shared update."""
        loss, worker_grads = self._worker_grads(batch_size, step_index)
        updates: Grads = {}
        for name, aggregator in self.aggregators.items():
            result = aggregator.step(
                [grads[name] for grads in worker_grads])
            updates[name] = result.update
            history.bytes_sent_per_worker += result.bytes_sent_per_worker
            history.bytes_received_per_worker += (
                result.bytes_received_per_worker)
        self.optimizer.step(self.model.params, updates)
        return loss

    def train(self, steps: int, batch_size: int = 32) -> TrainHistory:
        """Run ``steps`` synchronous iterations, then measure accuracy on
        the whole dataset once; returns the history."""
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {steps}")
        history = TrainHistory()
        for step_index in range(steps):
            loss = self.step(batch_size, step_index, history)
            history.losses.append(loss)
            history.steps += 1
        history.accuracies.append(
            self.model.accuracy(self.dataset.x, self.dataset.y))
        return history


def train_with_method(dataset: Dataset, method: str = "fp32",
                      method_params: Optional[Dict] = None,
                      hidden_dims: Sequence[int] = (32, 32),
                      num_workers: int = 4, steps: int = 100,
                      batch_size: int = 32, lr: float = 0.1,
                      seed: int = 0,
                      optimizer: Optional[Optimizer] = None) -> TrainHistory:
    """Convenience wrapper: build an MLP for ``dataset`` and train it
    data-parallel with the named compression method."""
    model = MLP(MLPConfig(
        input_dim=dataset.num_features,
        hidden_dims=tuple(hidden_dims),
        num_classes=dataset.num_classes,
        seed=seed,
    ))
    trainer = DistributedTrainer(
        model, dataset, num_workers, method=method,
        method_params=method_params, lr=lr, seed=seed,
        optimizer=optimizer)
    return trainer.train(steps=steps, batch_size=batch_size)
