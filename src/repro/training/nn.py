"""A small numpy neural network with manual backprop.

This is the *numeric* training substrate: real forward/backward math on
real data, so the compression aggregators can be validated end-to-end
(does error feedback actually recover convergence? does majority-vote
signSGD train?).  It deliberately stays small — dense layers, ReLU,
softmax cross-entropy — because the timing questions live in the
simulator; this substrate answers *correctness* questions only.

Parameters and gradients are dictionaries keyed by parameter name, the
same granularity the aggregators operate at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError

Params = Dict[str, np.ndarray]
Grads = Dict[str, np.ndarray]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, numerically stabilized."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray,
                  labels: np.ndarray) -> Union[float, np.ndarray]:
    """Mean negative log likelihood of integer ``labels``.

    ``probs`` is ``(..., n, C)`` and ``labels`` ``(..., n)``: one batch
    gives a float, a stack of batches one loss per batch.
    """
    eps = 1e-12
    picked = np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]
    loss = -np.log(picked + eps).mean(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


@dataclass
class MLPConfig:
    """Architecture of the test network."""

    input_dim: int
    hidden_dims: Tuple[int, ...]
    num_classes: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.num_classes < 2:
            raise ConfigurationError(
                f"invalid dims: input={self.input_dim}, "
                f"classes={self.num_classes}")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError(
                f"hidden dims must be >= 1, got {self.hidden_dims}")


class MLP:
    """Fully connected ReLU network with softmax cross-entropy loss.

    All state lives in :attr:`params`; :meth:`loss_and_grads` is pure with
    respect to it, which makes data-parallel replication trivial (share
    params, shard data).
    """

    def __init__(self, config: MLPConfig):
        """He-initialized weights and zero biases, drawn from
        ``config.seed``."""
        self.config = config
        rng = np.random.default_rng(config.seed)
        dims = (config.input_dim, *config.hidden_dims, config.num_classes)
        self.params: Params = {}
        for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
            scale = np.sqrt(2.0 / fan_in)  # He init for ReLU stacks
            self.params[f"w{i}"] = rng.normal(
                0.0, scale, size=(fan_in, fan_out))
            self.params[f"b{i}"] = np.zeros(fan_out)
        self.num_layers = len(dims) - 1

    def param_names(self) -> List[str]:
        """Parameter names in definition order."""
        return [f"{kind}{i}" for i in range(self.num_layers)
                for kind in ("w", "b")]

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Return logits and the per-layer inputs needed for backward.

        ``x`` is one batch ``(n, F)`` or a stack of them ``(W, n, F)``.
        """
        if x.ndim < 2 or x.shape[-1] != self.config.input_dim:
            raise ConfigurationError(
                f"expected input of shape (n, {self.config.input_dim}) or "
                f"(W, n, {self.config.input_dim}), got {x.shape}")
        inputs = [x]
        h = x
        for i in range(self.num_layers):
            h = h @ self.params[f"w{i}"]
            h += self.params[f"b{i}"]
            if i < self.num_layers - 1:
                np.maximum(h, 0.0, out=h)
            inputs.append(h)
        return h, inputs

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions."""
        logits, _ = self.forward(x)
        return logits.argmax(axis=-1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct predictions."""
        return float((self.predict(x) == y).mean())

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray,
                       out: Optional[Grads] = None,
                       ) -> Tuple[Union[float, np.ndarray], Grads]:
        """Mean cross-entropy loss and its gradient w.r.t. every param.

        ``x`` is one batch ``(n, F)`` or a stack of equal-sized batches
        ``(W, n, F)`` with labels ``(W, n)``.  A stack gives one loss per
        batch and gradients with a leading ``W`` axis; each batch's slice
        is bit for bit what that batch alone gives.

        ``out`` maps every parameter name to a float64 buffer of its
        gradient's shape; the gradients are written there (the same bits)
        and the returned dictionary holds those buffers.  Without it each
        call returns fresh arrays.
        """
        if x.shape[:-1] != y.shape:
            raise ConfigurationError(
                f"x has batch shape {x.shape[:-1]} but y has {y.shape}")
        logits, inputs = self.forward(x)
        probs = softmax(logits)
        loss = cross_entropy(probs, y)

        # probs - one_hot(y): subtracting 0.0 leaves the others exact.
        delta = probs - (y[..., None] == np.arange(probs.shape[-1]))
        delta /= x.shape[-2]

        buffers = out or {}
        grads: Grads = {}
        for i in reversed(range(self.num_layers)):
            w, b = f"w{i}", f"b{i}"
            grads[w] = np.matmul(np.swapaxes(inputs[i], -1, -2), delta,
                                 out=buffers.get(w))
            grads[b] = delta.sum(axis=-2, out=buffers.get(b))
            if i > 0:
                delta = delta @ self.params[f"w{i}"].T
                delta *= (inputs[i] > 0.0)  # ReLU mask
        return loss, grads

    def apply_update(self, updates: Grads, lr: float) -> None:
        """Gradient-descent step: ``param -= lr * update``."""
        if lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {lr}")
        for name, update in updates.items():
            if name not in self.params:
                raise ConfigurationError(f"unknown parameter {name!r}")
            if update.shape != self.params[name].shape:
                raise ConfigurationError(
                    f"update for {name!r} has shape {update.shape}, "
                    f"expected {self.params[name].shape}")
            self.params[name] -= lr * update

    def clone_params(self) -> Params:
        """Deep copy of the current parameters."""
        return {k: v.copy() for k, v in self.params.items()}

    def load_params(self, params: Params) -> None:
        """Replace parameters (shapes must match)."""
        for name, value in params.items():
            if name not in self.params:
                raise ConfigurationError(f"unknown parameter {name!r}")
            if value.shape != self.params[name].shape:
                raise ConfigurationError(
                    f"parameter {name!r} has shape {value.shape}, "
                    f"expected {self.params[name].shape}")
            self.params[name] = value.copy()
