"""Synthetic datasets for the training substrate.

The paper's accuracy-side experiments use ImageNet and Sogou News; those
are unavailable offline, so the convergence validation uses synthetic
classification problems with controllable difficulty.  What matters for
validating compression semantics is that the loss surface is non-trivial
(multi-class, nonlinear boundaries) and deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class Dataset:
    """A fixed design matrix and integer labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.ndim != 2:
            raise ConfigurationError(f"x must be 2D, got shape {self.x.shape}")
        if self.y.ndim != 1 or self.y.shape[0] != self.x.shape[0]:
            raise ConfigurationError(
                f"y must be 1D with {self.x.shape[0]} entries, "
                f"got shape {self.y.shape}")

    @property
    def num_samples(self) -> int:
        """Number of rows of ``x``."""
        return self.x.shape[0]

    @property
    def num_features(self) -> int:
        """Number of columns of ``x``."""
        return self.x.shape[1]

    @property
    def num_classes(self) -> int:
        """One more than the largest label."""
        return int(self.y.max()) + 1

    def shard(self, rank: int, num_shards: int) -> "Dataset":
        """Strided shard for worker ``rank`` (data-parallel partition)."""
        if not 0 <= rank < num_shards:
            raise ConfigurationError(
                f"rank {rank} out of range for {num_shards} shards")
        return Dataset(x=self.x[rank::num_shards], y=self.y[rank::num_shards])

    def batches(self, batch_size: int, seed: int = 0,
                ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """One epoch of shuffled mini-batches."""
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}")
        order = np.random.default_rng(seed).permutation(self.num_samples)
        for start in range(0, self.num_samples, batch_size):
            idx = order[start:start + batch_size]
            yield self.x[idx], self.y[idx]


def gaussian_blobs(num_samples: int = 1024, num_features: int = 16,
                   num_classes: int = 4, spread: float = 1.0,
                   seed: int = 0) -> Dataset:
    """Isotropic Gaussian clusters, one per class.

    ``spread`` scales the within-class noise relative to the unit
    between-class separation; 1.0 gives a problem a linear model solves
    partially and an MLP solves well.
    """
    _check(num_samples, num_features, num_classes)
    if spread <= 0:
        raise ConfigurationError(f"spread must be > 0, got {spread}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 2.0, size=(num_classes, num_features))
    y = rng.integers(0, num_classes, size=num_samples)
    x = centers[y] + rng.normal(0.0, spread, size=(num_samples, num_features))
    return Dataset(x=x, y=y)


def concentric_rings(num_samples: int = 1024, num_classes: int = 3,
                     noise: float = 0.08, seed: int = 0) -> Dataset:
    """2D concentric rings — linearly inseparable, exercises the hidden
    layers (a biased compressor that breaks training shows up clearly)."""
    _check(num_samples, 2, num_classes)
    if noise < 0:
        raise ConfigurationError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    y = rng.integers(0, num_classes, size=num_samples)
    radius = 1.0 + y.astype(np.float64)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=num_samples)
    x = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    x += rng.normal(0.0, noise, size=x.shape)
    return Dataset(x=x, y=y)


def sparse_logits(num_samples: int = 2048, num_features: int = 64,
                  num_classes: int = 5, active_features: int = 8,
                  seed: int = 0) -> Dataset:
    """Labels generated by a sparse linear teacher — gradients here have
    genuinely heavy-tailed coordinates, the regime Top-K assumes."""
    _check(num_samples, num_features, num_classes)
    if not 1 <= active_features <= num_features:
        raise ConfigurationError(
            f"active_features must be in [1, {num_features}], "
            f"got {active_features}")
    rng = np.random.default_rng(seed)
    teacher = np.zeros((num_features, num_classes))
    rows = rng.choice(num_features, size=active_features, replace=False)
    teacher[rows] = rng.normal(0.0, 3.0, size=(active_features, num_classes))
    x = rng.normal(0.0, 1.0, size=(num_samples, num_features))
    y = (x @ teacher + rng.normal(0.0, 0.5, size=(num_samples, num_classes))
         ).argmax(axis=1)
    return Dataset(x=x, y=y)


def _check(num_samples: int, num_features: int, num_classes: int) -> None:
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    if num_features < 1:
        raise ConfigurationError(f"num_features must be >= 1, got {num_features}")
    if num_classes < 2:
        raise ConfigurationError(f"num_classes must be >= 2, got {num_classes}")
