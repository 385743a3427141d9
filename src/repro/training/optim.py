"""Optimizers for the numeric training substrate.

The plain ``param -= lr * update`` step lives on :class:`~repro.training.MLP`
for the simplest flows; these optimizer classes add the state real
distributed training uses — momentum (what the ResNet recipes run), Adam
(what BERT fine-tuning runs) — plus learning-rate schedules.  Momentum in
particular interacts with compression: DGC's momentum correction and the
signSGD literature's learning-rate sensitivity only show up when the
optimizer carries state.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError
from .nn import Grads, Params


class LRSchedule(abc.ABC):
    """Learning-rate schedule: step index -> learning rate."""

    @abc.abstractmethod
    def lr_at(self, step: int) -> float:
        """Learning rate to use at ``step`` (0-indexed)."""

    def _check_step(self, step: int) -> None:
        if step < 0:
            raise ConfigurationError(f"step must be >= 0, got {step}")


class ConstantLR(LRSchedule):
    """Fixed learning rate."""

    def __init__(self, lr: float):
        """``lr`` must be positive."""
        if lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {lr}")
        self.lr = lr

    def lr_at(self, step: int) -> float:
        """``lr`` at every step."""
        self._check_step(step)
        return self.lr


class StepDecayLR(LRSchedule):
    """Multiply the rate by ``factor`` every ``every`` steps (the
    classic ImageNet staircase)."""

    def __init__(self, lr: float, every: int, factor: float = 0.1):
        """Start at ``lr``; ``factor`` must be in (0, 1]."""
        if lr <= 0 or every < 1 or not 0 < factor <= 1:
            raise ConfigurationError(
                f"invalid schedule (lr={lr}, every={every}, factor={factor})")
        self.lr = lr
        self.every = every
        self.factor = factor

    def lr_at(self, step: int) -> float:
        """``lr * factor ** (step // every)``."""
        self._check_step(step)
        return self.lr * self.factor ** (step // self.every)


class WarmupCosineLR(LRSchedule):
    """Linear warm-up then cosine decay to zero (the BERT recipe)."""

    def __init__(self, lr: float, warmup_steps: int, total_steps: int):
        """Peak rate ``lr`` after ``warmup_steps``, zero at
        ``total_steps``."""
        if lr <= 0 or warmup_steps < 0 or total_steps <= warmup_steps:
            raise ConfigurationError(
                f"invalid schedule (lr={lr}, warmup={warmup_steps}, "
                f"total={total_steps})")
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def lr_at(self, step: int) -> float:
        """Linear ramp to ``lr`` during warm-up, cosine decay after it,
        zero from ``total_steps`` on."""
        self._check_step(step)
        if self.warmup_steps and step < self.warmup_steps:
            return self.lr * (step + 1) / self.warmup_steps
        progress = (step - self.warmup_steps) / (
            self.total_steps - self.warmup_steps)
        progress = min(progress, 1.0)
        return self.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class Optimizer(abc.ABC):
    """Stateful optimizer over a named-parameter dictionary."""

    def __init__(self, schedule: LRSchedule):
        """Start at step 0 of ``schedule``."""
        self.schedule = schedule
        self._step = 0

    @property
    def steps_taken(self) -> int:
        """Number of :meth:`step` calls so far."""
        return self._step

    def step(self, params: Params, updates: Grads) -> None:
        """Apply one update in place and advance the schedule."""
        lr = self.schedule.lr_at(self._step)
        for name, update in updates.items():
            if name not in params:
                raise ConfigurationError(f"unknown parameter {name!r}")
            if update.shape != params[name].shape:
                raise ConfigurationError(
                    f"update for {name!r} has shape {update.shape}, "
                    f"expected {params[name].shape}")
            self._apply(name, params, np.asarray(update, dtype=np.float64),
                        lr)
        self._step += 1

    @abc.abstractmethod
    def _apply(self, name: str, params: Params, update: np.ndarray,
               lr: float) -> None:
        """Apply the update for one parameter."""


class SGD(Optimizer):
    """SGD with (optional) heavy-ball momentum and weight decay."""

    def __init__(self, lr: float = 0.1, momentum: float = 0.0,
                 weight_decay: float = 0.0,
                 schedule: Optional[LRSchedule] = None):
        """``schedule`` overrides the constant ``lr``."""
        super().__init__(schedule if schedule is not None
                         else ConstantLR(lr))
        if not 0 <= momentum < 1:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[str, np.ndarray] = {}

    def _apply(self, name, params, update, lr):
        if self.weight_decay:
            update = update + self.weight_decay * params[name]
        if self.momentum:
            vel = self._velocity.get(name)
            if vel is None:
                vel = np.zeros_like(update)
            vel = self.momentum * vel + update
            self._velocity[name] = vel
            update = vel
        params[name] -= lr * update


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 schedule: Optional[LRSchedule] = None):
        """``schedule`` overrides the constant ``lr``."""
        super().__init__(schedule if schedule is not None
                         else ConstantLR(lr))
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ConfigurationError(
                f"betas must be in [0, 1), got ({beta1}, {beta2})")
        if eps <= 0:
            raise ConfigurationError(f"eps must be > 0, got {eps}")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}

    def _apply(self, name, params, update, lr):
        m = self._m.get(name)
        v = self._v.get(name)
        if m is None:
            m = np.zeros_like(update)
            v = np.zeros_like(update)
        m = self.beta1 * m + (1 - self.beta1) * update
        v = self.beta2 * v + (1 - self.beta2) * update * update
        self._m[name], self._v[name] = m, v
        t = self._step + 1
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
