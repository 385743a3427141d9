"""Exception hierarchy for :mod:`repro`.

A single root, :class:`ReproError`, so callers can catch everything the
library raises deliberately with one ``except`` clause while still letting
genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised deliberately by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or combined with invalid parameters."""


class OutOfMemoryError(ReproError):
    """A simulated worker exceeded its GPU memory budget.

    Mirrors the paper's observation that non-all-reducible methods (Top-K,
    signSGD) could not scale past 32 GPUs for BERT because their aggregation
    working set grows linearly with the number of workers.
    """

    def __init__(self, message: str, required_bytes: float = 0.0,
                 budget_bytes: float = 0.0):
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class EngineError(ReproError):
    """The experiment engine gave up on a job after exhausting retries.

    Carries the final failure's description; the sweep that submitted the
    job keeps running and reports the failure as a degraded row instead
    of dying wholesale.
    """


class CollectiveError(ReproError):
    """A collective was invoked with inconsistent per-worker inputs."""


class CompressionError(ReproError):
    """A compressor was given input it cannot encode or decode."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class CalibrationError(ReproError):
    """A calibration routine could not fit its constants."""
