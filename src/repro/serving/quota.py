"""Admission control for the serving scheduler.

Two mechanisms, both enforced *before* a request enters the queue so an
overloaded server sheds work at the door instead of timing it out
later:

* a per-tenant **token bucket** (``quota_rps`` sustained, ``burst``
  peak) — over-quota submissions are rejected with a computed
  ``Retry-After``;
* a global **queue-depth cap** — a full admission queue rejects with
  503 so load balancers can fail over to another replica.

Both rejections raise :class:`AdmissionError`, which carries the HTTP
status and a machine-readable reason the HTTP layer serializes into the
structured error body.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, Optional

from ..errors import ConfigurationError, ReproError


class AdmissionError(ReproError):
    """A request the scheduler refused to admit.

    Attributes:
        status: HTTP status the rejection maps to (429 for quota, 503
            for a full queue).
        reason: Machine-readable label (``"quota"``, ``"queue_full"``,
            ``"closed"``) — also the ``reason`` label on the
            ``serving_rejected_total`` counter.
        retry_after_s: Seconds until a retry can succeed, or ``None``
            when the server cannot predict one (queue full).
    """

    def __init__(self, message: str, status: int, reason: str,
                 retry_after_s: Optional[float] = None):
        """Store the HTTP mapping alongside the human-readable message."""
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s


def _check_burst(burst: float) -> None:
    """Reject a burst that is not finite and >= 1 (a negated
    comparison, so NaN fails too)."""
    if not 1 <= burst < math.inf:
        raise ConfigurationError(
            f"burst must be >= 1 and finite, got {burst}")


def _check_policy(rate_per_s: float, burst: float) -> None:
    """Reject a rate that is not positive and finite, or a bad burst."""
    if not 0 < rate_per_s < math.inf:
        raise ConfigurationError(
            f"rate_per_s must be positive and finite, got {rate_per_s}")
    _check_burst(burst)


class TokenBucket:
    """Classic token bucket: ``rate_per_s`` sustained, ``burst`` peak.

    Thread-safe; time comes from an injectable monotonic ``clock`` so
    tests can drive refills deterministically.
    """

    def __init__(self, rate_per_s: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        """Start full: a fresh bucket allows an immediate burst."""
        _check_policy(rate_per_s, burst)
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._stamp)
        self._tokens = min(self.burst,
                           self._tokens + elapsed * self.rate_per_s)
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after_s(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available at current rate."""
        with self._lock:
            self._refill(self._clock())
            deficit = tokens - self._tokens
            if deficit <= 0:
                return 0.0
            return deficit / self.rate_per_s


class TenantQuotas:
    """Per-tenant token buckets, created lazily on first submission.

    ``rate_per_s=None`` disables quota enforcement entirely (the
    default for `repro serve` — a single-user dev server should not
    throttle itself).
    """

    def __init__(self, rate_per_s: Optional[float], burst: float,
                 clock: Callable[[], float] = time.monotonic):
        """Shared policy for all tenants; buckets materialize lazily,
        but the policy is checked here, so a bad one fails at start —
        the burst too when no rate enables it."""
        if rate_per_s is not None:
            _check_policy(rate_per_s, burst)
        else:
            _check_burst(burst)
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether submissions are metered at all."""
        return self.rate_per_s is not None

    def check(self, tenant: str) -> None:
        """Admit one request for ``tenant`` or raise a 429
        :class:`AdmissionError` with ``retry_after_s`` filled in."""
        if self.rate_per_s is None:
            return
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate_per_s, self.burst,
                                     clock=self._clock)
                self._buckets[tenant] = bucket
        if bucket.try_acquire():
            return
        retry_after = bucket.retry_after_s()
        raise AdmissionError(
            f"tenant {tenant!r} over quota "
            f"({self.rate_per_s:g} req/s, burst {self.burst:g}); "
            f"retry in {retry_after:.2f} s",
            status=429, reason="quota",
            retry_after_s=math.ceil(retry_after * 100) / 100)
