"""Labeled metrics: counters, gauges and histograms behind one registry.

The paper's methodology is built on measurement — γ from Nsight traces,
per-bucket communication occupancy, overlap fractions — so the
reproduction carries its own instrumentation layer.  Code records into
whatever registry is currently installed process-wide:

* the default is a :class:`NullRegistry`, whose metric handles are
  shared no-op singletons.  Disabled instrumentation costs one attribute
  load and a no-op call — it never touches an RNG, never allocates
  per-sample state, and therefore keeps every simulated timeline
  bit-identical to an uninstrumented run;
* installing a :class:`MetricsRegistry` (``enable()``, or ``repro``'s
  CLI does it for you) turns the same call sites into real counters,
  gauges and histograms, snapshotted into run manifests and the
  ``--metrics`` CLI report.

Metric identity is a name plus a small set of string-valued labels
(``counter("collective_calls_total", algorithm="ring")``), the Prometheus
convention: low-cardinality labels only — schemes, algorithms, span
kinds — never per-iteration values.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError

#: Histograms keep at most this many raw samples for percentiles; the
#: count/sum/min/max aggregates remain exact beyond it.
MAX_HISTOGRAM_SAMPLES = 100_000

#: Percentiles reported in histogram summaries.
SUMMARY_PERCENTILES = (50.0, 90.0, 99.0)

#: A metric key: name plus sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def metric_key(name: str, labels: Dict[str, Any]) -> MetricKey:
    """Canonical hashable identity of a labeled metric."""
    if not name:
        raise ConfigurationError("metric name must be non-empty")
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-exposition rules:
    backslash, double quote and newline become ``\\\\``, ``\\"`` and
    ``\\n``.  Shared by :func:`format_key` and :func:`render_prometheus`
    so snapshot keys and scrape output agree."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def format_key(key: MetricKey) -> str:
    """Render a key Prometheus-style: ``name{label="value",...}``.

    Label values are escaped (:func:`escape_label_value`), so a value
    containing ``"``, ``\\`` or a newline round-trips through
    :func:`parse_key` instead of producing a malformed key.
    """
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_key(formatted: str) -> MetricKey:
    """Exact inverse of :func:`format_key`."""
    brace = formatted.find("{")
    if brace == -1:
        return (formatted, ())
    if not formatted.endswith("}"):
        raise ConfigurationError(f"malformed metric key: {formatted!r}")
    name = formatted[:brace]
    inner = formatted[brace + 1:-1]
    labels: List[Tuple[str, str]] = []
    i = 0
    while i < len(inner):
        eq = inner.find("=", i)
        if eq == -1 or eq + 1 >= len(inner) or inner[eq + 1] != '"':
            raise ConfigurationError(f"malformed metric key: {formatted!r}")
        label = inner[i:eq]
        j = eq + 2
        buf: List[str] = []
        while True:
            if j >= len(inner):
                raise ConfigurationError(
                    f"malformed metric key: {formatted!r}")
            ch = inner[j]
            if ch == "\\" and j + 1 < len(inner):
                buf.append(inner[j:j + 2])
                j += 2
            elif ch == '"':
                j += 1
                break
            else:
                buf.append(ch)
                j += 1
        labels.append((label, _unescape_label_value("".join(buf))))
        if j < len(inner):
            if inner[j] != ",":
                raise ConfigurationError(
                    f"malformed metric key: {formatted!r}")
            j += 1
        i = j
    return (name, tuple(labels))


class Counter:
    """Monotonically increasing count (events, bytes, cache hits)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0)."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; got increment {amount}")
        self.value += amount


class Gauge:
    """A value that goes up and down (utilization, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Raise the gauge by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the gauge by ``amount``."""
        self.value -= amount


class Histogram:
    """Distribution of observed values with percentile summaries.

    Exact ``count``/``total``/``min``/``max``; percentiles come from a
    retained sample capped at :data:`MAX_HISTOGRAM_SAMPLES` (the cap
    exists so a million-iteration sweep cannot grow memory unboundedly;
    within it, percentiles are exact too).
    """

    __slots__ = ("count", "total", "min", "max", "_samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one value."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < MAX_HISTOGRAM_SAMPLES:
            self._samples.append(value)

    def observe_many(self, values: Any) -> None:
        """:meth:`observe` each value in order, in bulk.

        The running total is accumulated with a sequential ``cumsum``
        from the current total, so its bits equal the one-at-a-time
        loop's; min and max skip NaN exactly as the loop's comparisons
        do, and the retained samples fill up to the same cap.
        """
        import numpy as np  # deferred: `repro metrics` loads no numpy

        values = np.asarray(values, dtype=float).ravel()
        if not values.size:
            return
        self.count += values.size
        self.total = float(np.cumsum(
            np.concatenate(([self.total], values)))[-1])
        finite = values[~np.isnan(values)]
        if finite.size:
            # argmin/argmax pick the first extreme, as the loop's strict
            # comparisons do (0.0 and -0.0 compare equal).
            low = float(finite[np.argmin(finite)])
            high = float(finite[np.argmax(finite)])
            if low < self.min:
                self.min = low
            if high > self.max:
                self.max = high
        room = MAX_HISTOGRAM_SAMPLES - len(self._samples)
        if room > 0:
            self._samples.extend(values[:room].tolist())

    @property
    def mean(self) -> float:
        """Mean of every observed value (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (nearest-rank) of retained samples."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        """Count, total, mean, min, max and the reported percentiles."""
        if self.count == 0:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0,
                    **{f"p{int(q)}": 0.0 for q in SUMMARY_PERCENTILES}}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **{f"p{int(q)}": self.percentile(q)
               for q in SUMMARY_PERCENTILES},
        }


class _NullMetric:
    """Shared do-nothing handle for every metric type when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Any) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The disabled backend: every handle is the same no-op singleton.

    ``enabled`` is ``False`` so call sites can skip *derived* work (e.g.
    computing an overlap integral only to discard it); the handles
    themselves are always safe to use.
    """

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullMetric:
        """The shared no-op handle."""
        return _NULL_METRIC

    def gauge(self, name: str, **labels: Any) -> _NullMetric:
        """The shared no-op handle."""
        return _NULL_METRIC

    def histogram(self, name: str, **labels: Any) -> _NullMetric:
        """The shared no-op handle."""
        return _NULL_METRIC

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Empty sections: nothing is ever recorded."""
        return {"counters": {}, "gauges": {}, "histograms": {}}


class MetricsRegistry:
    """Live metrics store: creates metrics on first use, keyed by
    name + labels.

    Lookups go through a per-registry cache keyed by the call itself —
    its metric type, name and labels in the order given — in front of
    :func:`metric_key`, so a hot call site pays one tuple hash instead
    of a sort and a ``str`` per label.  Only calls whose label values
    are all ``str`` are cached: ``1``, ``1.0`` and ``True`` are equal
    dict keys but different label values.  Any other call, including one
    with an unhashable label value, takes the canonical path; metric
    identity is :func:`metric_key` either way.
    """

    enabled = True

    def __init__(self) -> None:
        """Start with no metrics."""
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        self._calls: Dict[tuple, Any] = {}

    def _lookup(self, metrics: Dict[MetricKey, Any], kind: type,
                name: str, labels: Dict[str, Any]) -> Any:
        """The ``kind`` metric ``name{labels}``, created on first use."""
        call: Optional[tuple] = (kind, name, *labels.items())
        try:
            return self._calls[call]
        except KeyError:
            pass
        except TypeError:  # an unhashable label value
            call = None
        key = metric_key(name, labels)
        metric = metrics.get(key)
        if metric is None:
            # setdefault, not a store: threads racing to create one
            # metric must all get (and cache) the one that is kept.
            metric = metrics.setdefault(key, kind())
        if call is not None and all(
                type(value) is str for value in labels.values()):
            self._calls[call] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter ``name{labels}``, created at 0 on first use."""
        return self._lookup(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge ``name{labels}``, created at 0 on first use."""
        return self._lookup(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram ``name{labels}``, created empty on first use."""
        return self._lookup(self._histograms, Histogram, name, labels)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict rendering of every metric, JSON-serializable,
        keys formatted Prometheus-style and sorted."""
        return {
            "counters": {format_key(k): m.value
                         for k, m in sorted(self._counters.items())},
            "gauges": {format_key(k): m.value
                       for k, m in sorted(self._gauges.items())},
            "histograms": {format_key(k): m.summary()
                           for k, m in sorted(self._histograms.items())},
        }


#: Quantiles emitted for histogram summaries in Prometheus output,
#: mapped to the snapshot percentile fields they come from.
_PROM_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def _prom_value(value: Any) -> str:
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number)


def _prom_sample(name: str, labels: Tuple[Tuple[str, str], ...],
                 value: Any,
                 extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    rendered = format_key((name, labels + extra))
    return f"{rendered} {_prom_value(value)}"


def render_prometheus(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Render a registry ``snapshot()`` in the Prometheus text
    exposition format (version 0.0.4).

    Counters and gauges map directly; histograms are exposed as
    summaries — one ``quantile``-labeled sample per reported
    percentile plus ``_sum`` and ``_count`` series.  Metric families
    are grouped under one ``# TYPE`` line each; label values use
    :func:`escape_label_value`.
    """
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            raise ConfigurationError(
                f"snapshot is missing the {section!r} section")
    lines: List[str] = []

    def families(section: str) -> Dict[str, List[Tuple[MetricKey, Any]]]:
        grouped: Dict[str, List[Tuple[MetricKey, Any]]] = {}
        for formatted, value in snapshot[section].items():
            key = parse_key(formatted)
            grouped.setdefault(key[0], []).append((key, value))
        return grouped

    for name, entries in sorted(families("counters").items()):
        lines.append(f"# TYPE {name} counter")
        for key, value in entries:
            lines.append(_prom_sample(name, key[1], value))
    for name, entries in sorted(families("gauges").items()):
        lines.append(f"# TYPE {name} gauge")
        for key, value in entries:
            lines.append(_prom_sample(name, key[1], value))
    for name, entries in sorted(families("histograms").items()):
        lines.append(f"# TYPE {name} summary")
        for key, summary in entries:
            for quantile, field in _PROM_QUANTILES:
                lines.append(_prom_sample(
                    name, key[1], summary[field],
                    extra=(("quantile", quantile),)))
            lines.append(_prom_sample(name + "_sum", key[1],
                                      summary["total"]))
            lines.append(_prom_sample(name + "_count", key[1],
                                      summary["count"]))
    return "\n".join(lines) + "\n" if lines else ""


#: One sample line: metric name, optional label set, float value.
_PROM_SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})?'
    r' (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$')

#: Comment lines: ``# TYPE name counter|gauge|summary|histogram`` or
#: ``# HELP name text``.
_PROM_COMMENT_RE = re.compile(
    r'^# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* '
    r'(counter|gauge|summary|histogram|untyped)'
    r'|HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*)$')


def validate_prometheus_text(text: str) -> List[str]:
    """Line-format check of a text exposition; returns a list of
    ``"line N: ..."`` problems (empty means valid).  Shared by the
    test suite and ``tools/check_trace.py``."""
    problems: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if not _PROM_COMMENT_RE.match(line):
                problems.append(f"line {number}: malformed comment: {line!r}")
        elif not _PROM_SAMPLE_RE.match(line):
            problems.append(f"line {number}: malformed sample: {line!r}")
    return problems


#: The process-global registry instrumented code records into.
_REGISTRY: Any = NullRegistry()


def get_registry() -> Any:
    """The currently installed registry (never ``None``)."""
    return _REGISTRY


def set_registry(registry: Any) -> Any:
    """Install ``registry`` process-wide; returns the previous one."""
    global _REGISTRY
    if registry is None:
        raise ConfigurationError(
            "registry must not be None; use disable() for the null backend")
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def enable() -> MetricsRegistry:
    """Install (and return) a fresh live registry."""
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


def disable() -> None:
    """Reinstall the null backend."""
    set_registry(NullRegistry())
