"""Span-based run tracing behind a process-global tracer.

Where :mod:`repro.telemetry.metrics` answers *how much* (counters,
gauges, histograms), tracing answers *when* and *inside what*: explicit
start/end spans with trace/span ids and string labels, covering the CLI
entry, each exhibit, the engine's submit -> queue -> worker-exec ->
cache-store path, family/chunk batching and individual simulator runs.

The design mirrors the metrics registry's null-backend pattern:

* the default tracer is a :class:`NullTracer` whose handles are shared
  no-op singletons.  Disabled tracing costs one attribute load and a
  no-op call — it never touches an RNG, never reads the clock, and
  therefore keeps every simulated timeline bit-identical to an
  untraced run;
* :func:`enable_tracing` installs a :class:`TraceRecorder` that records
  :class:`TraceSpan` rows with absolute unix timestamps, suitable for
  Perfetto/Chrome export via :func:`repro.simulator.export.write_trace_spans`.

Cross-process propagation is cooperative: a parent serializes
``(trace_id, parent_span_id, submitted_unix_s)`` into the job payload
(see ``_traced_call`` in :mod:`repro.engine.engine`), the worker
installs a local recorder seeded with that context, emits spans under
its own pid, and ships them back with the result; the parent merges
them into its recorder.  Spans therefore survive retries and pool
rebuilds — a killed attempt simply contributes no spans, and the
retried attempt lands as a sibling under the same parent job span.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError

#: Wire form of a span context handed to pool workers:
#: ``(trace_id, parent_span_id, submitted_unix_s)``.
TraceContext = Tuple[str, str, float]

#: Per-process span id counter; ids are pid-qualified so spans minted in
#: pool workers can never collide with the parent's.
_IDS = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}.{next(_IDS):x}"


def _new_trace_id() -> str:
    # Wall-clock nanoseconds + pid: unique enough across runs without
    # consuming randomness (tracing must never perturb an RNG stream).
    return f"{os.getpid():x}-{time.time_ns():x}"


@dataclass(frozen=True)
class TraceSpan:
    """One finished span: a named interval on a track, with lineage."""

    name: str
    track: str
    start_unix_s: float
    end_unix_s: float
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    pid: int
    labels: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("span name must be non-empty")
        if not self.track:
            raise ConfigurationError("span track must be non-empty")
        if self.end_unix_s < self.start_unix_s:
            raise ConfigurationError(
                f"span {self.name!r} ends before it starts "
                f"({self.end_unix_s} < {self.start_unix_s})")

    @property
    def duration_s(self) -> float:
        """Wall seconds from start to end."""
        return self.end_unix_s - self.start_unix_s


class ActiveSpan:
    """Mutable handle for a span that has started but not finished.

    Usable either explicitly (``begin()`` ... ``finish()``) or as a
    context manager (``with tracer.span(...)``), in which case the span
    also becomes the implicit parent of spans opened inside the block.
    """

    __slots__ = ("_tracer", "name", "track", "span_id", "parent_id",
                 "start_unix_s", "_labels")

    def __init__(self, tracer: "TraceRecorder", name: str, track: str,
                 parent_id: Optional[str],
                 labels: Dict[str, Any]) -> None:
        """Start the span now, with a fresh span id."""
        self._tracer = tracer
        self.name = name
        self.track = track
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.start_unix_s = time.time()
        self._labels = {str(k): str(v) for k, v in labels.items()}

    def annotate(self, **labels: Any) -> None:
        """Attach (or overwrite) labels before the span finishes."""
        for k, v in labels.items():
            self._labels[str(k)] = str(v)

    def __enter__(self) -> "ActiveSpan":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._tracer._pop(self)
        if exc_type is not None:
            self.annotate(error=exc_type.__name__)
        self._tracer.finish(self)
        return False


class _NullSpan:
    """Shared do-nothing span handle when tracing is disabled."""

    __slots__ = ()

    name = ""
    track = ""
    span_id = ""
    parent_id = None
    start_unix_s = 0.0

    def annotate(self, **labels: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled backend: every handle is the same no-op singleton."""

    enabled = False
    trace_id = ""

    def span(self, name: str, track: str = "engine",
             **labels: Any) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def begin(self, name: str, track: str = "engine",
              parent_id: Optional[str] = None, **labels: Any) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def finish(self, span: Any, **labels: Any) -> None:
        """Record nothing."""

    def add_span(self, name: str, track: str, start_unix_s: float,
                 end_unix_s: float, parent_id: Optional[str] = None,
                 **labels: Any) -> None:
        """Record nothing."""

    def add_iteration_trace(self, trace: Any, base_unix_s: float,
                            parent_id: Optional[str] = None,
                            track_prefix: str = "sim:") -> None:
        """Record nothing."""

    def merge(self, spans: Iterable[TraceSpan]) -> None:
        """Drop ``spans``."""

    def drain(self) -> Tuple[TraceSpan, ...]:
        """No spans."""
        return ()

    @property
    def spans(self) -> Tuple[TraceSpan, ...]:
        """No spans."""
        return ()


class TraceRecorder:
    """Live tracer: records finished spans in completion order.

    ``root_parent_id`` seeds the implicit parent for spans opened while
    the stack is empty — pool workers set it to the submitting job's
    span id so their local spans parent across the process boundary.
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None,
                 root_parent_id: Optional[str] = None) -> None:
        """Start an empty recorder (a fresh trace id unless given)."""
        self.trace_id = trace_id if trace_id else _new_trace_id()
        self.root_parent_id = root_parent_id
        self._spans: List[TraceSpan] = []
        self._stack: List[ActiveSpan] = []

    # -- span lifecycle ------------------------------------------------

    def _current_parent(self) -> Optional[str]:
        if self._stack:
            return self._stack[-1].span_id
        return self.root_parent_id

    def span(self, name: str, track: str = "engine",
             **labels: Any) -> ActiveSpan:
        """A context-manager span: parents to the innermost open span."""
        return ActiveSpan(self, name, track, self._current_parent(), labels)

    def begin(self, name: str, track: str = "engine",
              parent_id: Optional[str] = None, **labels: Any) -> ActiveSpan:
        """Start an explicit span; pair with :meth:`finish`.

        Unlike ``with span(...)`` it does not become the implicit
        parent of later spans, so overlapping lifetimes (one span per
        in-flight pool job) are expressible.
        """
        if parent_id is None:
            parent_id = self._current_parent()
        return ActiveSpan(self, name, track, parent_id, labels)

    def finish(self, span: ActiveSpan, **labels: Any) -> TraceSpan:
        """End ``span`` now, with ``labels`` added, and record it."""
        if labels:
            span.annotate(**labels)
        done = TraceSpan(
            name=span.name, track=span.track,
            start_unix_s=span.start_unix_s, end_unix_s=time.time(),
            trace_id=self.trace_id, span_id=span.span_id,
            parent_id=span.parent_id, pid=os.getpid(),
            labels=tuple(sorted(span._labels.items())))
        self._spans.append(done)
        return done

    def add_span(self, name: str, track: str, start_unix_s: float,
                 end_unix_s: float, parent_id: Optional[str] = None,
                 **labels: Any) -> TraceSpan:
        """Record an already-timed interval (e.g. queue wait measured
        across processes, or reconstructed simulator spans)."""
        if parent_id is None:
            parent_id = self._current_parent()
        done = TraceSpan(
            name=name, track=track,
            start_unix_s=start_unix_s,
            # Cross-process clocks can disagree by a hair; clamp rather
            # than reject so a skewed queue-wait never aborts a run.
            end_unix_s=max(end_unix_s, start_unix_s),
            trace_id=self.trace_id, span_id=_new_span_id(),
            parent_id=parent_id, pid=os.getpid(),
            labels=tuple(sorted((str(k), str(v))
                                for k, v in labels.items())))
        self._spans.append(done)
        return done

    def add_iteration_trace(self, trace: Any, base_unix_s: float,
                            parent_id: Optional[str] = None,
                            track_prefix: str = "sim:") -> None:
        """Project one simulator :class:`~repro.simulator.trace.IterationTrace`
        onto the timeline: simulated seconds are plotted as wall seconds
        offset from ``base_unix_s``, one track per simulator stream."""
        for span in trace.spans:
            labels: Dict[str, Any] = {}
            if span.bytes_on_wire:
                labels["bytes_on_wire"] = repr(span.bytes_on_wire)
            self.add_span(span.label, track=track_prefix + span.stream,
                          start_unix_s=base_unix_s + span.start,
                          end_unix_s=base_unix_s + span.end,
                          parent_id=parent_id, **labels)

    # -- implicit-parent stack ----------------------------------------

    def _push(self, span: ActiveSpan) -> None:
        self._stack.append(span)

    def _pop(self, span: ActiveSpan) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    # -- collection ----------------------------------------------------

    @property
    def spans(self) -> Tuple[TraceSpan, ...]:
        """Every recorded span, in completion order."""
        return tuple(self._spans)

    def merge(self, spans: Iterable[TraceSpan]) -> None:
        """Adopt spans recorded elsewhere (typically a pool worker)."""
        self._spans.extend(spans)

    def drain(self) -> Tuple[TraceSpan, ...]:
        """All recorded spans, clearing the recorder."""
        out = tuple(self._spans)
        self._spans.clear()
        return out


#: The process-global tracer instrumented code records into.
_TRACER: Any = NullTracer()


def get_tracer() -> Any:
    """The currently installed tracer (never ``None``)."""
    return _TRACER


def set_tracer(tracer: Any) -> Any:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _TRACER
    if tracer is None:
        raise ConfigurationError(
            "tracer must not be None; use disable_tracing() for the "
            "null backend")
    previous = _TRACER
    _TRACER = tracer
    return previous


def enable_tracing(trace_id: Optional[str] = None) -> TraceRecorder:
    """Install (and return) a fresh live tracer."""
    tracer = TraceRecorder(trace_id=trace_id)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    """Reinstall the null backend."""
    set_tracer(NullTracer())
