"""Timeline traces: the simulator's equivalent of an Nsight profile.

Every simulated iteration produces a list of :class:`Span` records —
(stream, label, start, end) — from which the experiments derive the
quantities the paper measures from real Nsight traces: the stretched
backward duration (for γ), per-bucket communication occupancy, and the
Figure-2-style visualization in the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import SimulationError

#: Stream names used by the DDP simulator.
COMPUTE_STREAM = "compute"
COMM_STREAM = "comm"

#: Stream name for fault-window spans in iteration traces; the Perfetto
#: exporter allocates it a track automatically, so fault windows show up
#: as a third timeline row next to ``compute`` and ``comm``.
FAULT_STREAM = "faults"


@dataclass(frozen=True)
class Span:
    """One contiguous occupancy interval on a stream.

    ``bytes_on_wire`` carries the payload size a communication span
    moved (0 for compute spans); the trace exporter accumulates it into
    a Perfetto counter track and telemetry sums it per scheme.
    """

    stream: str
    label: str
    start: float
    end: float
    bytes_on_wire: float = 0.0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(
                f"span {self.label!r} ends before it starts "
                f"({self.start} -> {self.end})")
        if self.bytes_on_wire < 0:
            raise SimulationError(
                f"span {self.label!r} carries negative bytes "
                f"({self.bytes_on_wire})")

    @property
    def duration(self) -> float:
        """Seconds the span occupies its stream."""
        return self.end - self.start


@dataclass
class IterationTrace:
    """All spans of one simulated training iteration, plus key instants.

    Attributes:
        spans: Every stream occupancy interval.
        forward_end: When the forward pass finished.
        backward_end: When the last backward kernel finished.
        sync_end: When the last gradient byte was aggregated — the end of
            the paper's "gradient computation and synchronization" window.
        iteration_end: After the optimizer step.
    """

    spans: List[Span] = field(default_factory=list)
    forward_end: float = 0.0
    backward_end: float = 0.0
    sync_end: float = 0.0
    iteration_end: float = 0.0

    def add(self, span: Span) -> None:
        """Append one span (spans are kept in insertion order)."""
        self.spans.append(span)

    def stream_spans(self, stream: str) -> List[Span]:
        """Spans of one stream in start order."""
        return sorted((s for s in self.spans if s.stream == stream),
                      key=lambda s: s.start)

    def stream_busy_time(self, stream: str) -> float:
        """Total occupied seconds on a stream (spans never overlap within
        one stream by construction)."""
        return sum(s.duration for s in self.stream_spans(stream))

    def streams(self) -> List[str]:
        """Stream names in first-appearance order (span insertion order
        tracks simulation structure, so this is stable)."""
        seen: List[str] = []
        for span in self.spans:
            if span.stream not in seen:
                seen.append(span.stream)
        return seen

    def wire_bytes_total(self) -> float:
        """Total payload bytes communication spans carried."""
        return sum(s.bytes_on_wire for s in self.spans)

    def stream_overlap(self, stream_a: str, stream_b: str) -> float:
        """Seconds during which two streams are both busy.

        A sorted two-pointer sweep: within one stream spans never
        overlap (by construction), so each pair that can intersect is
        visited exactly once and the sweep is O(n + m) after sorting —
        the previous implementation compared every pair, which made
        telemetry on long multi-iteration traces quadratic.
        """
        spans_a = self.stream_spans(stream_a)
        spans_b = self.stream_spans(stream_b)
        overlap = 0.0
        i = j = 0
        while i < len(spans_a) and j < len(spans_b):
            a, b = spans_a[i], spans_b[j]
            overlap += max(0.0, min(a.end, b.end) - max(a.start, b.start))
            # Advance whichever interval ends first; the other may still
            # intersect the next span of the advanced stream.
            if a.end <= b.end:
                i += 1
            else:
                j += 1
        return overlap

    def compute_comm_overlap(self) -> float:
        """Seconds during which compute and comm streams are both busy —
        the overlap DDP exists to create."""
        return self.stream_overlap(COMPUTE_STREAM, COMM_STREAM)

    def sync_time(self) -> float:
        """The paper's per-iteration measurement: backward start (==
        forward end) to the end of gradient aggregation."""
        return self.sync_end - self.forward_end

    def render_ascii(self, width: int = 78) -> str:
        """Render the two streams as an ASCII Gantt chart (Figure 2
        style).  For humans; experiments never parse this."""
        if not self.spans:
            return "(empty trace)"
        t_max = max(s.end for s in self.spans)
        if t_max <= 0:
            return "(zero-length trace)"
        lines = []
        for stream in (COMPUTE_STREAM, COMM_STREAM):
            row = [" "] * width
            for span in self.stream_spans(stream):
                lo = int(span.start / t_max * (width - 1))
                hi = max(lo + 1, int(span.end / t_max * (width - 1)))
                mark = "#" if stream == COMPUTE_STREAM else "="
                for i in range(lo, min(hi, width)):
                    row[i] = mark
            lines.append(f"{stream:>8s} |{''.join(row)}|")
        lines.append(f"{'':>8s}  0.0{'':>{max(1, width - 16)}}{t_max * 1e3:8.1f} ms")
        return "\n".join(lines)


def estimate_gamma(distributed: IterationTrace,
                   standalone_backward_s: float) -> float:
    """The paper's §4.3 γ methodology: the ratio of the backward-pass
    duration seen in a distributed trace to the standalone backward time
    measured on one machine."""
    if standalone_backward_s <= 0:
        raise SimulationError(
            f"standalone backward time must be > 0, "
            f"got {standalone_backward_s}")
    stretched = distributed.backward_end - distributed.forward_end
    return stretched / standalone_backward_s
