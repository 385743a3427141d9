"""Discrete-event cluster training simulator (the paper's testbed stand-in).

``DDPSimulator.run`` computes a whole measurement run in one
vectorized kernel (:mod:`.batch`);
``DDPSimulator.simulate_iteration`` is the per-iteration event loop
(:mod:`.ddp`) that specifies the semantics, draws single-iteration
traces, and serves as the kernel's test oracle.
"""

from .ddp import DDPConfig, DDPSimulator, TimingResult
from .events import EventQueue
from .batch import run_batch
from .export import (
    allocate_track_ids,
    events_to_chrome_json,
    run_to_events,
    trace_to_chrome_json,
    trace_to_events,
    tracer_spans_to_events,
    traces_to_events,
    write_chrome_trace,
    write_run_trace,
    write_trace_spans,
)
from .reconstruct import reconstruct_traces
from .trace import (
    COMM_STREAM,
    COMPUTE_STREAM,
    IterationTrace,
    Span,
    estimate_gamma,
)

__all__ = [
    "EventQueue", "Span", "IterationTrace", "estimate_gamma",
    "COMPUTE_STREAM", "COMM_STREAM",
    "DDPConfig", "DDPSimulator", "TimingResult",
    "run_batch",
    "trace_to_events", "traces_to_events", "run_to_events",
    "allocate_track_ids", "events_to_chrome_json",
    "trace_to_chrome_json", "write_chrome_trace", "write_run_trace",
    "tracer_spans_to_events", "write_trace_spans", "reconstruct_traces",
]
