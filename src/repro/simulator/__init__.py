"""Cluster training simulator (the paper's testbed stand-in).

One vectorized kernel (:mod:`.batch`) computes every simulated
iteration: ``DDPSimulator.run`` evaluates a whole measurement run in
one call, and ``DDPSimulator.simulate_iteration`` evaluates a single
iteration and rebuilds its span timeline (:mod:`.reconstruct`).  The
per-iteration event loop that specifies the semantics lives in the
test suite as the kernel's oracle.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .ddp import DDPConfig, DDPSimulator, TimingResult
    from .batch import run_batch
    from .export import (
        allocate_track_ids,
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

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ddp": ("DDPConfig", "DDPSimulator", "TimingResult"),
    ".batch": ("run_batch",),
    ".export": (
        "allocate_track_ids", "run_to_events", "trace_to_chrome_json",
        "trace_to_events", "tracer_spans_to_events", "traces_to_events",
        "write_chrome_trace", "write_run_trace", "write_trace_spans",
    ),
    ".reconstruct": ("reconstruct_traces",),
    ".trace": (
        "COMM_STREAM", "COMPUTE_STREAM", "IterationTrace", "Span",
        "estimate_gamma",
    ),
})
