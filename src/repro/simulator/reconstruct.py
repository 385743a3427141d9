"""Event-identical trace reconstruction from the batch kernel.

The vectorized kernel computes iteration *instants*, not spans.  But
every span boundary of the discrete-event spec (the event-loop oracle
in the test suite) — bucket pipeline starts and
ends, encode/decode instants, wave schedules, retransmit penalties,
optimizer starts — is an intermediate array the kernel already
materializes.  This module asks the kernel to record those
intermediates (the ``record`` dict of
:data:`repro.simulator.batch.Kernel`) and reassembles them into
:class:`~repro.simulator.trace.IterationTrace` objects.

Reconstruction is *exact*, not approximate: the kernel replays the
event loop's RNG draw order and floating-point operation order
bit-for-bit (the invariant ``tests/test_batch_equivalence.py`` pins),
and the assembly below replicates the event loop's span insertion
order, labels, byte accounting and edge cases (zero-length bucket
spans at world size 1, suppressed wave/aggregate spans, retransmits
only when a delay materialized).  ``tests/test_trace_reconstruction.py``
asserts span-for-span float equality against the event loop across
schemes, world sizes, algorithms, and fault schedules.

:meth:`DDPSimulator.simulate_iteration` is :func:`trace_from_record`
over a one-row kernel call, plus the side effects of a stepped
iteration.  :func:`reconstruct_traces` is pure: it never records
metrics, never advances injector run counters, and never mutates the
simulator — it can run after (or instead of) a ``run()`` without
disturbing its telemetry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError
from .batch import MAX_ITERATIONS, _FaultRows, _evaluate
from .ddp import DDPSimulator
from .trace import (
    COMM_STREAM,
    COMPUTE_STREAM,
    FAULT_STREAM,
    IterationTrace,
    Span,
)

if TYPE_CHECKING:
    from ..faults import IterationFaults


def reconstruct_traces(sim: DDPSimulator,
                       batch_size: Optional[int] = None,
                       iterations: int = 1,
                       seed: int = 0) -> List[IterationTrace]:
    """Traces for iterations ``0 .. iterations-1`` from one kernel call.

    Bit-identical to::

        rng = np.random.default_rng(seed)
        [sim.simulate_iteration(batch_size, rng, iteration=i)
         for i in range(iterations)]

    but computed in one kernel call (one RNG call, one array pass),
    and side-effect free.

    Raises:
        ConfigurationError: for a non-positive iteration count.
        OutOfMemoryError: the deterministic OOM of the memory check,
            raised before simulating anything.
    """
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ConfigurationError(
            f"iterations must be in [1, {MAX_ITERATIONS}], got {iterations}")
    bs = (batch_size if batch_size is not None
          else sim.model.default_batch_size)
    record: Dict[str, Any] = {}
    _evaluate([sim], bs, iterations, (seed,), record=record)
    return [trace_from_record(record, i) for i in range(iterations)]


def trace_from_record(record: Dict[str, Any], i: int) -> IterationTrace:
    """Iteration ``i``'s trace from a single-member kernel ``record``.

    ``record`` is what :func:`~repro.simulator.batch.run_batch_many` (or
    the kernel under :func:`reconstruct_traces`) filled in for one
    simulator; iteration ``i`` is its row ``i``.
    """
    resolved = record["resolved"]
    state = resolved.states[i] if resolved is not None else None
    trace = _ASSEMBLERS[record["path"]](i, record, record["rows"], state)
    if state is not None and state.active:
        # One fault-window span per iteration on a dedicated stream: the
        # Perfetto export shows exactly when the cluster was degraded,
        # next to compute and comm.
        trace.add(Span(FAULT_STREAM, "+".join(state.active),
                       0.0, trace.iteration_end))
    return trace


def _begin(trace: IterationTrace,
           state: Optional[IterationFaults]) -> float:
    """The crash-recovery stall span (when any) comes first; returns
    the instant compute may begin."""
    if state is None or state.stall_s <= 0:
        return 0.0
    trace.add(Span(FAULT_STREAM, state.stall_label or "recovery",
                   0.0, state.stall_s))
    return state.stall_s


def _finish(trace: IterationTrace, i: int, rec: Dict[str, Any]) -> None:
    """The optimizer span and closing instants, from recorded
    instants."""
    opt_start = float(rec["opt_start"][i])
    iter_end = float(rec["iter_end"][i])
    trace.add(Span(COMPUTE_STREAM, "optimizer", opt_start, iter_end))
    trace.sync_end = float(rec["sync_end"][i])
    trace.iteration_end = iter_end


def _assemble_baseline(i: int, rec: Dict[str, Any], F: _FaultRows,
                       state: Optional[IterationFaults]) -> IterationTrace:
    trace = IterationTrace()
    t0 = _begin(trace, state)
    fwd_end = float(rec["fwd_end"][i])
    trace.add(Span(COMPUTE_STREAM, "forward", t0, fwd_end))
    trace.forward_end = fwd_end
    backward_end = float(rec["backward_end"][i])
    trace.add(Span(COMPUTE_STREAM, "backward", fwd_end, backward_end))
    trace.backward_end = backward_end
    p = int(F.p[i])
    wire_scale = float(rec["wire_row"][i])
    sizes = rec["bucket_sizes"]
    for k in range(sizes.size):
        start = float(rec["bucket_start"][i, k])
        end = float(rec["bucket_end"][i, k])
        payload = float(sizes[k]) * wire_scale
        trace.add(Span(COMM_STREAM, f"bucket{k}", start, end,
                       bytes_on_wire=payload if p > 1 else 0.0))
        delay = float(rec["delays"][i, k])
        if delay > 0:
            trace.add(Span(COMM_STREAM, f"retransmit{k}", end, end + delay,
                           bytes_on_wire=payload
                           * int(rec["replays"][i, k])))
    hook_term = rec["hook_term"]
    if hook_term is not None and float(hook_term[i]) > 0:
        trace.add(Span(COMPUTE_STREAM, "bucket-cast",
                       float(rec["sync_pre_hook"][i]),
                       float(rec["sync_end"][i])))
    _finish(trace, i, rec)
    return trace


def _assemble_sequential(i: int, rec: Dict[str, Any], F: _FaultRows,
                         state: Optional[IterationFaults],
                         ) -> IterationTrace:
    trace = IterationTrace()
    t0 = _begin(trace, state)
    fwd_end = float(rec["fwd_end"][i])
    trace.add(Span(COMPUTE_STREAM, "forward", t0, fwd_end))
    trace.forward_end = fwd_end
    backward_end = float(rec["backward_end"][i])
    trace.add(Span(COMPUTE_STREAM, "backward", fwd_end, backward_end))
    trace.backward_end = backward_end
    encode_end = float(rec["encode_end"][i])
    trace.add(Span(COMPUTE_STREAM, "encode", backward_end, encode_end))
    comm = float(rec["comm"][i])
    wire = float(rec["wire_row"][i])
    if comm > 0:
        agg_end = float(rec["agg_end"][i])
        trace.add(Span(COMM_STREAM, "aggregate", encode_end, agg_end,
                       bytes_on_wire=wire))
        delay = float(rec["delays"][i, 0])
        if delay > 0:
            trace.add(Span(COMM_STREAM, "retransmit", agg_end,
                           agg_end + delay,
                           bytes_on_wire=wire
                           * int(rec["replays"][i, 0])))
    comm_end = float(rec["comm_end"][i])
    trace.add(Span(COMPUTE_STREAM, "decode", comm_end,
                   float(rec["sync_end"][i])))
    _finish(trace, i, rec)
    return trace


def _assemble_overlapped(i: int, rec: Dict[str, Any], F: _FaultRows,
                         state: Optional[IterationFaults],
                         ) -> IterationTrace:
    trace = IterationTrace()
    t0 = _begin(trace, state)
    fwd_end = float(rec["fwd_end"][i])
    trace.add(Span(COMPUTE_STREAM, "forward", t0, fwd_end))
    trace.forward_end = fwd_end
    compute_end = float(rec["backward_end"][i])
    trace.add(Span(COMPUTE_STREAM, "backward+encode", fwd_end, compute_end))
    trace.backward_end = compute_end
    if int(F.p[i]) > 1:
        waves = rec["waves"]
        wire = float(rec["wire_row"][i])
        for w in range(waves):
            start = float(rec["wave_start"][i, w])
            end = float(rec["wave_end"][i, w])
            trace.add(Span(COMM_STREAM, f"wave{w}", start, end,
                           bytes_on_wire=wire / waves))
            delay = float(rec["delays"][i, w])
            if delay > 0:
                trace.add(Span(COMM_STREAM, f"retransmit{w}", end,
                               end + delay,
                               bytes_on_wire=wire / waves
                               * int(rec["replays"][i, w])))
    trace.add(Span(COMPUTE_STREAM, "decode", float(rec["decode_start"][i]),
                   float(rec["sync_end"][i])))
    _finish(trace, i, rec)
    return trace


#: Span assembly per execution path, keyed by the kernel's ``path``.
_ASSEMBLERS = {
    "baseline": _assemble_baseline,
    "sequential": _assemble_sequential,
    "overlapped": _assemble_overlapped,
}
