"""The oracle's event queue, and the trace primitives."""

import pytest

from repro.errors import SimulationError
from repro.simulator import (
    COMM_STREAM,
    COMPUTE_STREAM,
    IterationTrace,
    Span,
    estimate_gamma,
)

from .oracle import EventQueue


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, lambda q: order.append("b"))
        queue.schedule(1.0, lambda q: order.append("a"))
        queue.schedule(3.0, lambda q: order.append("c"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        queue = EventQueue()
        order = []
        queue.schedule(1.0, lambda q: order.append("first"))
        queue.schedule(1.0, lambda q: order.append("second"))
        queue.run()
        assert order == ["first", "second"]

    def test_clock_advances(self):
        queue = EventQueue()
        seen = []
        queue.schedule(0.5, lambda q: seen.append(q.now))
        final = queue.run()
        assert seen == [0.5]
        assert final == 0.5

    def test_events_can_schedule_followups(self):
        queue = EventQueue()
        seen = []

        def first(q):
            q.schedule_after(1.0, lambda q2: seen.append(q2.now))

        queue.schedule(1.0, first)
        queue.run()
        assert seen == [2.0]

    def test_scheduling_into_past_rejected(self):
        queue = EventQueue()

        def bad(q):
            q.schedule(q.now - 1.0, lambda q2: None)

        queue.schedule(5.0, bad)
        with pytest.raises(SimulationError):
            queue.run()

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule_after(-1.0, lambda q: None)

    def test_event_budget_guard(self):
        queue = EventQueue()

        def loop(q):
            q.schedule_after(0.1, loop)

        queue.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="budget"):
            queue.run(max_events=100)

    def test_processed_count(self):
        queue = EventQueue()
        for t in range(5):
            queue.schedule(float(t), lambda q: None)
        queue.run()
        assert queue.processed == 5
        assert queue.empty()

    def test_budget_is_per_run_not_lifetime(self):
        # Regression: the guard used to compare the *lifetime* processed
        # counter against max_events, silently shrinking the budget of
        # every subsequent run() on a reused queue.
        queue = EventQueue()
        for t in range(80):
            queue.schedule(float(t), lambda q: None)
        queue.run(max_events=100)
        for t in range(80):
            queue.schedule(queue.now + float(t), lambda q: None)
        queue.run(max_events=100)  # 160 lifetime events: must not raise
        assert queue.processed == 160

    def test_budget_still_guards_within_one_run(self):
        queue = EventQueue()
        for t in range(80):
            queue.schedule(float(t), lambda q: None)
        queue.run(max_events=100)
        for t in range(120):
            queue.schedule(queue.now + float(t), lambda q: None)
        with pytest.raises(SimulationError, match="budget"):
            queue.run(max_events=100)

    def test_pending_counts_queued_events(self):
        queue = EventQueue()
        assert queue.pending == 0
        for t in range(5):
            queue.schedule(float(t), lambda q: None)
        assert queue.pending == 5
        queue.run()
        assert queue.pending == 0

    def test_budget_error_is_actionable(self):
        # A runaway loop: every callback reschedules itself.  The error
        # must say what happened (budget, backlog, virtual time) and
        # point at both likely causes — a self-rescheduling callback or
        # a legitimately large workload needing a bigger budget.
        def reschedule(q):
            q.schedule(q.now + 1.0, reschedule)

        queue = EventQueue()
        queue.schedule(0.0, reschedule)
        with pytest.raises(SimulationError) as excinfo:
            queue.run(max_events=50)
        message = str(excinfo.value)
        assert "event budget exhausted" in message
        assert "50 events" in message
        assert "still queued" in message
        assert "reschedules itself" in message
        assert "raise max_events" in message
        # The backlog it reports is live at raise time.
        assert queue.pending >= 1


class TestSpansAndTrace:
    def test_span_duration(self):
        span = Span(COMPUTE_STREAM, "fwd", 1.0, 3.5)
        assert span.duration == pytest.approx(2.5)

    def test_backwards_span_rejected(self):
        with pytest.raises(SimulationError):
            Span(COMPUTE_STREAM, "bad", 2.0, 1.0)

    def test_stream_busy_time(self):
        trace = IterationTrace()
        trace.add(Span(COMPUTE_STREAM, "a", 0.0, 1.0))
        trace.add(Span(COMPUTE_STREAM, "b", 2.0, 3.0))
        trace.add(Span(COMM_STREAM, "c", 0.0, 5.0))
        assert trace.stream_busy_time(COMPUTE_STREAM) == pytest.approx(2.0)
        assert trace.stream_busy_time(COMM_STREAM) == pytest.approx(5.0)

    def test_overlap_computation(self):
        trace = IterationTrace()
        trace.add(Span(COMPUTE_STREAM, "bwd", 0.0, 4.0))
        trace.add(Span(COMM_STREAM, "bucket", 2.0, 6.0))
        assert trace.compute_comm_overlap() == pytest.approx(2.0)

    def test_sync_time_window(self):
        trace = IterationTrace()
        trace.forward_end = 1.0
        trace.sync_end = 4.5
        assert trace.sync_time() == pytest.approx(3.5)

    def test_ascii_render_contains_streams(self):
        trace = IterationTrace()
        trace.add(Span(COMPUTE_STREAM, "fwd", 0.0, 1.0))
        trace.add(Span(COMM_STREAM, "b0", 0.5, 2.0))
        art = trace.render_ascii()
        assert "compute" in art and "comm" in art

    def test_empty_trace_renders(self):
        assert "empty" in IterationTrace().render_ascii()


class TestGammaEstimation:
    def test_gamma_from_stretched_trace(self):
        trace = IterationTrace()
        trace.forward_end = 1.0
        trace.backward_end = 3.2  # 2.2 s stretched backward
        assert estimate_gamma(trace, 2.0) == pytest.approx(1.1)

    def test_zero_standalone_rejected(self):
        with pytest.raises(SimulationError):
            estimate_gamma(IterationTrace(), 0.0)
