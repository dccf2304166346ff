"""Tests for simulation events and the event queue."""

import pytest

from repro.errors import SimulationError
from repro.simulator import EventQueue, OriginUpdateEvent, RequestEvent


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(RequestEvent(5.0, 1, 0))
        q.push(RequestEvent(1.0, 2, 0))
        q.push(RequestEvent(3.0, 3, 0))
        times = [q.pop().timestamp_ms for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_updates_before_requests_at_same_time(self):
        q = EventQueue()
        q.push(RequestEvent(2.0, 1, 0))
        q.push(OriginUpdateEvent(2.0, 0))
        first = q.pop()
        assert isinstance(first, OriginUpdateEvent)

    def test_insertion_order_tiebreak(self):
        q = EventQueue()
        a = RequestEvent(1.0, 1, 0)
        b = RequestEvent(1.0, 2, 0)
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        q.push(RequestEvent(1.0, 1, 0))
        assert q
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(RequestEvent(4.0, 1, 0))
        assert q.peek_time() == 4.0

    def test_no_scheduling_into_past(self):
        q = EventQueue()
        q.push(RequestEvent(5.0, 1, 0))
        q.pop()
        with pytest.raises(SimulationError):
            q.push(RequestEvent(4.0, 1, 0))

    def test_scheduling_at_current_time_allowed(self):
        q = EventQueue()
        q.push(RequestEvent(5.0, 1, 0))
        q.pop()
        q.push(RequestEvent(5.0, 1, 0))
        assert q.pop().timestamp_ms == 5.0

    def test_negative_timestamp_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push(RequestEvent(-1.0, 1, 0))


class TestNowMs:
    """Regression tests: ``now_ms`` before any pop used to be -inf."""

    def test_empty_queue_is_time_zero(self):
        assert EventQueue().now_ms == 0.0

    def test_pushed_but_never_popped_is_time_zero(self):
        q = EventQueue()
        q.push(RequestEvent(5.0, 1, 0))
        assert q.now_ms == 0.0

    def test_tracks_last_pop(self):
        q = EventQueue()
        q.push(RequestEvent(5.0, 1, 0))
        q.push(RequestEvent(2.0, 1, 0))
        q.pop()
        assert q.now_ms == 2.0
        q.pop()
        assert q.now_ms == 5.0

    def test_exhausted_queue_keeps_final_time(self):
        q = EventQueue()
        q.push(RequestEvent(7.0, 1, 0))
        q.pop()
        assert q.now_ms == 7.0
