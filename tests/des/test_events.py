"""Unit tests for the event queue."""

import pytest

from repro.des.errors import EventStateError
from repro.des.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, fired.append, ("c",))
    q.push(1.0, fired.append, ("a",))
    q.push(2.0, fired.append, ("b",))
    while True:
        event = q.pop()
        if event is None:
            break
        event._fire()
    assert fired == ["a", "b", "c"]


def test_same_time_orders_by_priority_then_sequence():
    q = EventQueue()
    fired = []
    q.push(1.0, fired.append, ("normal-1",), priority=PRIORITY_NORMAL)
    q.push(1.0, fired.append, ("low",), priority=PRIORITY_LOW)
    q.push(1.0, fired.append, ("high",), priority=PRIORITY_HIGH)
    q.push(1.0, fired.append, ("normal-2",), priority=PRIORITY_NORMAL)
    order = []
    while (event := q.pop()) is not None:
        order.append(event)
        event._fire()
    assert fired == ["high", "normal-1", "normal-2", "low"]


def test_cancel_skips_event():
    q = EventQueue()
    fired = []
    keep = q.push(1.0, fired.append, ("keep",))
    drop = q.push(0.5, fired.append, ("drop",))
    drop.cancel()
    q.note_cancelled()
    while (event := q.pop()) is not None:
        event._fire()
    assert fired == ["keep"]
    assert drop.cancelled and not drop.fired
    assert keep.fired


def test_cancel_fired_event_raises():
    q = EventQueue()
    q.push(0.0, lambda: None)
    popped = q.pop()
    popped._fire()
    with pytest.raises(EventStateError):
        popped.cancel()


def test_len_tracks_live_events():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(10)]
    assert len(q) == 10
    for event in events[:4]:
        event.cancel()
        q.note_cancelled()
    assert len(q) == 6
    q.pop()
    assert len(q) == 5


def test_peek_time_skips_cancelled():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    first.cancel()
    q.note_cancelled()
    assert q.peek_time() == 2.0


def test_compaction_keeps_pending_events():
    q = EventQueue()
    keepers = [q.push(1000.0 + i, lambda: None) for i in range(10)]
    for _ in range(20):
        victims = [q.push(float(i), lambda: None) for i in range(50)]
        for v in victims:
            v.cancel()
            q.note_cancelled()
    assert len(q) == 10
    times = []
    while (event := q.pop()) is not None:
        times.append(event.time)
    assert times == sorted(e.time for e in keepers)


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.pop() is None
