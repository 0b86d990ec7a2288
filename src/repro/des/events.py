"""Event primitives and the pending-event priority queue.

The queue orders events by ``(time, priority, sequence)``.  The sequence
number is a monotonically increasing tie-breaker so that two events scheduled
for the same instant and priority fire in the order they were scheduled.
This determinism is essential for reproducible protocol simulations: MAC
state machines frequently schedule several actions at a slot boundary.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from .errors import EventStateError

#: Default priority for ordinary events.
PRIORITY_NORMAL = 100
#: Priority for events that must run before normal events at the same time
#: (e.g. channel arrivals must be registered before MAC slot logic runs).
PRIORITY_HIGH = 10
#: Priority for bookkeeping that must run after normal events at a time.
PRIORITY_LOW = 1000


class Event:
    """A single scheduled callback.

    Lifecycle: *pending* -> *fired* or *cancelled*.  Cancellation is lazy:
    the heap entry stays in place and is skipped when popped.

    Attributes:
        time: Absolute simulation time at which the callback fires.
        priority: Lower values fire earlier among same-time events.
        seq: Scheduling sequence number (tie-breaker, unique per queue).
        callback: Callable invoked as ``callback(*args)`` when fired.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_state")

    _PENDING = 0
    _FIRED = 1
    _CANCELLED = 2

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._state = Event._PENDING

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return self._state == Event._PENDING

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called on a pending event."""
        return self._state == Event._CANCELLED

    @property
    def fired(self) -> bool:
        """True once the kernel has invoked the callback."""
        return self._state == Event._FIRED

    def cancel(self) -> None:
        """Cancel a pending event so the kernel will skip it.

        Cancelling an already-cancelled event is a no-op; cancelling a fired
        event raises :class:`EventStateError` because that almost always
        indicates a protocol-logic bug (acting on a handshake that already
        completed).
        """
        if self._state == Event._FIRED:
            raise EventStateError("cannot cancel an event that already fired")
        self._state = Event._CANCELLED

    def _fire(self) -> None:
        if self._state != Event._PENDING:
            raise EventStateError("event is not pending")
        self._state = Event._FIRED
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {0: "pending", 1: "fired", 2: "cancelled"}[self._state]
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} prio={self.priority} {state} {name}>"

    def _sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._sort_key() < other._sort_key()


class EventQueue:
    """Binary-heap priority queue of :class:`Event` objects.

    Heap entries are ``(time, priority, seq, event)`` tuples rather than
    the events themselves: CPython compares tuples of floats/ints entirely
    in C, and the unique ``seq`` guarantees the comparison never falls
    through to the :class:`Event` element.  On a 300 s figure cell the
    kernel performs millions of heap comparisons, so keeping them out of
    Python-level ``__lt__`` is a measurable win.

    Cancelled events are dropped lazily on pop.  The queue periodically
    compacts itself when the fraction of dead entries grows large, keeping
    memory bounded for long simulations with heavy timer cancellation
    (MAC protocols cancel most of their timeout timers).
    """

    #: Compact when more than this fraction of heap entries are cancelled.
    _COMPACT_RATIO = 0.5
    #: Never compact below this size (avoids thrashing for tiny queues).
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; return handle."""
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def push_plain(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule a *non-cancellable* callback with no Event handle.

        The heap entry is ``(time, priority, seq, None, callback, args)``
        — ``None`` in the event slot marks it always-pending.  Arrival
        begin/finish callbacks (the vast majority of all events in a dense
        network) are never cancelled, so they skip the Event allocation
        and the per-pop state checks entirely.  The unique ``seq`` keeps
        heap comparisons from ever reaching the mixed-type tail elements.
        """
        heapq.heappush(
            self._heap, (time, priority, next(self._seq), None, callback, args)
        )
        self._live += 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or None if empty.

        Handle-free entries (see :meth:`push_plain`) are materialized into
        an Event on the way out so single-step callers see one interface;
        the kernel's hot loop uses :meth:`pop_entry_until` instead, which
        never allocates.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[3]
            if event is None:
                self._live -= 1
                return Event(entry[0], entry[1], entry[2], entry[4], entry[5])
            if event._state == Event._PENDING:
                self._live -= 1
                return event
        self._live = 0
        return None

    def pop_entry_until(self, until: Optional[float]) -> Optional[Tuple]:
        """Pop the earliest pending heap entry at or before ``until``.

        Returns the raw entry tuple — ``(time, priority, seq, event)`` or
        ``(time, priority, seq, None, callback, args)`` — or None when the
        queue is drained or the next pending entry lies beyond ``until``
        (which is left in the heap).  This is the kernel's per-event
        primitive: one fused heap walk that drops cancelled entries as it
        goes, so the common case costs a single ``heappop`` and two
        attribute compares with no peek/pop double scan.
        """
        heap = self._heap
        pending = Event._PENDING
        while heap:
            head = heap[0]
            event = head[3]
            if event is None or event._state == pending:
                if until is not None and head[0] > until:
                    return None
                self._live -= 1
                return heapq.heappop(heap)
            heapq.heappop(heap)
        self._live = 0
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest pending event, if any."""
        heap = self._heap
        pending = Event._PENDING
        while heap:
            event = heap[0][3]
            if event is None or event._state == pending:
                return heap[0][0]
            heapq.heappop(heap)
        self._live = 0
        return None

    def note_cancelled(self) -> None:
        """Inform the queue that one live entry was cancelled externally.

        :class:`Event.cancel` does not know its owning queue, so the
        simulator calls this to keep the live count accurate and trigger
        compaction.
        """
        if self._live > 0:
            self._live -= 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        dead = len(self._heap) - self._live
        if (
            len(self._heap) > self._COMPACT_MIN
            and dead > len(self._heap) * self._COMPACT_RATIO
        ):
            self._heap = [
                entry
                for entry in self._heap
                if entry[3] is None or entry[3].pending
            ]
            heapq.heapify(self._heap)

    def clear(self) -> None:
        """Drop every pending event (used on simulator reset)."""
        self._heap.clear()
        self._live = 0
