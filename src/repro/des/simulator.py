"""The discrete-event simulator core.

:class:`Simulator` advances a virtual clock from event to event.  Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and may cancel the returned
:class:`~repro.des.events.Event` handle at any point before it fires.

The kernel is deliberately callback-based rather than coroutine-based: MAC
state machines are clearer as explicit states plus timer callbacks, and a
callback core is ~3x faster than generator trampolining in CPython, which
matters when a single figure sweep runs hundreds of 300-second network
simulations.  A thin generator-process adapter is provided in
:mod:`repro.des.process` for components that read better as sequential code
(e.g. traffic sources).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import gc as _gc
import time as _time

from .errors import SchedulingError, SimulationStopped, WallClockExceeded
from .events import Event, EventQueue, PRIORITY_NORMAL
from .rng import RandomStreams
from .trace import NullTracer, Tracer


class Simulator:
    """Event-driven virtual-time simulator.

    Args:
        seed: Root seed for all random streams (see :class:`RandomStreams`).
        tracer: Optional :class:`Tracer`; defaults to a no-op tracer.

    Attributes:
        now: Current simulation time in seconds.
        streams: Named deterministic RNG registry.
        trace: The tracer (never None; may be a :class:`NullTracer`).
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None) -> None:
        self.now: float = 0.0
        self.streams = RandomStreams(seed)
        self.trace = tracer if tracer is not None else NullTracer()
        self._queue = EventQueue()
        #: Bound fast-path scheduler: ``push_at(time, callback, args_tuple,
        #: priority=PRIORITY_NORMAL)`` — :meth:`EventQueue.push_plain`
        #: without the :meth:`schedule_at` validation frame and without an
        #: Event handle (the entry cannot be cancelled).  For hot callers
        #: (the channel fan-out, arrival completion) whose times are
        #: already known to be >= ``now`` and who never cancel; everything
        #: else should keep using :meth:`schedule` / :meth:`schedule_at`.
        self.push_at = self._queue.push_plain
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Wall-clock seconds spent inside :meth:`run` (perf instrumentation).
        self.wall_time_s: float = 0.0
        self._wall_deadline: Optional[float] = None

    def __getstate__(self) -> dict:
        """Pickle support for checkpoint/resume.

        The wall-clock deadline is an *absolute* ``time.monotonic`` value,
        which is meaningless in another process (or even later in this
        one), so a snapshot never carries it: the restoring side re-arms
        its own budget via :meth:`set_wall_deadline` if it wants one.
        """
        state = self.__dict__.copy()
        state["_wall_deadline"] = None
        return state

    # ------------------------------------------------------------------
    # Wall-clock budget (cooperative per-run timeout)
    # ------------------------------------------------------------------
    #: How many events to process between wall-clock checks; a power of
    #: two so the modulo compiles to a mask.  Checking every event would
    #: put a syscall on the hot path.
    _WALL_CHECK_EVERY = 4096

    def set_wall_deadline(self, budget_s: Optional[float]) -> None:
        """Arm (or clear, with None) a real-time budget for :meth:`run`.

        Once armed, :meth:`run` raises :class:`WallClockExceeded` the next
        time it notices ``budget_s`` seconds of wall-clock time have
        elapsed.  The check is cooperative (every ``_WALL_CHECK_EVERY``
        events), so overshoot is bounded by the cost of that many events.
        The deadline survives across multiple :meth:`run` calls — it is a
        budget for the whole scenario, not one run window.
        """
        if budget_s is None:
            self._wall_deadline = None
        else:
            self._wall_deadline = _time.monotonic() + float(budget_s)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time!r}, current time is {self.now!r}"
            )
        return self._queue.push(time, callback, args, priority)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel an event if it is still pending (None and fired are no-ops).

        This is the preferred cancellation path: it keeps the queue's live
        count accurate, enabling heap compaction.
        """
        if event is not None and event.pending:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events in time order.

        Args:
            until: Stop once the clock would pass this time; the clock is
                then set exactly to ``until``.  If None, run until the event
                queue drains or :meth:`stop` is called.

        Returns:
            The simulation time at which the run ended.
        """
        self._running = True
        self._stopped = False
        # Hot loop: one fused pop per event (see EventQueue.pop_entry_until),
        # the firing state flip and callback inlined rather than dispatched
        # through Event._fire, and the wall-clock gate a plain countdown —
        # the per-event kernel overhead is one heappop plus bookkeeping.
        pop_entry_until = self._queue.pop_entry_until
        fired = Event._FIRED
        check_every = self._WALL_CHECK_EVERY
        countdown = check_every
        events_processed = 0
        # Pause the cyclic collector for the duration of the loop: the hot
        # allocations (events, heap tuples, arrivals, frames) are acyclic
        # and die by refcount, so generational scans only add per-event
        # overhead.  The caller's collector state is restored on exit.
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        wall_start = _time.perf_counter()
        try:
            while True:
                entry = pop_entry_until(until)
                if entry is None:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                self.now = entry[0]
                events_processed += 1
                countdown -= 1
                if countdown == 0:
                    countdown = check_every
                    if (
                        self._wall_deadline is not None
                        and _time.monotonic() > self._wall_deadline
                    ):
                        self.events_processed += events_processed
                        events_processed = 0
                        raise WallClockExceeded(
                            f"wall-clock budget exhausted at t={self.now:.3f}s "
                            f"({self.events_processed} events)"
                        )
                event = entry[3]
                if event is None:
                    entry[4](*entry[5])
                else:
                    event._state = fired
                    event.callback(*event.args)
                if self._stopped:
                    break
        except SimulationStopped:
            pass
        finally:
            self._running = False
            self.events_processed += events_processed
            self.wall_time_s += _time.perf_counter() - wall_start
            if gc_was_enabled:
                _gc.enable()
        return self.now

    def step(self) -> bool:
        """Process exactly one event; return False if the queue was empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self.now = event.time
        self.events_processed += 1
        event._fire()
        return True

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after this event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled, unfired) events in the queue."""
        return len(self._queue)

    @property
    def events_per_second(self) -> float:
        """Observed kernel throughput: events processed per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.events_processed / self.wall_time_s

    def reset(self, seed: Optional[int] = None) -> None:
        """Clear the queue and clock for reuse; optionally reseed streams."""
        self._queue.clear()
        self.now = 0.0
        self.events_processed = 0
        self.wall_time_s = 0.0
        self._stopped = False
        self._wall_deadline = None
        if seed is not None:
            self.streams = RandomStreams(seed)
