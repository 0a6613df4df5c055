"""The discrete-event loop.

The environment keeps a priority queue of ``(time, priority, sequence, event)``
tuples.  Ties on time are broken first by an explicit priority (interrupts use
a higher urgency than normal events) and then by insertion order, which makes
runs fully deterministic.

Time is a plain number.  The Bluetooth layers of this project use integer
microseconds so that the 625 us slot grid is exact, but the engine itself is
unit-agnostic.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Tuple

from repro.sim.events import Event, Process, Timeout

#: Scheduling priority used for urgent events (interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at an event."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event.ok:
            raise cls(event.value)
        raise event.value


class EmptySchedule(Exception):
    """Raised when the event queue runs dry before the requested time."""


class Environment:
    """Execution environment of a simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0``).
    """

    def __init__(self, initial_time: float = 0):
        self._now = initial_time
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- clock --------------------------------------------------------------
    @property
    def now(self):
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (``None`` between events)."""
        return self._active_process

    # -- event creation -------------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> Event:
        from repro.sim.events import AllOf

        return AllOf(self, events)

    def any_of(self, events) -> Event:
        from repro.sim.events import AnyOf

        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def _schedule(self, event: Event, delay=0, priority: int = NORMAL) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._eid, event))
        self._eid += 1

    def peek(self):
        """Time of the next scheduled event (``inf`` if none)."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If there are no scheduled events left.
        """
        try:
            when, _prio, _eid, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        if when < self._now:  # pragma: no cover - defensive
            raise RuntimeError("event scheduled in the past")
        self._now = when

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Unhandled failure: abort the run loudly.
            raise event._value

    def run(self, until=None) -> Any:
        """Run until ``until``.

        ``until`` may be ``None`` (run until the queue is empty), a number
        (run until the clock reaches that time) or an :class:`Event` (run
        until the event is processed; its value is returned).
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event.value
                stop_event.callbacks.append(StopSimulation.callback)
            else:
                if until < self._now:
                    raise ValueError(
                        f"until={until!r} lies in the past (now={self._now!r})")
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                # NORMAL priority so that events scheduled for exactly
                # `until` before run() was called are still executed.
                self._schedule(stop_event, delay=until - self._now)
                stop_event.callbacks.append(StopSimulation.callback)

        try:
            while True:
                self.step()
        except StopSimulation as exc:
            return exc.args[0]
        except EmptySchedule:
            if stop_event is not None and not stop_event.processed:
                if isinstance(until, Event):
                    raise RuntimeError(
                        "run(until=event): event was never triggered")
            return None
