"""Discrete-event engine.

The datacenter-level experiments (Figures 12 and 13) and the kernel
messaging layer are discrete-event simulations.  Events are ordered by
(time, priority, sequence-number): simultaneous events fire lowest
priority first, and equal priorities in submission order, which keeps
runs deterministic.
"""

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.clock import Clock


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, seq)``; the payload is excluded
    from the ordering so arbitrary callables can be scheduled.
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], Any] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True


class EventQueue:
    """A priority queue of :class:`Event` objects, kept as a heap of
    ``(time, priority, seq, event)`` tuples (compared in C)."""

    def __init__(self):
        self._heap: list[tuple] = []
        self._seq = 0

    def __len__(self) -> int:
        return sum(1 for *_, e in self._heap if not e.cancelled)

    def push(self, time: float, action: Callable[[], Any], name: str = "",
             priority: int = 0) -> Event:
        """Schedule ``action`` at ``time``.

        Same-time events pop by ``priority`` (lowest first), then in
        submission order; the default priority 0 keeps plain
        ``(time, seq)`` order.
        """
        seq = self._seq
        event = Event(time, priority, seq, action, name)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Return the earliest live event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or None if the queue is empty."""
        head = self.peek()
        return None if head is None else head.time

    def peek(self) -> Optional[Event]:
        """Return (without removing) the earliest live event."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if not event.cancelled:
                return event
            heapq.heappop(heap)  # drop cancelled events off the top
        return None

    def pop_due(self, deadline: float) -> Optional[Event]:
        """Pop the earliest live event with ``time <= deadline``.

        Returns ``None`` when the queue is empty or the head event is
        still in the future — the caller's loop terminates without
        having to compare times itself.  This is the primitive the
        cluster's run loop uses to drain everything due "now".
        """
        head = self.peek()
        if head is None or head.time > deadline:
            return None
        return self.pop()


class Simulator:
    """Drives a :class:`Clock` through an :class:`EventQueue`.

    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.at(1.5, lambda: hits.append(sim.now))
    >>> sim.run()
    >>> hits
    [1.5]
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else Clock()
        self.queue = EventQueue()

    @property
    def now(self) -> float:
        """Current simulated time (the clock's reading)."""
        return self.clock.now

    def at(self, time: float, action: Callable[[], Any], name: str = "",
           priority: int = 0) -> Event:
        """Schedule ``action`` at absolute time ``time`` (see
        :meth:`EventQueue.push` for ``priority``)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.queue.push(time, action, name, priority)

    def after(self, delay: float, action: Callable[[], Any], name: str = "") -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        return self.at(self.now + delay, action, name)

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.action()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run events until the queue drains or ``until`` is reached."""
        for _ in range(max_events):
            next_time = self.queue.peek_time()
            if next_time is None:
                return
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                return
            self.step()
        raise RuntimeError(f"simulation exceeded {max_events} events")
