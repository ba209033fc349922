"""A small discrete-event simulation engine.

Deterministic: ties break by insertion order.  Used by the punt-path
outage timeline (:mod:`repro.faults.timeline`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """A discrete-event simulation was driven into an invalid state."""


class EventQueue:
    """Priority queue of (time, seq, callback) events."""

    def __init__(self):
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: Callable[[], None]) -> None:
        if time < 0:
            raise ValueError(f"negative event time {time}")
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def pop(self) -> Tuple[float, Callable[[], None]]:
        if not self._heap:
            raise SimulationError(
                "pop() on an empty event queue: no events are scheduled"
                " (check the queue with bool()/len() before popping)"
            )
        time, _, callback = heapq.heappop(self._heap)
        return time, callback

    def peek_time(self) -> float:
        if not self._heap:
            raise SimulationError(
                "peek_time() on an empty event queue: no events are scheduled"
                " (check the queue with bool()/len() before peeking)"
            )
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class Simulator:
    """Drives an :class:`EventQueue` forward in virtual time."""

    def __init__(self):
        self.queue = EventQueue()
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.queue.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self.queue.push(time, callback)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Process events until the queue drains (or ``until`` / the cap)."""
        while self.queue:
            next_time = self.queue.peek_time()
            if until is not None and next_time > until:
                self.now = until
                break
            time, callback = self.queue.pop()
            self.now = time
            callback()
            self.events_processed += 1
            if self.events_processed >= max_events:
                raise RuntimeError("event cap exceeded (runaway simulation?)")
        return self.now
