"""The discrete-event simulator.

A :class:`Simulator` owns a binary-heap event queue and the simulation
clock.  Components schedule callbacks with :meth:`Simulator.schedule`
(relative delay) or :meth:`Simulator.schedule_at` (absolute time) and the
kernel fires them in ``(time, sequence)`` order, so same-time events run in
the order they were scheduled — a property several protocol state machines
rely on and the test suite pins down.

The :meth:`Simulator.run` loop drains contiguous *same-timestamp* batches
in one sweep: the clock is written and the ``until`` bound checked once
per distinct timestamp rather than once per event, which matters during
flood storms where one transmission completion fans out into dozens of
receptions at the same instant.  Firing order is byte-identical to the
one-event-at-a-time loop (the ``(time, seq)`` contract is unchanged; see
``tests/test_engine.py`` and the differential pipeline tests).

Per-event-kind counters (:attr:`Simulator.event_kind_counts`, keyed by the
callback's qualified name) make the event mix observable, so a flood storm
shows up as a spike of ``CsmaMac._complete`` / ``CsmaMac._attempt``
entries instead of an opaque events-processed total.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.events import EventHandle

__all__ = ["Simulator"]


class Simulator:
    """Event-driven simulation kernel.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, fired.append, "a")
        >>> _ = sim.schedule(0.5, fired.append, "b")
        >>> sim.run(until=10.0)
        >>> fired
        ['b', 'a']
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[EventHandle] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        # Fired-event tally keyed by the callback's underlying function
        # object (identity hash — cheaper per event than string keys);
        # resolved to qualified names on read via event_kind_counts.
        self._kind_counts: Dict[Any, int] = {}

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (for diagnostics and tests)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queue entries, including lazily-cancelled ones."""
        return len(self._queue)

    @property
    def event_kind_counts(self) -> Dict[str, int]:
        """Fired-event tally by callback qualified name (diagnostic).

        Lets experiments see *what* a run spent its events on — a flood
        storm shows up as a spike of MAC completion/attempt entries.
        Aggregated lazily from function-object keys, so the per-event cost
        in the run loop is one identity-keyed dict update.
        """
        counts: Dict[str, int] = {}
        for fn, n in self._kind_counts.items():
            kind = getattr(fn, "__qualname__", None) or type(fn).__name__
            counts[kind] = counts.get(kind, 0) + n
        return counts

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Args:
            delay: non-negative delay in seconds.  A delay of 0 runs the
                callback after all events already scheduled for the current
                instant.
            fn: the callback.
            *args: positional arguments passed to the callback.

        Returns:
            An :class:`EventHandle` that can cancel the event.

        Raises:
            SimulationError: if ``delay`` is negative or not a number.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if not (time >= self._now):  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event at t={time!r} (now={self._now!r}): time is in the past"
            )
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args)
        heapq.heappush(self._queue, handle)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or ``stop()``.

        Args:
            until: if given, stop once the next event would fire strictly
                after this time; the clock is then advanced to ``until`` so
                that ``sim.now == until`` holds after the call.
            max_events: optional safety valve; raise SimulationError as
                soon as a ``max_events + 1``-th event *would* fire —
                checked before firing, so at most ``max_events`` events
                ever run (guards against runaway loops in tests).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        queue = self._queue
        kinds = self._kind_counts
        try:
            while queue:
                head = queue[0]
                if head.cancelled:
                    heapq.heappop(queue)
                    continue
                if until is not None and head.time > until:
                    break
                if self._stopped:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                # Same-timestamp batch: advance the clock and check the
                # ``until`` bound once, then drain every contiguous event
                # at this instant with one heap pop each.  Events a batch
                # member schedules at the *same* instant land behind the
                # batch in ``(time, seq)`` order and are picked up by the
                # next sweep — identical to the one-at-a-time loop.  Every
                # max_events probe happens before the clock moves or the
                # next event pops, so on SimulationError ``now`` still
                # points at the last *fired* event.
                batch_time = head.time
                self._now = batch_time
                while True:
                    heapq.heappop(queue)
                    fn = head._fn
                    key = getattr(fn, "__func__", fn)
                    kinds[key] = kinds.get(key, 0) + 1
                    head._fire()
                    self._events_processed += 1
                    fired += 1
                    if self._stopped:
                        break
                    # Sweep cancelled entries at this instant, then either
                    # continue the batch or fall back to the outer loop.
                    while queue and queue[0].time == batch_time and queue[0].cancelled:
                        heapq.heappop(queue)
                    if not queue or queue[0].time != batch_time:
                        break
                    if max_events is not None and fired >= max_events:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    head = queue[0]
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Fire exactly one pending event.

        Returns False without firing if the queue is empty or
        :meth:`stop` has been requested (``run()`` clears the stop flag
        when it next starts).  Uses the same lazy-cancel sweep as
        :meth:`peek_time`, so ``step()`` and ``run()`` always agree on
        which event is next.
        """
        if self._stopped:
            return False
        if self.peek_time() is None:
            return False
        head = heapq.heappop(self._queue)
        self._now = head.time
        fn = head._fn
        key = getattr(fn, "__func__", fn)
        kinds = self._kind_counts
        kinds[key] = kinds.get(key, 0) + 1
        head._fire()
        self._events_processed += 1
        return True

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self._now:.6f}, pending={len(self._queue)})"
