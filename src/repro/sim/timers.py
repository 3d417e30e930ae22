"""Periodic timers built on the event kernel.

Protocols use :class:`PeriodicTimer` for beacons (ABR), CSI checking
broadcasts (RICA), link monitoring (link state) and route-expiry sweeps.
The timer supports optional start jitter so that 50 nodes' beacons do not
fire in lock-step (which would be both unrealistic and maximally
collision-prone on the common channel).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle

__all__ = ["PeriodicTimer"]


class PeriodicTimer:
    """Repeatedly invoke a callback every ``interval`` seconds.

    The callback may call :meth:`stop` (directly or indirectly) to end the
    series; it may also call :meth:`reschedule` to change the interval from
    the next tick on.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
    ) -> None:
        """Create (but do not start) a periodic timer.

        Args:
            sim: the simulator to schedule on.
            interval: seconds between invocations; must be positive.
            fn: callback invoked with ``*args`` at every tick.
            start_delay: delay before the first tick; defaults to
                ``interval``.
        """
        if interval <= 0:
            raise SimulationError(f"PeriodicTimer interval must be positive, got {interval!r}")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._args = args
        self._start_delay = interval if start_delay is None else start_delay
        self._handle: Optional[EventHandle] = None
        self._running = False
        self.ticks = 0

    @property
    def running(self) -> bool:
        """True while the timer is armed."""
        return self._running

    @property
    def interval(self) -> float:
        """Current tick interval in seconds."""
        return self._interval

    def start(self) -> "PeriodicTimer":
        """Arm the timer.  Restarting a running timer resets its phase."""
        self.cancel()
        self._running = True
        self._handle = self._sim.schedule(self._start_delay, self._tick)
        return self

    def cancel(self) -> None:
        """Disarm the timer; safe to call when not running."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    stop = cancel

    def reschedule(self, interval: float) -> None:
        """Change the interval, taking effect at the next arming."""
        if interval <= 0:
            raise SimulationError(f"PeriodicTimer interval must be positive, got {interval!r}")
        self._interval = interval

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        # Re-arm before invoking so the callback can cancel or reschedule us.
        self._handle = self._sim.schedule(self._interval, self._tick)
        self._fn(*self._args)

