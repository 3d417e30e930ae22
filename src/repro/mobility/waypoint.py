"""Random-waypoint mobility (the paper's model).

Each terminal repeats: pick a uniform random destination in the field, move
to it in a straight line at a speed drawn uniformly from ``(0, max_speed]``,
pause for ``pause_time`` seconds (3 s in the paper), pick again.

Positions are *exact*: the trajectory is a lazily-extended list of linear
segments, and :meth:`RandomWaypoint.position` evaluates the segment covering
``t`` in closed form.  Segments are generated deterministically from the
model's private random stream, so out-of-order queries return identical
results.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.mobility.base import MobilityModel

__all__ = ["RandomWaypoint", "Segment"]

# Never draw a speed below this (m/s): the classic random-waypoint pitfall
# of near-zero speeds producing quasi-infinite segments.
_MIN_SPEED = 0.01


class Segment:
    """One linear leg of a trajectory (or a pause when ``a == b``).

    Zero-length-pause convention: a segment with ``t_end <= t_start`` is an
    *instantaneous* pause and always evaluates to its anchor ``a`` — the
    division in :meth:`position` is guarded, never taken.  Models rely on
    this to keep the move/pause alternation uniform even when
    ``pause_time == 0`` (every move is still followed by a pause segment,
    just a zero-length one), and the initial state of every random model is
    the zero-length pause ``Segment(0, 0, origin, origin)``.
    """

    __slots__ = ("t_start", "t_end", "a", "b")

    def __init__(self, t_start: float, t_end: float, a: Vec2, b: Vec2) -> None:
        self.t_start = t_start
        self.t_end = t_end
        self.a = a
        self.b = b

    def position(self, t: float) -> Vec2:
        """Position at ``t`` (must lie within the segment).

        Zero-length segments (``t_end <= t_start``) return ``a`` exactly;
        otherwise the anchor-form lerp ``a + (b - a) * frac``.
        """
        if self.t_end <= self.t_start:
            return self.a
        frac = (t - self.t_start) / (self.t_end - self.t_start)
        return self.a.lerp(self.b, frac)

    @property
    def is_pause(self) -> bool:
        """True if this segment is a pause at a waypoint."""
        return self.a == self.b

    @property
    def speed(self) -> float:
        """Speed along this segment in m/s (0 for pauses)."""
        if self.t_end <= self.t_start:
            return 0.0
        return self.a.distance_to(self.b) / (self.t_end - self.t_start)


class RandomWaypoint(MobilityModel):
    """The random-waypoint model with uniform speeds and fixed pauses.

    Speeds are drawn ``uniform(0, max_speed)`` and then clamped from below
    to ``_MIN_SPEED`` (0.01 m/s).  The clamp exists because the unclamped
    model is ill-posed: a draw arbitrarily close to 0 produces a travel
    segment of arbitrarily long duration, so mean speed decays over time
    and a single unlucky draw can pin a terminal mid-flight for the whole
    run (the "speed decay" pathology of naive random waypoint).  Clamping
    at 1 cm/s bounds segment duration without measurably distorting the
    paper's MAXSPEED ∈ [1, 20] m/s operating range.

    Args:
        field: the field to roam.
        rng: private random stream for this terminal.
        max_speed: MAXSPEED in m/s; speeds are ~ U(0, max_speed].  A value
            of 0 degenerates to a static terminal at the start position.
        pause_time: pause at each waypoint, seconds (paper: 3 s).
        start: optional start position; defaults to a uniform random point.
    """

    def __init__(
        self,
        field: Field,
        rng: random.Random,
        max_speed: float,
        pause_time: float = 3.0,
        start: Optional[Vec2] = None,
    ) -> None:
        if max_speed < 0:
            raise ConfigurationError(f"max_speed must be >= 0, got {max_speed}")
        if pause_time < 0:
            raise ConfigurationError(f"pause_time must be >= 0, got {pause_time}")
        self._field = field
        self._rng = rng
        self._max_speed = float(max_speed)
        self._pause = float(pause_time)
        origin = start if start is not None else field.random_point(rng)
        self._segments: List[Segment] = [Segment(0.0, 0.0, origin, origin)]
        self._starts: List[float] = [0.0]  # parallel array for bisect

    @property
    def max_speed(self) -> float:
        """Configured MAXSPEED in m/s."""
        return self._max_speed

    @property
    def speed_bound(self) -> float:
        """Fastest possible leg: ``max_speed``, or the ``_MIN_SPEED`` floor
        every draw is clamped to when ``max_speed`` is below it (0 when
        the terminal is parked)."""
        return max(self._max_speed, _MIN_SPEED) if self._max_speed > 0 else 0.0

    def position(self, t: float) -> Vec2:
        if t < 0:
            t = 0.0
        seg = self._segment_at(t)
        if seg.t_end <= seg.t_start:
            return seg.a
        return seg.position(min(max(t, seg.t_start), seg.t_end))

    def speed_at(self, t: float) -> float:
        """Speed at ``t``, with *held-frontier* end-of-trajectory semantics.

        ``max_speed == 0`` is the only way the trajectory ends: the initial
        zero-length pause stays the last segment forever, and any query at
        or past its ``t_end`` reports 0.0 (the terminal is parked).  For a
        moving terminal the trajectory is extended on demand, so the "past
        the last segment" branch is unreachable and every instant reports
        the covering segment's speed (0 during pauses).
        """
        seg = self._segment_at(t)
        if t >= seg.t_end and seg is self._segments[-1]:
            return 0.0
        return seg.speed

    def _segment_at(self, t: float) -> Segment:
        if t < 0:
            t = 0.0
        self._extend_to(t)
        idx = bisect.bisect_right(self._starts, t) - 1
        return self._segments[max(idx, 0)]

    def _extend_to(self, t: float) -> None:
        """Generate trajectory segments until they cover time ``t``."""
        if self._max_speed <= 0.0:
            return  # static: the initial zero-length pause covers all time
        last = self._segments[-1]
        while last.t_end <= t:
            last = self._next_segment(last)
            self._segments.append(last)
            self._starts.append(last.t_start)

    def _next_segment(self, last: Segment) -> Segment:
        if last.is_pause:
            # Depart: choose destination and speed.
            dest = self._field.random_point(self._rng)
            speed = max(self._rng.uniform(0.0, self._max_speed), _MIN_SPEED)
            travel = last.b.distance_to(dest) / speed
            return Segment(last.t_end, last.t_end + travel, last.b, dest)
        # Arrive: pause at the waypoint.  A zero pause still inserts an
        # instantaneous segment so the move/pause alternation is uniform.
        return Segment(last.t_end, last.t_end + self._pause, last.b, last.b)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RandomWaypoint(max_speed={self._max_speed:.1f} m/s, "
            f"pause={self._pause:.1f}s, segments={len(self._segments)})"
        )
