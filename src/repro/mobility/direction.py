"""Random-direction mobility (extension beyond the paper).

The random-waypoint model is known to concentrate terminals near the field
centre; the random-direction model avoids that bias: each terminal picks a
uniform heading and speed, travels until it hits the field boundary,
pauses, then picks a new heading.  Offered as an extension so the
sensitivity of the paper's results to the mobility model can be studied
(see ``benchmarks/test_ablation_mobility.py``).

Boundary-handling rule (explicit, because every variant in the literature
differs here): a leg always ends *on* the field boundary — the destination
is the first intersection of the heading ray with the rectangle's edges,
computed by :func:`boundary_hit` and clamped onto the field.  There is no
reflection, wrap-around, or in-field leg truncation.  After the pause the
next heading is drawn uniformly from ``[0, 2π)`` regardless of which edge
the terminal sits on; if that heading points *outward* (zero travel
distance), the heading is flipped by π and re-aimed once, with the travel
time floored at 1 µs so the segment is never degenerate.  Consequently
terminals touch edges often but never leave ``[0, width] x [0, height]``.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.errors import ConfigurationError
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.mobility.base import MobilityModel
from repro.mobility.waypoint import Segment

__all__ = ["RandomDirection", "boundary_hit"]

_MIN_SPEED = 0.01


def boundary_hit(field: Field, origin: Vec2, heading: float) -> Vec2:
    """First intersection of a heading ray with the field boundary.

    Degenerate rays — starting on an edge and pointing outward, or
    axis-parallel along an edge — return ``origin`` unchanged; the caller
    re-aims.
    """
    dx, dy = math.cos(heading), math.sin(heading)
    best = math.inf
    if dx > 1e-12:
        best = min(best, (field.width - origin.x) / dx)
    elif dx < -1e-12:
        best = min(best, -origin.x / dx)
    if dy > 1e-12:
        best = min(best, (field.height - origin.y) / dy)
    elif dy < -1e-12:
        best = min(best, -origin.y / dy)
    if not math.isfinite(best) or best < 0:
        return origin
    return field.clamp(Vec2(origin.x + dx * best, origin.y + dy * best))


class RandomDirection(MobilityModel):
    """Travel on a uniform heading to the boundary, pause, repeat.

    See the module docstring for the exact boundary-handling rule.  Speeds
    are ``uniform(0, max_speed)`` clamped to ``_MIN_SPEED`` for the same
    speed-decay reason documented on :class:`RandomWaypoint`.
    """

    def __init__(
        self,
        field: Field,
        rng: random.Random,
        max_speed: float,
        pause_time: float = 3.0,
        start: Vec2 = None,
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

    @property
    def max_speed(self) -> float:
        """Configured maximum speed in m/s."""
        return self._max_speed

    def position(self, t: float) -> Vec2:
        if t < 0:
            t = 0.0
        self._extend_to(t)
        # Linear scan from the back: queries are usually near the frontier.
        for seg in reversed(self._segments):
            if seg.t_start <= t:
                if seg.t_end <= seg.t_start:
                    return seg.a
                return seg.position(min(t, seg.t_end))
        return self._segments[0].a  # pragma: no cover - defensive

    def speed_at(self, t: float) -> float:
        """Speed at ``t``; 0 during pauses and for parked terminals.

        Like :meth:`RandomWaypoint.speed_at`, the trajectory only *ends*
        when ``max_speed == 0``; then (and during pauses) the scan finds no
        covering ``[t_start, t_end)`` interval and 0.0 is reported.
        """
        if t < 0:
            t = 0.0
        self._extend_to(t)
        for seg in reversed(self._segments):
            if seg.t_start <= t < seg.t_end:
                return seg.speed
        return 0.0

    def _extend_to(self, t: float) -> None:
        if self._max_speed <= 0:
            return
        last = self._segments[-1]
        while last.t_end <= t:
            last = self._next_segment(last)
            self._segments.append(last)

    def _next_segment(self, last: Segment) -> Segment:
        if not last.is_pause:
            return Segment(last.t_end, last.t_end + self._pause, last.b, last.b)
        heading = self._rng.uniform(0.0, 2.0 * math.pi)
        speed = max(self._rng.uniform(0.0, self._max_speed), _MIN_SPEED)
        dest = boundary_hit(self._field, last.b, heading)
        travel = last.b.distance_to(dest) / speed
        if travel <= 0:  # started on the boundary heading outward: re-aim
            heading += math.pi
            dest = boundary_hit(self._field, last.b, heading)
            travel = max(last.b.distance_to(dest) / speed, 1e-6)
        return Segment(last.t_end, last.t_end + travel, last.b, dest)
