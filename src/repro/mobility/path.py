"""Scripted waypoint paths — deterministic trajectories for tests/examples.

A :class:`WaypointPath` visits an explicit list of ``(time, position)``
anchors, interpolating linearly between them and holding the last position
afterwards.  Integration tests use it to stage precise link-break moments.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.geometry.vector import Vec2
from repro.mobility.base import MobilityModel

__all__ = ["WaypointPath"]


class WaypointPath(MobilityModel):
    """Piecewise-linear trajectory through explicit ``(time, point)`` anchors."""

    def __init__(self, anchors: Sequence[Tuple[float, Vec2]]) -> None:
        if not anchors:
            raise ConfigurationError("WaypointPath requires at least one anchor")
        times = [t for t, _ in anchors]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError("WaypointPath anchor times must be strictly increasing")
        if times[0] < 0:
            raise ConfigurationError("WaypointPath anchor times must be non-negative")
        self._anchors: List[Tuple[float, Vec2]] = list(anchors)
        legs = zip(self._anchors, self._anchors[1:])
        self._speed_bound = max(
            (p0.distance_to(p1) / (t1 - t0) for (t0, p0), (t1, p1) in legs), default=0.0
        )

    @property
    def speed_bound(self) -> float:
        """The speed of the fastest leg (0 for a single anchor)."""
        return self._speed_bound

    def position(self, t: float) -> Vec2:
        anchors = self._anchors
        if t <= anchors[0][0]:
            return anchors[0][1]
        if t >= anchors[-1][0]:
            return anchors[-1][1]
        # Linear scan is fine: test paths have a handful of anchors.
        for (t0, p0), (t1, p1) in zip(anchors, anchors[1:]):
            if t0 <= t <= t1:
                frac = (t - t0) / (t1 - t0)
                return p0.lerp(p1, frac)
        raise AssertionError("unreachable")  # pragma: no cover

    def speed_at(self, t: float) -> float:
        anchors = self._anchors
        if t < anchors[0][0] or t >= anchors[-1][0]:
            return 0.0
        for (t0, p0), (t1, p1) in zip(anchors, anchors[1:]):
            if t0 <= t < t1:
                return p0.distance_to(p1) / (t1 - t0)
        return 0.0
