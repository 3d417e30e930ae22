"""Static (non-moving) terminals — the paper's MAXSPEED = 0 case."""

from __future__ import annotations

from repro.geometry.vector import Vec2
from repro.mobility.base import MobilityModel

__all__ = ["StaticPosition"]


class StaticPosition(MobilityModel):
    """A terminal pinned at a fixed position."""

    def __init__(self, position: Vec2) -> None:
        self._position = position

    def position(self, t: float) -> Vec2:
        return self._position

    @property
    def speed_bound(self) -> float:
        return 0.0

    def speed_at(self, t: float) -> float:
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StaticPosition({self._position.x:.1f}, {self._position.y:.1f})"
