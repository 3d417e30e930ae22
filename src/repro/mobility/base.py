"""Mobility model interface."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.geometry.vector import Vec2

__all__ = ["MobilityModel"]


class MobilityModel(ABC):
    """Abstract mobility model: a trajectory queried by absolute time.

    Implementations must be *monotone-query friendly*: queries may arrive
    with non-decreasing ``t`` from the simulator, but implementations are
    required to answer correctly for any ``t >= 0`` (tests query out of
    order).
    """

    @abstractmethod
    def position(self, t: float) -> Vec2:
        """Exact position at absolute simulation time ``t`` (seconds)."""

    @property
    def speed_bound(self) -> float:
        """An upper bound on the speed |dp/dt| in m/s, over all time.

        The topology index sizes its Verlet skin windows from this bound,
        so a model that under-reports it breaks exact neighbour answers.
        The default, ``math.inf``, means "unknown" and is always safe.
        """
        return math.inf

    def speed_at(self, t: float) -> float:
        """Instantaneous speed at time ``t`` in m/s (0 when pausing).

        Default implementation differentiates numerically; concrete models
        override with the exact value.
        """
        dt = 1e-3
        a = self.position(max(0.0, t - dt))
        b = self.position(t + dt)
        return a.distance_to(b) / (2 * dt)
