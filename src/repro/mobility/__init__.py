"""Mobility models.

The paper uses the classic random-waypoint model: each terminal picks a
uniform random destination in the field, moves there at a speed drawn
uniformly from ``(0, MAXSPEED]``, pauses 3 seconds, and repeats
(:class:`~repro.mobility.waypoint.RandomWaypoint`).

All models implement :class:`~repro.mobility.base.MobilityModel`, whose key
property is that :meth:`~repro.mobility.base.MobilityModel.position` is an
exact closed-form function of time — there is no per-tick integration, so
any layer may sample a position at any instant at O(segments traversed)
amortised cost.

Whole-network position snapshots sample every node's model once per
query instant (:class:`~repro.topology.TopologyIndex`).
"""

from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticPosition
from repro.mobility.waypoint import RandomWaypoint
from repro.mobility.direction import RandomDirection
from repro.mobility.path import WaypointPath

__all__ = [
    "MobilityModel",
    "StaticPosition",
    "RandomWaypoint",
    "RandomDirection",
    "WaypointPath",
]
