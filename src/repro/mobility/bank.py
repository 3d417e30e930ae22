"""Vectorized mobility state: the MobilityBank.

``TopologyIndex`` rebuilds a position snapshot at every distinct query
instant, and those builds — n Python ``position()`` calls each —
dominate flood-storm wall time.  The bank collapses a build into one
masked numpy lerp by holding *every* node's current trajectory as rows
of segment arrays:

``t_start / t_end / ax / ay / bx / by``
    one row per node, one column per trajectory segment, padded with
    ``+inf`` start times so vectorized segment selection never sees unused
    slots.  A segment is exactly :class:`repro.mobility.waypoint.Segment`
    in columnar form, including the zero-length-pause convention.

Randomness is *counter-based*, mirroring :class:`repro.channel.bank.FadingBank`:
row ``i`` owns the key
``derive_key(seed, i)`` and draw ``k`` is the pure function
``splitmix64(key + k * SPLITMIX_GAMMA)``, so trajectories depend only on
``(seed, node_id)`` — never on how queries are batched or interleaved.
:class:`repro.sim.rng.CounterRandom` exposes the identical draw sequence
through the ``random.Random`` API, which is how the differential tests
drive the *scalar* models to bitwise-equal trajectories.

Bit-exactness is the design constraint throughout: segment *assembly*
(destination draws, ``math.hypot`` travel times, random-direction boundary
intersections via the shared :func:`repro.mobility.direction.boundary_hit`)
stays scalar per new segment — it is rare and amortized — while only the
per-snapshot evaluation ``a + (b - a) * frac`` is vectorized, using the
same operand order as ``Vec2.lerp``.  Scalar and batched evaluation of the
same segment row therefore agree to the last ulp.

Selected behind ``ScenarioConfig.mobility_backend`` (``repro run
--mobility-backend batched``).  The scalar default remains byte-identical
to the pre-bank simulator; the batched backend is deterministic per seed
but draws node trajectories from the counter streams, so its reports form
their own (internally consistent) universe.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.mobility.base import MobilityModel
from repro.mobility.direction import RandomDirection, boundary_hit
from repro.mobility.path import WaypointPath
from repro.mobility.static import StaticPosition
from repro.mobility.waypoint import RandomWaypoint, _MIN_SPEED
from repro.sim.rng import SPLITMIX_GAMMA, derive_key, splitmix64

__all__ = ["MobilityBank", "BankTrajectory", "MOBILITY_BACKENDS"]

#: Valid values for ``ScenarioConfig.mobility_backend``.
MOBILITY_BACKENDS = ("scalar", "batched")

_M64 = (1 << 64) - 1
_PO53 = 2.0**-53
_TWO_PI = 2.0 * math.pi

# Row kinds.
_STATIC = 0
_WAYPOINT = 1
_DIRECTION = 2
_PATH = 3
_PROXY = 4


class MobilityBank:
    """Array-of-segment-state storage for every node's trajectory.

    Rows are registered densely: node ``i`` must be added as the ``i``-th
    row (the bank's arrays *are* the id space, exactly like the topology
    grid's slot arrays).  Random models draw from per-row counter
    substreams; deterministic models (static, scripted paths) are stored
    verbatim.  Unknown :class:`MobilityModel` subclasses are supported as
    *proxy* rows — their positions are filled by scalar calls inside
    :meth:`coords_at`, so exotic models stay usable under the batched
    backend at scalar cost for those rows only.
    """

    def __init__(self, seed: int, field: Field, capacity: int = 16) -> None:
        self._seed = int(seed)
        self._field = field
        self._n = 0
        cap_r = max(int(capacity), 1)
        cap_s = 8
        self._alloc(cap_r, cap_s)
        # Per-row scalar state kept as Python lists: segment assembly is
        # scalar anyway, and Python ints avoid uint64 round-trips.
        self._key_int: List[int] = []
        self._ctr: List[int] = []
        self._max_speed: List[float] = []
        self._pause: List[float] = []
        self._proxy: Dict[int, MobilityModel] = {}
        self._any_strict = False
        #: Total segments materialized (diagnostic; grows monotonically).
        self.segments_generated = 0

    # ------------------------------------------------------------------
    # storage

    def _alloc(self, cap_r: int, cap_s: int) -> None:
        self._ts = np.full((cap_r, cap_s), np.inf)
        self._te = np.zeros((cap_r, cap_s))
        self._ax = np.zeros((cap_r, cap_s))
        self._ay = np.zeros((cap_r, cap_s))
        self._bx = np.zeros((cap_r, cap_s))
        self._by = np.zeros((cap_r, cap_s))
        self._nseg = np.zeros(cap_r, dtype=np.intp)
        self._frontier = np.full(cap_r, np.inf)
        self._kind = np.zeros(cap_r, dtype=np.uint8)
        self._strict = np.zeros(cap_r, dtype=bool)
        self._rowidx = np.arange(cap_r)

    def _grow_rows(self) -> None:
        old_r, cap_s = self._ts.shape
        new_r = old_r * 2
        for name in ("_ts", "_te", "_ax", "_ay", "_bx", "_by"):
            old = getattr(self, name)
            grown = np.full((new_r, cap_s), np.inf) if name == "_ts" else np.zeros((new_r, cap_s))
            grown[:old_r] = old
            setattr(self, name, grown)
        for name, fill, dtype in (
            ("_nseg", 0, np.intp),
            ("_kind", 0, np.uint8),
            ("_strict", False, bool),
        ):
            old = getattr(self, name)
            grown = np.full(new_r, fill, dtype=dtype)
            grown[:old_r] = old
            setattr(self, name, grown)
        frontier = np.full(new_r, np.inf)
        frontier[:old_r] = self._frontier
        self._frontier = frontier
        self._rowidx = np.arange(new_r)

    def _grow_segs(self, need: int) -> None:
        cap_r, old_s = self._ts.shape
        new_s = old_s
        while new_s < need:
            new_s *= 2
        for name in ("_ts", "_te", "_ax", "_ay", "_bx", "_by"):
            old = getattr(self, name)
            grown = np.full((cap_r, new_s), np.inf) if name == "_ts" else np.zeros((cap_r, new_s))
            grown[:, :old_s] = old
            setattr(self, name, grown)

    def _new_row(self, node_id: int, kind: int) -> int:
        if node_id != self._n:
            raise ConfigurationError(
                f"MobilityBank rows must be registered densely: expected id {self._n}, got {node_id}"
            )
        if self._n == self._ts.shape[0]:
            self._grow_rows()
        i = self._n
        self._n += 1
        self._kind[i] = kind
        self._key_int.append(derive_key(self._seed, i))
        self._ctr.append(0)
        self._max_speed.append(0.0)
        self._pause.append(0.0)
        return i

    def _append_segment(
        self, i: int, ts: float, te: float, ax: float, ay: float, bx: float, by: float
    ) -> None:
        j = int(self._nseg[i])
        if j == self._ts.shape[1]:
            self._grow_segs(j + 1)
        self._ts[i, j] = ts
        self._te[i, j] = te
        self._ax[i, j] = ax
        self._ay[i, j] = ay
        self._bx[i, j] = bx
        self._by[i, j] = by
        self._nseg[i] = j + 1
        self.segments_generated += 1

    # ------------------------------------------------------------------
    # counter-based draws (bit-compatible with CounterRandom)

    def _uniform(self, i: int, a: float, b: float) -> float:
        z = splitmix64((self._key_int[i] + self._ctr[i] * SPLITMIX_GAMMA) & _M64)
        self._ctr[i] += 1
        return a + (b - a) * ((z >> 11) * _PO53)

    # ------------------------------------------------------------------
    # registration

    def add_waypoint(
        self,
        node_id: int,
        max_speed: float,
        pause_time: float = 3.0,
        start: Optional[Vec2] = None,
    ) -> None:
        """Register a random-waypoint row (draws its origin if ``start`` is None)."""
        if max_speed < 0:
            raise ConfigurationError(f"max_speed must be >= 0, got {max_speed}")
        if pause_time < 0:
            raise ConfigurationError(f"pause_time must be >= 0, got {pause_time}")
        i = self._new_row(node_id, _WAYPOINT)
        self._max_speed[i] = float(max_speed)
        self._pause[i] = float(pause_time)
        if start is None:
            start = Vec2(
                self._uniform(i, 0.0, self._field.width),
                self._uniform(i, 0.0, self._field.height),
            )
        self._append_segment(i, 0.0, 0.0, start.x, start.y, start.x, start.y)
        # A zero max_speed parks the terminal on its initial zero-length
        # pause forever, exactly like the scalar model's early return.
        self._frontier[i] = math.inf if max_speed <= 0.0 else 0.0

    def add_direction(
        self,
        node_id: int,
        max_speed: float,
        pause_time: float = 3.0,
        start: Optional[Vec2] = None,
    ) -> None:
        """Register a random-direction row (same boundary rule as the scalar model)."""
        if max_speed < 0:
            raise ConfigurationError(f"max_speed must be >= 0, got {max_speed}")
        if pause_time < 0:
            raise ConfigurationError(f"pause_time must be >= 0, got {pause_time}")
        i = self._new_row(node_id, _DIRECTION)
        self._max_speed[i] = float(max_speed)
        self._pause[i] = float(pause_time)
        if start is None:
            start = Vec2(
                self._uniform(i, 0.0, self._field.width),
                self._uniform(i, 0.0, self._field.height),
            )
        self._append_segment(i, 0.0, 0.0, start.x, start.y, start.x, start.y)
        self._frontier[i] = math.inf if max_speed <= 0.0 else 0.0

    def add_static(self, node_id: int, position: Vec2) -> None:
        """Register a pinned terminal (one segment covering all time)."""
        i = self._new_row(node_id, _STATIC)
        self._append_segment(
            i, 0.0, math.inf, position.x, position.y, position.x, position.y
        )

    def add_path(self, node_id: int, anchors: Sequence[Tuple[float, Vec2]]) -> None:
        """Register a scripted piecewise-linear path (WaypointPath semantics)."""
        if not anchors:
            raise ConfigurationError("path rows require at least one anchor")
        times = [t for t, _ in anchors]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError("path anchor times must be strictly increasing")
        if times[0] < 0:
            raise ConfigurationError("path anchor times must be non-negative")
        i = self._new_row(node_id, _PATH)
        # Path rows use *strict* segment selection (t_start < t) so a query
        # exactly at an interior anchor evaluates the earlier segment at
        # frac = 1.0 — matching WaypointPath's `t0 <= t <= t1` first-match
        # scan bit-for-bit (the lerp endpoint can differ from the next
        # segment's start anchor by an ulp).
        self._strict[i] = True
        self._any_strict = True
        t0, p0 = anchors[0]
        if t0 > 0.0:
            self._append_segment(i, 0.0, t0, p0.x, p0.y, p0.x, p0.y)
        for (ta, pa), (tb, pb) in zip(anchors, anchors[1:]):
            self._append_segment(i, ta, tb, pa.x, pa.y, pb.x, pb.y)
        tl, pl = anchors[-1]
        self._append_segment(i, tl, math.inf, pl.x, pl.y, pl.x, pl.y)

    def add_model(self, node_id: int, model: MobilityModel) -> None:
        """Register an arbitrary model as a proxy row (scalar evaluation)."""
        i = self._new_row(node_id, _PROXY)
        self._proxy[i] = model

    def adopt(self, node_id: int, model: MobilityModel) -> MobilityModel:
        """Re-home a scalar model's configuration onto a bank row.

        Known model types become native rows: the origin (position at
        t = 0) is taken from the model so batched and scalar scenarios
        start from identical placements, while subsequent waypoints/speeds
        come from the row's counter substream.  Unknown types become proxy
        rows and keep their scalar behaviour.  Returns the
        :class:`MobilityModel` the node should use from now on.
        """
        if isinstance(model, BankTrajectory):
            raise ConfigurationError("model is already bank-backed")
        if isinstance(model, RandomWaypoint):
            self.add_waypoint(node_id, model.max_speed, model.pause_time, start=model.origin)
        elif isinstance(model, RandomDirection):
            self.add_direction(node_id, model.max_speed, model.pause_time, start=model.origin)
        elif isinstance(model, WaypointPath):
            self.add_path(node_id, model.anchors)
        elif isinstance(model, StaticPosition):
            self.add_static(node_id, model.position(0.0))
        else:
            self.add_model(node_id, model)
            return model
        return BankTrajectory(self, node_id)

    @property
    def n(self) -> int:
        """Number of registered rows."""
        return self._n

    # ------------------------------------------------------------------
    # trajectory extension (scalar assembly, counter-stream draws)

    def _append_next(self, i: int) -> None:
        """Append the next move/pause segment to row ``i`` (mirrors the
        scalar models' ``_next_segment`` decision tree exactly)."""
        j = int(self._nseg[i]) - 1
        te = float(self._te[i, j])
        bx = float(self._bx[i, j])
        by = float(self._by[i, j])
        is_pause = self._ax[i, j] == bx and self._ay[i, j] == by
        kind = self._kind[i]
        if kind == _WAYPOINT:
            if is_pause:
                dx = self._uniform(i, 0.0, self._field.width)
                dy = self._uniform(i, 0.0, self._field.height)
                speed = max(self._uniform(i, 0.0, self._max_speed[i]), _MIN_SPEED)
                travel = math.hypot(bx - dx, by - dy) / speed
                self._append_segment(i, te, te + travel, bx, by, dx, dy)
            else:
                self._append_segment(i, te, te + self._pause[i], bx, by, bx, by)
        else:  # _DIRECTION
            if not is_pause:
                self._append_segment(i, te, te + self._pause[i], bx, by, bx, by)
            else:
                heading = self._uniform(i, 0.0, _TWO_PI)
                speed = max(self._uniform(i, 0.0, self._max_speed[i]), _MIN_SPEED)
                origin = Vec2(bx, by)
                dest = boundary_hit(self._field, origin, heading)
                travel = origin.distance_to(dest) / speed
                if travel <= 0:  # on the boundary heading outward: re-aim
                    heading += math.pi
                    dest = boundary_hit(self._field, origin, heading)
                    travel = max(origin.distance_to(dest) / speed, 1e-6)
                self._append_segment(i, te, te + travel, bx, by, dest.x, dest.y)
        self._frontier[i] = self._te[i, int(self._nseg[i]) - 1]

    def _extend_all(self, t: float) -> None:
        """Extend every row whose trajectory does not yet cover ``t``."""
        while True:
            need = np.nonzero(self._frontier[: self._n] <= t)[0]
            if need.size == 0:
                return
            for i in need.tolist():
                self._append_next(i)

    def _extend_row(self, i: int, t: float) -> None:
        while self._frontier[i] <= t:
            self._append_next(i)

    # ------------------------------------------------------------------
    # evaluation

    def coords_at(self, t: float) -> np.ndarray:
        """All positions at time ``t`` as an ``(n, 2)`` float64 array.

        One masked lerp over the covering segments — the batched
        replacement for n scalar ``position()`` calls.  The caller owns
        the returned array.
        """
        n = self._n
        out = np.empty((n, 2))
        if n == 0:
            return out
        if t < 0.0:
            t = 0.0
        self._extend_all(t)
        ts = self._ts[:n]
        le = np.count_nonzero(ts <= t, axis=1)
        if self._any_strict:
            lt = np.count_nonzero(ts < t, axis=1)
            counts = np.where(self._strict[:n], lt, le)
        else:
            counts = le
        idx = counts - 1
        np.maximum(idx, 0, out=idx)
        r = self._rowidx[:n]
        s = ts[r, idx]
        e = self._te[r, idx]
        ax = self._ax[r, idx]
        ay = self._ay[r, idx]
        bx = self._bx[r, idx]
        by = self._by[r, idx]
        tt = np.minimum(np.maximum(t, s), e)
        denom = e - s
        safe = denom > 0.0
        frac = np.where(safe, (tt - s) / np.where(safe, denom, 1.0), 0.0)
        out[:, 0] = ax + (bx - ax) * frac
        out[:, 1] = ay + (by - ay) * frac
        for i, model in self._proxy.items():
            p = model.position(t)
            out[i, 0] = p.x
            out[i, 1] = p.y
        return out

    def _covering(self, i: int, t: float) -> int:
        """Index of the segment covering ``t`` on row ``i`` (inclusive or
        strict selection per the row's flag); trajectory must already
        cover ``t``."""
        m = int(self._nseg[i])
        side = "left" if self._strict[i] else "right"
        idx = int(np.searchsorted(self._ts[i, :m], t, side=side)) - 1
        return max(idx, 0)

    def position_of(self, node_id: int, t: float) -> Vec2:
        """Scalar position query — bit-identical to the vectorized path."""
        self._check_row(node_id)
        if node_id in self._proxy:
            return self._proxy[node_id].position(t)
        if t < 0.0:
            t = 0.0
        self._extend_row(node_id, t)
        j = self._covering(node_id, t)
        s = float(self._ts[node_id, j])
        e = float(self._te[node_id, j])
        ax = float(self._ax[node_id, j])
        ay = float(self._ay[node_id, j])
        if e <= s:
            return Vec2(ax, ay)
        bx = float(self._bx[node_id, j])
        by = float(self._by[node_id, j])
        frac = (min(max(t, s), e) - s) / (e - s)
        return Vec2(ax + (bx - ax) * frac, ay + (by - ay) * frac)

    def speed_of(self, node_id: int, t: float) -> float:
        """Instantaneous speed, matching each scalar model's conventions."""
        self._check_row(node_id)
        if node_id in self._proxy:
            return self._proxy[node_id].speed_at(t)
        if t < 0.0:
            t = 0.0
        self._extend_row(node_id, t)
        kind = self._kind[node_id]
        if kind == _STATIC:
            return 0.0
        # Inclusive selection for speeds across all kinds: at a boundary
        # the *later* segment's speed wins (waypoint bisect_right,
        # direction's `t_start <= t < t_end` scan, and WaypointPath's
        # half-open anchor intervals all agree on this).
        m = int(self._nseg[node_id])
        j = max(int(np.searchsorted(self._ts[node_id, :m], t, side="right")) - 1, 0)
        s = float(self._ts[node_id, j])
        e = float(self._te[node_id, j])
        if kind == _DIRECTION and not (s <= t < e):
            return 0.0  # parked zero-speed row
        if kind == _WAYPOINT and t >= e and j == m - 1:
            return 0.0  # held frontier: zero-speed row parked forever
        if e <= s or not math.isfinite(e):
            return 0.0
        dx = self._ax[node_id, j] - self._bx[node_id, j]
        dy = self._ay[node_id, j] - self._by[node_id, j]
        return math.hypot(dx, dy) / (e - s)

    def _check_row(self, node_id: int) -> None:
        if not 0 <= node_id < self._n:
            raise ConfigurationError(f"unknown MobilityBank row {node_id}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MobilityBank(n={self._n}, segments={self.segments_generated}, "
            f"cap={self._ts.shape})"
        )


class BankTrajectory(MobilityModel):
    """A node-facing :class:`MobilityModel` view over one bank row.

    Nodes keep their ``mobility.position(t)`` API; the calls land on the
    shared arrays so scalar residual queries (``lost_receivers`` /
    ``collided`` in the MAC medium) read the same trajectory the
    vectorized snapshot builds do.
    """

    __slots__ = ("_bank", "_node_id")

    def __init__(self, bank: MobilityBank, node_id: int) -> None:
        self._bank = bank
        self._node_id = node_id

    def position(self, t: float) -> Vec2:
        return self._bank.position_of(self._node_id, t)

    def speed_at(self, t: float) -> float:
        return self._bank.speed_of(self._node_id, t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BankTrajectory(row={self._node_id})"
