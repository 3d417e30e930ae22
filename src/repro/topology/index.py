"""The spatial topology index: cached positions + grid-backed neighbours.

Every layer of the simulator asks the same two questions in its innermost
loop — *where is node i now?* and *who is within range of node i now?*.
The seed implementation answered both by brute force: every
``Network.neighbors()`` call re-evaluated every node's mobility model and
scanned all n terminals (O(n²) per MAC transmission).  The
:class:`TopologyIndex` replaces that hot path with:

* **Per-epoch position caching** — positions are sampled from the mobility
  models once per time quantum (exact query time when ``quantum == 0``,
  the default) and shared by every consumer: neighbour queries, channel
  gain lookups, carrier sensing.  A small LRU of recent epochs keeps the
  MAC's queries at transmission-start times (slightly in the past) cheap.
* **A uniform spatial hash grid** — nodes are binned into cells of
  ``cell_size`` metres (default: the neighbour radius), so a radius query
  inspects only the 3x3-ish cell neighbourhood instead of all nodes.
* **Incremental neighbour-set maintenance** — each epoch's cell buckets
  are derived copy-on-write from the previous epoch's: only nodes that
  crossed a cell boundary move buckets, everything else is shared.

Staleness contract: with ``quantum == 0`` every answer is exact.  With
``quantum > 0`` positions are frozen at the start of each quantum, so any
position/neighbour answer can be stale by up to ``quantum`` seconds of
node movement (at most ``quantum * max_speed`` metres).  See
docs/ARCHITECTURE.md.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.geometry.field import Field
from repro.geometry.grid import Cell, UniformGrid
from repro.geometry.vector import Vec2

__all__ = ["TopologyIndex"]

PositionFn = Callable[[float], Vec2]


class _Snapshot:
    """Positions and cell buckets at one sampled instant.

    ``candidates`` memoises, per ``(cell, reach)``, the flattened bucket
    concatenation of the cell's ``(2*reach + 1)²`` neighbourhood — every
    query from the same cell at the same epoch shares one list.

    ``coords``/``slot_of`` are the lazily-built array view used by the
    batched queries: an (n, 2) float array of every position plus the
    id -> row mapping (``slot_of is None`` flags the dense fast path
    where ids 0..n-1 index ``coords`` directly).  The array is only
    built once a snapshot has served about a full field's worth of
    batched gathers (``gathered``) — a snapshot that answers a single
    neighbour-set query never pays the O(n) conversion.
    """

    __slots__ = (
        "time",
        "positions",
        "cells",
        "cell_of",
        "candidates",
        "coords",
        "slot_of",
        "gathered",
    )

    def __init__(
        self,
        time: float,
        positions: Dict[int, Vec2],
        cells: Dict[Cell, List[int]],
        cell_of: Dict[int, Cell],
    ) -> None:
        self.time = time
        self.positions = positions
        self.cells = cells
        self.cell_of = cell_of
        self.candidates: Dict[Tuple[int, int, int], List[int]] = {}
        self.coords: Optional[np.ndarray] = None
        self.slot_of: Optional[Dict[int, int]] = None
        self.gathered = 0

    def coords_array(self) -> np.ndarray:
        """The (n, 2) coordinate array (built on first batched query)."""
        coords = self.coords
        if coords is None:
            positions = self.positions
            n = len(positions)
            if n == 0:
                coords = np.empty((0, 2))
            else:
                coords = np.array(list(positions.values()))
                ids = np.fromiter(positions.keys(), dtype=np.intp, count=n)
                if not bool((ids == np.arange(n, dtype=np.intp)).all()):
                    self.slot_of = {nid: i for i, nid in enumerate(positions)}
            self.coords = coords
        return coords


class TopologyIndex:
    """Grid-backed, epoch-cached topology queries over a set of nodes.

    Args:
        field: the simulation field (grid extent).
        radius: default neighbour radius in metres (the decode range).
        cell_size: grid cell edge; defaults to ``radius`` (falling back to
            the field's larger side when ``radius == 0``).
        quantum: position-sampling time quantum in seconds.  0 (default)
            samples at exact query times; > 0 snaps query times down to
            multiples of ``quantum`` (positions may then be stale by up to
            one quantum).
        max_snapshots: how many recent epochs to keep cached.
    """

    def __init__(
        self,
        field: Field,
        radius: float,
        cell_size: Optional[float] = None,
        quantum: float = 0.0,
        max_snapshots: int = 8,
    ) -> None:
        if radius < 0:
            raise ConfigurationError(f"neighbour radius must be >= 0, got {radius}")
        if quantum < 0:
            raise ConfigurationError(f"position quantum must be >= 0, got {quantum}")
        if max_snapshots < 1:
            raise ConfigurationError("max_snapshots must be >= 1")
        self.field = field
        self.radius = float(radius)
        if cell_size is None:
            cell_size = radius if radius > 0 else max(field.width, field.height)
        self.grid = UniformGrid(field.width, field.height, cell_size)
        self.quantum = float(quantum)
        self._position_fns: Dict[int, PositionFn] = {}
        # Inactive (failed) nodes: still tracked — point queries must keep
        # answering for in-flight transmissions — but excluded from every
        # set query (cell buckets, neighbour scans, neighbour maps).
        self._inactive: set = set()
        self._snapshots: "OrderedDict[float, _Snapshot]" = OrderedDict()
        self._max_snapshots = max_snapshots
        self._latest: Optional[_Snapshot] = None  # fast path: most recent epoch
        #: Diagnostics: full snapshot builds and incremental bucket moves.
        self.snapshots_built = 0
        self.bucket_moves = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add(self, node_id: int, position_fn: PositionFn) -> None:
        """Register a node's trajectory.  Invalidates cached snapshots."""
        if node_id in self._position_fns:
            raise TopologyError(f"node id {node_id} already indexed")
        self._position_fns[node_id] = position_fn
        self._snapshots.clear()
        self._latest = None

    def remove(self, node_id: int) -> None:
        """Forget a node.  Invalidates cached snapshots."""
        self._lookup(node_id)
        del self._position_fns[node_id]
        self._inactive.discard(node_id)
        self._snapshots.clear()
        self._latest = None

    def set_active(self, node_id: int, active: bool) -> None:
        """Mark a node active/inactive for set queries (fault injection).

        An inactive node keeps its trajectory — :meth:`position`,
        :meth:`distances_from` and friends still answer, so channel math
        for transmissions already in flight stays well-defined — but it
        vanishes from cell buckets: :meth:`neighbors`,
        :meth:`nodes_within` and :meth:`neighbor_map` no longer see it.
        Transitions are rare (fault events), so cached snapshots are
        simply invalidated rather than diffed.
        """
        self._lookup(node_id)
        if active:
            if node_id not in self._inactive:
                return
            self._inactive.discard(node_id)
        else:
            if node_id in self._inactive:
                return
            self._inactive.add(node_id)
        self._snapshots.clear()
        self._latest = None

    def is_active(self, node_id: int) -> bool:
        """True unless ``node_id`` was deactivated via :meth:`set_active`."""
        return node_id not in self._inactive

    def __len__(self) -> int:
        return len(self._position_fns)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._position_fns

    def _lookup(self, node_id: int) -> PositionFn:
        try:
            return self._position_fns[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id}") from None

    # ------------------------------------------------------------------
    # Time quantisation
    # ------------------------------------------------------------------
    def snap(self, t: float) -> float:
        """The epoch time ``t`` maps to (identity when ``quantum == 0``)."""
        if self.quantum <= 0.0:
            return t
        return math.floor(t / self.quantum) * self.quantum

    # ------------------------------------------------------------------
    # Point queries (never force a snapshot build)
    # ------------------------------------------------------------------
    def position(self, node_id: int, t: float) -> Vec2:
        """Position of ``node_id`` at ``t`` (epoch-cached when available).

        Uses the cached snapshot for ``snap(t)`` if one exists; otherwise
        evaluates the node's trajectory directly — a pairwise channel or
        carrier-sense probe at an off-epoch instant must not trigger an
        O(n) resample of the whole field.
        """
        ts = self.snap(t)
        latest = self._latest
        snapshot = (
            latest
            if latest is not None and latest.time == ts
            else self._snapshots.get(ts)
        )
        if snapshot is not None:
            try:
                return snapshot.positions[node_id]
            except KeyError:
                raise TopologyError(f"unknown node id {node_id}") from None
        return self._lookup(node_id)(ts)

    def distance(self, a: int, b: int, t: float) -> float:
        """Distance in metres between ``a`` and ``b`` at ``t``."""
        return self.position(a, t).distance_to(self.position(b, t))

    def within(self, a: int, b: int, t: float, range_m: float) -> bool:
        """True if distinct nodes ``a`` and ``b`` are within ``range_m``."""
        if a == b:
            return False
        return self.distance(a, b, t) <= range_m

    # ------------------------------------------------------------------
    # Batched point queries (one array pipeline per candidate set)
    # ------------------------------------------------------------------
    def positions_of(self, ids: Sequence[int], t: float) -> List[Vec2]:
        """Positions of every node in ``ids`` at ``t`` (epoch-cached when
        a snapshot for ``snap(t)`` already exists; never builds one)."""
        ts = self.snap(t)
        latest = self._latest
        snapshot = (
            latest
            if latest is not None and latest.time == ts
            else self._snapshots.get(ts)
        )
        try:
            if snapshot is not None:
                positions = snapshot.positions
                return [positions[nid] for nid in ids]
            fns = self._position_fns
            return [fns[nid](ts) for nid in ids]
        except KeyError as exc:
            raise TopologyError(f"unknown node id {exc.args[0]}") from None

    def distances_from(self, node_id: int, others: Sequence[int], t: float) -> np.ndarray:
        """Distances (metres) from ``node_id`` to every node in ``others``.

        The batched core of the vectorized channel pipeline: one origin
        fetch, one coordinate gather, one ``hypot`` over the whole
        candidate set.  When a snapshot for ``snap(t)`` exists its cached
        coordinate array is fancy-indexed directly (node ids are dense in
        practice, so the id list *is* the index); otherwise the involved
        trajectories are evaluated pointwise, never forcing a snapshot.
        """
        origin = self.position(node_id, t)
        if not others:
            return np.empty(0)
        ts = self.snap(t)
        latest = self._latest
        snapshot = (
            latest
            if latest is not None and latest.time == ts
            else self._snapshots.get(ts)
        )
        if snapshot is not None and snapshot.coords is None:
            snapshot.gathered += len(others)
            if snapshot.gathered >= len(snapshot.positions):
                snapshot.coords_array()  # heavy reuse: amortise into one array
        if snapshot is not None and snapshot.coords is not None:
            coords = snapshot.coords
            slot_of = snapshot.slot_of
            try:
                if slot_of is None:
                    idx = np.asarray(others, dtype=np.intp)
                    if idx.size and (idx.max() >= coords.shape[0] or idx.min() < 0):
                        raise TopologyError(f"unknown node id in {others!r}")
                else:
                    idx = np.fromiter(
                        (slot_of[b] for b in others), dtype=np.intp, count=len(others)
                    )
            except KeyError as exc:
                raise TopologyError(f"unknown node id {exc.args[0]}") from None
            pts = coords[idx]
            dx = pts[:, 0] - origin.x
            dy = pts[:, 1] - origin.y
        else:
            flat: List[float] = []
            append = flat.append
            if snapshot is not None:
                positions = snapshot.positions
                try:
                    for b in others:
                        p = positions[b]
                        append(p.x)
                        append(p.y)
                except KeyError:
                    raise TopologyError(f"unknown node id {b}") from None
            else:
                fns = self._position_fns
                try:
                    for b in others:
                        p = fns[b](ts)
                        append(p.x)
                        append(p.y)
                except KeyError:
                    raise TopologyError(f"unknown node id {b}") from None
            pts = np.array(flat).reshape(-1, 2)
            dx = pts[:, 0] - origin.x
            dy = pts[:, 1] - origin.y
        return np.hypot(dx, dy)

    def which_within(
        self, node_id: int, others: Sequence[int], t: float, range_m: float
    ) -> np.ndarray:
        """Boolean mask over ``others``: within ``range_m`` of ``node_id``
        (``node_id`` itself, if present, is masked out)."""
        mask = self.distances_from(node_id, others, t) <= range_m
        for i, nid in enumerate(others):
            if nid == node_id:
                mask[i] = False
        return mask

    def any_within(
        self, node_id: int, others: Sequence[int], t: float, range_m: float
    ) -> bool:
        """True if any node in ``others`` is within ``range_m`` of
        ``node_id`` (cheap scalar loop for tiny candidate sets)."""
        if len(others) <= 3:
            within = self.within
            return any(within(nid, node_id, t, range_m) for nid in others)
        return bool(self.which_within(node_id, others, t, range_m).any())

    # ------------------------------------------------------------------
    # Set queries (grid-backed, build/reuse a snapshot)
    # ------------------------------------------------------------------
    def neighbors(self, node_id: int, t: float, radius: Optional[float] = None) -> List[int]:
        """Ids within ``radius`` (default: the index radius), ascending."""
        r = self.radius if radius is None else radius
        snapshot = self._snapshot(t)
        try:
            origin = snapshot.positions[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id}") from None
        return self._scan(snapshot, origin.x, origin.y, r, node_id)

    def nodes_within(self, point: Vec2, t: float, radius: float) -> List[int]:
        """Ids within ``radius`` metres of an arbitrary point, ascending."""
        return self._scan(self._snapshot(t), point.x, point.y, radius, -1)

    def _scan(
        self, snapshot: _Snapshot, ox: float, oy: float, r: float, exclude: int
    ) -> List[int]:
        """The query hot path: scan the cell neighbourhood of ``(ox, oy)``.

        Coordinates are clamped onto the grid (1-Lipschitz per axis), so a
        neighbourhood of ``ceil(r / cell_size)`` cells around the origin's
        cell always covers every point within ``r`` — including origins and
        nodes sitting on cell boundaries or outside the field.
        """
        grid = self.grid
        col, row = grid._col(ox), grid._row(oy)
        reach = grid.reach_for(r)
        key = (col, row, reach)
        cand = snapshot.candidates.get(key)
        if cand is None:
            cells = snapshot.cells
            cand = []
            for block_cell in grid.cell_block((col, row), reach):
                bucket = cells.get(block_cell)
                if bucket:
                    cand.extend(bucket)
            snapshot.candidates[key] = cand
        hyp = math.hypot
        out: List[int] = []
        append = out.append
        positions = snapshot.positions
        for nid in cand:
            if nid == exclude:
                continue
            p = positions[nid]
            if hyp(ox - p[0], oy - p[1]) <= r:
                append(nid)
        out.sort()
        return out

    def neighbor_map(self, t: float, radius: Optional[float] = None) -> Dict[int, List[int]]:
        """Full ``{id: neighbours}`` map at ``t`` in one pass over the grid.

        Inactive (failed) nodes are omitted from the keys as well as from
        every neighbour list — a dead node has no adjacency.
        """
        inactive = self._inactive
        return {
            nid: self.neighbors(nid, t, radius)
            for nid in sorted(self._position_fns)
            if nid not in inactive
        }

    def coords_view(self, t: float) -> Tuple[np.ndarray, Optional[Dict[int, int]]]:
        """The epoch's positions as ``(coords, slot_of)`` arrays.

        ``coords`` is an (n, 2) float array; ``slot_of`` maps node id to
        row, or is None when ids are dense (``coords[id]`` directly).
        Builds the snapshot — this is a bulk query by contract; the
        network-wide channel scans amortise it over every pair.
        """
        snapshot = self._snapshot(t)
        return snapshot.coords_array(), snapshot.slot_of

    def positions(self, t: float) -> Dict[int, Vec2]:
        """All cached positions at ``snap(t)`` (builds the snapshot)."""
        return dict(self._snapshot(t).positions)

    # ------------------------------------------------------------------
    # Snapshot maintenance
    # ------------------------------------------------------------------
    def _snapshot(self, t: float) -> _Snapshot:
        ts = self.snap(t)
        latest = self._latest
        if latest is not None and latest.time == ts:
            return latest
        snapshot = self._snapshots.get(ts)
        if snapshot is not None:
            self._snapshots.move_to_end(ts)
            return snapshot
        snapshot = self._build(ts)
        self._snapshots[ts] = snapshot
        self._latest = snapshot
        if len(self._snapshots) > self._max_snapshots:
            self._snapshots.popitem(last=False)
        return snapshot

    def _build(self, ts: float) -> _Snapshot:
        """Sample every trajectory once; rebucket only nodes that moved cells."""
        self.snapshots_built += 1
        base = next(reversed(self._snapshots.values())) if self._snapshots else None
        positions: Dict[int, Vec2] = {}
        cell_of_point = self.grid.cell_of
        inactive = self._inactive
        if base is None:
            cells: Dict[Cell, List[int]] = {}
            cell_of: Dict[int, Cell] = {}
            for nid, fn in self._position_fns.items():
                p = fn(ts)
                positions[nid] = p
                if nid in inactive:
                    continue  # sampled (point queries) but never bucketed
                c = cell_of_point(p)
                cell_of[nid] = c
                bucket = cells.get(c)
                if bucket is None:
                    cells[c] = [nid]
                else:
                    bucket.append(nid)
            return _Snapshot(ts, positions, cells, cell_of)
        # Copy-on-write from the most recent snapshot: bucket lists are
        # shared until a node crosses into or out of them.  Activity
        # changes clear the cache, so base and this build always agree on
        # the inactive set: an inactive node is in neither bucket map.
        cells = dict(base.cells)
        cell_of = dict(base.cell_of)
        touched: set = set()
        for nid, fn in self._position_fns.items():
            p = fn(ts)
            positions[nid] = p
            if nid in inactive:
                continue
            c = cell_of_point(p)
            old = cell_of[nid]
            if c == old:
                continue
            self.bucket_moves += 1
            self._mutable_bucket(cells, touched, old).remove(nid)
            self._mutable_bucket(cells, touched, c).append(nid)
            cell_of[nid] = c
        return _Snapshot(ts, positions, cells, cell_of)

    @staticmethod
    def _mutable_bucket(cells: Dict[Cell, List[int]], touched: set, cell: Cell) -> List[int]:
        if cell not in touched:
            cells[cell] = list(cells.get(cell, ()))
            touched.add(cell)
        return cells[cell]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TopologyIndex(nodes={len(self._position_fns)}, {self.grid!r}, "
            f"quantum={self.quantum:g}, snapshots={len(self._snapshots)})"
        )
