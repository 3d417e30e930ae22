"""Differential and property tests for the spatial topology index.

The load-bearing guarantee: grid-backed ``neighbors()`` answers *exactly*
match the seed's brute-force O(n²) scan — across random fields, radii
(including 0 and beyond the field diagonal), boundary-sitting nodes and
moving trajectories.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TopologyError
from repro.geometry.field import Field
from repro.geometry.grid import UniformGrid, bulk_distances
from repro.geometry.vector import Vec2
from repro.mobility import RandomDirection, StaticPosition, WaypointPath
from repro.mobility.waypoint import RandomWaypoint
from repro.sim.rng import RandomStreams
from repro.topology import TopologyIndex
from repro.topology.index import SKIN_FRACTION

from tests.helpers import build_static_network


def brute_force_neighbors(positions, node_id, radius):
    """The seed implementation: scan every node, ascending ids."""
    origin = positions[node_id]
    return sorted(
        nid
        for nid, p in positions.items()
        if nid != node_id and origin.distance_to(p) <= radius
    )


def make_index(field, positions, radius, **kwargs):
    index = TopologyIndex(field, radius=radius, **kwargs)
    for nid, p in positions.items():
        index.add(nid, (lambda point: lambda t: point)(p))
    return index


class TestGrid:
    def test_cell_of_clamps_and_covers_field(self):
        grid = UniformGrid(1000.0, 1000.0, 250.0)
        assert grid.cols == 4 and grid.rows == 4
        assert grid.cell_of(Vec2(0.0, 0.0)) == (0, 0)
        # Points on the far edge land in the last cell, not out of bounds.
        assert grid.cell_of(Vec2(1000.0, 1000.0)) == (3, 3)
        assert grid.cell_of(Vec2(-50.0, 2000.0)) == (0, 3)

    def test_cells_near_covers_radius(self):
        grid = UniformGrid(1000.0, 1000.0, 250.0)
        cells = set(grid.cells_near(Vec2(500.0, 500.0), 250.0))
        assert (1, 1) in cells and (3, 3) in cells
        everything = set(grid.cells_near(Vec2(500.0, 500.0), 5000.0))
        assert len(everything) == grid.cell_count

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformGrid(0.0, 100.0, 10.0)
        with pytest.raises(ConfigurationError):
            UniformGrid(100.0, 100.0, 0.0)

    def test_bulk_distances(self):
        pts = [Vec2(3.0, 4.0), Vec2(0.0, 0.0)]
        assert bulk_distances(Vec2(0.0, 0.0), pts) == [5.0, 0.0]


class TestDifferential:
    """Grid answers == brute-force answers, exactly."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        side=st.floats(50.0, 3000.0),
        radius_kind=st.sampled_from(["zero", "small", "tx", "diagonal", "beyond"]),
    )
    def test_static_random_fields(self, seed, n, side, radius_kind):
        rng = random.Random(seed)
        field = Field(side, side)
        positions = {i: field.random_point(rng) for i in range(n)}
        # Pin some nodes to corners/edges (boundary cells) when room allows.
        corners = [Vec2(0.0, 0.0), Vec2(side, side), Vec2(side, 0.0), Vec2(0.0, side)]
        for i, corner in enumerate(corners[: min(n, 4)]):
            positions[i] = corner
        radius = {
            "zero": 0.0,
            "small": side / 20.0,
            "tx": 250.0,
            "diagonal": field.diagonal,
            "beyond": 2.0 * field.diagonal,
        }[radius_kind]
        index = make_index(field, positions, radius)
        for nid in positions:
            assert index.neighbors(nid, 0.0) == brute_force_neighbors(
                positions, nid, radius
            )

    def test_coincident_nodes_and_zero_radius(self):
        field = Field(100.0, 100.0)
        positions = {0: Vec2(5.0, 5.0), 1: Vec2(5.0, 5.0), 2: Vec2(6.0, 5.0)}
        index = make_index(field, positions, radius=0.0)
        assert index.neighbors(0, 0.0) == [1]
        assert index.neighbors(2, 0.0) == []

    def test_nodes_on_cell_boundaries(self):
        field = Field(1000.0, 1000.0)
        # Multiples of the 250 m cell size, i.e. exactly on grid lines.
        positions = {
            i: Vec2(250.0 * (i % 5), 250.0 * (i // 5)) for i in range(25)
        }
        index = make_index(field, positions, radius=250.0)
        for nid in positions:
            assert index.neighbors(nid, 0.0) == brute_force_neighbors(
                positions, nid, 250.0
            )

    def test_moving_nodes_match_brute_force_over_time(self):
        streams = RandomStreams(99)
        field = Field(600.0, 600.0)
        models = {
            i: RandomWaypoint(
                field, streams.stream(f"mobility/{i}"), max_speed=20.0, pause_time=1.0
            )
            for i in range(25)
        }
        index = TopologyIndex(field, radius=200.0)
        for nid, model in models.items():
            index.add(nid, model.position)
        # Out-of-order query times exercise the snapshot LRU too.
        for t in (0.0, 5.0, 2.5, 40.0, 39.0, 41.0):
            positions = {nid: m.position(t) for nid, m in models.items()}
            for nid in models:
                assert index.neighbors(nid, t) == brute_force_neighbors(
                    positions, nid, 200.0
                )
        assert index.bucket_moves > 0  # incremental path was exercised


class TestEpochCaching:
    def test_quantum_zero_is_exact(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=50.0)
        index.add(0, lambda t: Vec2(t, 0.0))
        assert index.position(0, 3.7) == Vec2(3.7, 0.0)

    def test_quantum_snaps_positions_down(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=50.0, quantum=0.5)
        index.add(0, lambda t: Vec2(t, 0.0))
        assert index.snap(1.74) == 1.5
        assert index.position(0, 1.74) == Vec2(1.5, 0.0)
        assert index.position(0, 1.5) == index.position(0, 1.99)

    def test_point_queries_do_not_build_snapshots(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=50.0)
        index.add(0, lambda t: Vec2(0.0, 0.0))
        index.add(1, lambda t: Vec2(10.0, 0.0))
        assert index.distance(0, 1, 1.0) == 10.0
        assert index.within(0, 1, 1.0, 10.0)
        assert not index.within(0, 0, 1.0, 10.0)
        assert index.snapshots_built == 0
        index.neighbors(0, 1.0)
        assert index.snapshots_built == 1
        # Repeat queries at the same instant reuse the snapshot.
        index.neighbors(1, 1.0)
        index.position(0, 1.0)
        assert index.snapshots_built == 1

    def test_snapshot_lru_bounded(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=50.0, max_snapshots=2)
        index.add(0, lambda t: Vec2(0.0, 0.0))
        for t in range(10):
            index.neighbors(0, float(t))
        assert index.snapshots_built == 10
        assert len(index._snapshots) == 2

    def test_neighbor_map_matches_per_node_queries(self):
        rng = random.Random(4)
        field = Field(500.0, 500.0)
        positions = {i: field.random_point(rng) for i in range(30)}
        index = make_index(field, positions, radius=150.0)
        nmap = index.neighbor_map(0.0)
        assert sorted(nmap) == sorted(positions)
        for nid in positions:
            assert nmap[nid] == index.neighbors(nid, 0.0)

    def test_nodes_within_arbitrary_point(self):
        field = Field(100.0, 100.0)
        positions = {0: Vec2(10.0, 10.0), 1: Vec2(90.0, 90.0)}
        index = make_index(field, positions, radius=20.0)
        assert index.nodes_within(Vec2(12.0, 10.0), 0.0, 5.0) == [0]
        assert index.nodes_within(Vec2(50.0, 50.0), 0.0, 100.0) == [0, 1]


class TestMembership:
    def test_unknown_and_duplicate_ids(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=10.0)
        index.add(0, lambda t: Vec2(0.0, 0.0))
        with pytest.raises(TopologyError):
            index.position(99, 0.0)
        with pytest.raises(TopologyError):
            index.neighbors(99, 0.0)
        with pytest.raises(TopologyError):
            index.add(0, lambda t: Vec2(1.0, 1.0))

    def test_remove_invalidates(self):
        field = Field(100.0, 100.0)
        positions = {0: Vec2(0.0, 0.0), 1: Vec2(5.0, 0.0)}
        index = make_index(field, positions, radius=10.0)
        assert index.neighbors(0, 0.0) == [1]
        index.remove(1)
        assert index.neighbors(0, 0.0) == []
        with pytest.raises(TopologyError):
            index.remove(1)

    def test_invalid_configs_rejected(self):
        field = Field(100.0, 100.0)
        with pytest.raises(ConfigurationError):
            TopologyIndex(field, radius=-1.0)
        with pytest.raises(ConfigurationError):
            TopologyIndex(field, radius=10.0, quantum=-0.1)
        with pytest.raises(ConfigurationError):
            TopologyIndex(field, radius=10.0, max_snapshots=0)


SKIN_FIELD = Field(800.0, 800.0)
SKIN_RADIUS = 200.0


def _mixed_models(seed):
    """Waypoint, direction, scripted-path and static terminals together."""
    rng = random.Random(seed)
    models = [
        RandomWaypoint(SKIN_FIELD, random.Random(rng.getrandbits(32)), 20.0, pause_time=0.5)
        for _ in range(14)
    ]
    models += [
        RandomDirection(SKIN_FIELD, random.Random(rng.getrandbits(32)), 15.0, pause_time=0.2)
        for _ in range(6)
    ]
    models.append(
        WaypointPath(
            [(0.0, Vec2(0.0, 400.0)), (10.0, Vec2(250.0, 400.0)), (12.0, Vec2(250.0, 350.0))]
        )
    )
    models += [StaticPosition(SKIN_FIELD.random_point(rng)) for _ in range(4)]
    return models


def _skin_window(models):
    """Half-width (s) of a skin-list window over ``models``."""
    return SKIN_FRACTION * SKIN_RADIUS / (4.0 * max(m.speed_bound for m in models))


# One step of a query sequence: ("at", dt) moves the clock by dt and queries
# every node; ("toggle", k) flips node k's activity at the current instant.
_step = st.one_of(
    st.tuples(st.just("at"), st.floats(0.0, 0.05)),  # forward, MAC event spacing
    st.tuples(st.just("at"), st.floats(-0.02, 0.0)),  # back to a tx.start
    st.tuples(st.just("at"), st.just(0.0)),  # the same instant again
    st.tuples(st.just("at"), st.sampled_from(["+w", "-w", "+w+", "+w-", "2w"])),
    st.tuples(st.just("toggle"), st.integers(0, 24)),
)


class TestSkinLists:
    """Bounded-speed registrations answer from Verlet skin lists; every
    answer must equal brute force and an unbounded (per-instant) index."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        quantum=st.sampled_from([0.0, 0.05]),
        start=st.floats(0.0, 30.0),
        steps=st.lists(_step, min_size=1, max_size=25),
    )
    def test_skin_answers_are_exact(self, seed, quantum, start, steps):
        models = _mixed_models(seed)
        window = _skin_window(models)
        jumps = {
            "+w": window,
            "-w": -window,
            "+w+": window * (1 + 1e-12),
            "+w-": window * (1 - 1e-12),
            "2w": 2.0 * window,
        }
        skin = TopologyIndex(SKIN_FIELD, radius=SKIN_RADIUS, quantum=quantum)
        plain = TopologyIndex(SKIN_FIELD, radius=SKIN_RADIUS, quantum=quantum)
        for nid, model in enumerate(models):
            skin.add(nid, model.position, speed_bound=model.speed_bound)
            plain.add(nid, model.position)
        inactive = set()
        t = start
        for kind, arg in steps:
            if kind == "toggle":
                active = arg in inactive
                inactive.symmetric_difference_update({arg})
                skin.set_active(arg, active)
                plain.set_active(arg, active)
                continue
            t = max(0.0, t + (jumps[arg] if isinstance(arg, str) else arg))
            ts = skin.snap(t)
            positions = {
                nid: m.position(ts) for nid, m in enumerate(models) if nid not in inactive
            }
            for nid, model in enumerate(models):
                expected = sorted(
                    b
                    for b, p in positions.items()
                    if b != nid and model.position(ts).distance_to(p) <= SKIN_RADIUS
                )
                assert skin.neighbors(nid, t) == expected
                assert plain.neighbors(nid, t) == expected

    def test_backward_queries_reuse_the_window(self):
        models = _mixed_models(5)
        index = TopologyIndex(SKIN_FIELD, radius=SKIN_RADIUS)
        for nid, model in enumerate(models):
            index.add(nid, model.position, speed_bound=model.speed_bound)
        window = _skin_window(models)
        index.neighbors(0, 10.0)
        for t in (10.0 - 0.5 * window, 10.0 + window, 10.0 - window, 10.0):
            index.neighbors(1, t)
        assert index.snapshots_built == 1
        index.neighbors(1, 10.0 + 1.01 * window)
        assert index.snapshots_built == 2

    def test_rebuilds_follow_the_speed_bound(self):
        field = Field(1000.0, 1000.0)
        streams = RandomStreams(17)
        models = [
            RandomWaypoint(field, streams.stream(f"mobility/{i}"), 20.0, pause_time=3.0)
            for i in range(50)
        ]
        index = TopologyIndex(field, radius=250.0)
        for nid, model in enumerate(models):
            index.add(nid, model.position, speed_bound=model.speed_bound)
        for k in range(1000):
            t = k / 1000.0
            nid = k % 50
            positions = {b: m.position(t) for b, m in enumerate(models)}
            assert index.neighbors(nid, t) == brute_force_neighbors(positions, nid, 250.0)
        # Windows of 25 m / (4 * 20 m/s) = 0.3125 s: four builds in 1 s,
        # against 1000 without a bound.
        assert index.snapshots_built <= 5

    def test_membership_changes_drop_the_lists(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=10.0)
        index.add(0, lambda t: Vec2(0.0, 0.0), speed_bound=0.0)
        index.add(1, lambda t: Vec2(5.0, 0.0), speed_bound=0.0)
        assert index.neighbors(0, 0.0) == [1]
        assert index.neighbors(0, 50.0) == [1]
        assert index.snapshots_built == 1  # nothing moves: one window forever
        index.set_active(1, False)
        assert index.neighbors(0, 50.0) == []
        index.set_active(1, True)
        index.add(2, lambda t: Vec2(0.0, 5.0), speed_bound=0.0)
        assert index.neighbors(0, 50.0) == [1, 2]
        index.remove(1)
        assert index.neighbors(0, 50.0) == [2]

    def test_removing_the_fastest_node_widens_the_window(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=10.0)  # skin 1 m
        index.add(0, lambda t: Vec2(0.0, 0.0), speed_bound=0.0)
        index.add(1, lambda t: Vec2(5.0, 0.0), speed_bound=1.0)
        index.add(2, lambda t: Vec2(90.0, 90.0), speed_bound=50.0)

        def builds_for(times, expected):
            before = index.snapshots_built
            for t in times:
                assert index.neighbors(0, t) == expected
            return index.snapshots_built - before

        times = [0.0, 0.1, 0.2]
        assert builds_for(times, [1]) == 3  # v_max 50: window 5 ms
        index.remove(2)
        assert builds_for(times, [1]) == 1  # v_max 1: window 0.25 s
        index.remove(1)
        assert builds_for([0.0, 10.0, 1e6], []) == 1  # nothing moves

    def test_unbounded_node_disables_reuse(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=10.0)
        index.add(0, lambda t: Vec2(0.0, 0.0), speed_bound=0.0)
        index.add(1, lambda t: Vec2(t, 0.0))
        for t in (0.0, 5.0, 9.0, 11.0):
            assert index.neighbors(0, t) == ([1] if t <= 10.0 else [])
        assert index.snapshots_built == 4

    @pytest.mark.parametrize("bound", [-1.0, math.nan])
    def test_invalid_speed_bound_rejected(self, bound):
        index = TopologyIndex(Field(100.0, 100.0), radius=10.0)
        with pytest.raises(ConfigurationError):
            index.add(0, lambda t: Vec2(0.0, 0.0), speed_bound=bound)


class TestNetworkFacade:
    """The Network keeps its old topology API, now index-backed."""

    def test_static_network_neighbors_match_brute_force(self, sim, streams):
        rng = random.Random(11)
        coords = [(rng.uniform(0, 1200), rng.uniform(0, 1200)) for _ in range(40)]
        network, _ = build_static_network(sim, streams, coords)
        positions = {n.id: n.position(0.0) for n in network.nodes()}
        for nid in network.node_ids:
            assert network.neighbors(nid, 0.0) == brute_force_neighbors(
                positions, nid, network.channel.tx_range
            )

    def test_adjacency_is_bulk_neighbor_map(self, sim, streams):
        network, _ = build_static_network(
            sim, streams, [(0, 0), (100, 0), (240, 0), (600, 0)]
        )
        assert network.adjacency(0.0) == network.neighbor_map(0.0)
        assert network.adjacency(0.0) == {
            nid: network.neighbors(nid, 0.0) for nid in network.node_ids
        }

    def test_network_exposes_topology_index(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        assert isinstance(network.topology, TopologyIndex)
        assert network.topology.radius == network.channel.tx_range
        assert len(network.topology) == 2
