"""Property tests for the mobility models and the one snapshot path that
samples them.

Every trajectory is a pure function of time drawn from its model's private
random stream, so no answer may depend on the order in which queries extend
it.  The topology index samples each model once per instant, so every query
path — point, batched, bulk array, scenario facade — must return the model's
exact position.  Hypothesis drives both across models, parameters and
out-of-order query times, including the segment and anchor boundaries.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.mobility import (
    RandomDirection,
    RandomWaypoint,
    StaticPosition,
    WaypointPath,
)
from repro.topology import TopologyIndex

FIELD = Field(1000.0, 700.0)

# Query times include 0, exact small integers (anchor instants of the
# scripted path below), sub-ulp neighbours and far-future points — in
# arbitrary order, so queries interleave with trajectory extension.
times_strategy = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 1.0, 3.0, 5.0, 9.0, 4.999999999999999, 5.000000000000001]),
    ),
    min_size=1,
    max_size=12,
)
seed_strategy = st.integers(0, 2**32 - 1)
speed_strategy = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=30.0))
moving_speed_strategy = st.floats(min_value=0.05, max_value=30.0)
pause_strategy = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))

ANCHORS = [(2.0, Vec2(0.0, 0.0)), (5.0, Vec2(100.0, 50.0)), (9.0, Vec2(100.0, 200.0))]


def _population(seed):
    """Every model kind at once: the shape a scenario hands the index."""
    models = [
        RandomWaypoint(FIELD, random.Random(seed * 8 + i), 12.0, pause_time=1.0)
        for i in range(3)
    ]
    models.append(RandomDirection(FIELD, random.Random(seed * 8 + 3), 6.0, pause_time=0.0))
    models.append(WaypointPath(ANCHORS))
    models.append(StaticPosition(Vec2(9.0, 9.0)))
    return models


def _index(models, **kwargs):
    index = TopologyIndex(FIELD, radius=250.0, **kwargs)
    for nid, model in enumerate(models):
        index.add(nid, model.position)
    return index


def _brute_force_map(positions, radius):
    return {
        a: sorted(b for b, q in positions.items() if b != a and p.distance_to(q) <= radius)
        for a, p in sorted(positions.items())
    }


def _assert_alternating_legs(model, pause):
    """Legs are contiguous, start at the zero-length origin pause and
    alternate move/pause; every pause lasts exactly ``pause`` seconds."""
    segments = model._segments
    first = segments[0]
    assert (first.t_start, first.t_end) == (0.0, 0.0) and first.a == first.b
    for prev, seg in zip(segments, segments[1:]):
        assert seg.t_start == prev.t_end
        assert seg.a == prev.b
        assert FIELD.contains(seg.b)
    for i, seg in enumerate(segments):
        if i % 2 == 0:
            assert seg.a == seg.b
            if i > 0:
                assert seg.t_end == seg.t_start + pause
        else:
            # A leg shorter than one ulp of its start time collapses to an
            # instantaneous jump (Segment's zero-length guard), so only
            # monotonicity holds for every draw.
            assert seg.t_end >= seg.t_start


class TestQueryOrderIndependence:
    @given(seed=seed_strategy, max_speed=speed_strategy, pause=pause_strategy,
           times_a=times_strategy, times_b=times_strategy)
    @settings(max_examples=30, deadline=None)
    def test_waypoint_answers_do_not_depend_on_query_order(
        self, seed, max_speed, pause, times_a, times_b
    ):
        a = RandomWaypoint(FIELD, random.Random(seed), max_speed, pause_time=pause)
        b = RandomWaypoint(FIELD, random.Random(seed), max_speed, pause_time=pause)
        for t in times_a:
            a.position(t)
        for t in times_b:
            b.position(t)
        for t in sorted(set(times_a) | set(times_b) | {0.0, 50.0}):
            assert a.position(t) == b.position(t)
            assert a.speed_at(t) == b.speed_at(t)

    @given(seed=seed_strategy, max_speed=speed_strategy, pause=pause_strategy,
           times_a=times_strategy, times_b=times_strategy)
    @settings(max_examples=30, deadline=None)
    def test_direction_answers_do_not_depend_on_query_order(
        self, seed, max_speed, pause, times_a, times_b
    ):
        a = RandomDirection(FIELD, random.Random(seed), max_speed, pause_time=pause)
        b = RandomDirection(FIELD, random.Random(seed), max_speed, pause_time=pause)
        for t in times_a:
            a.position(t)
        for t in times_b:
            b.speed_at(t)
        for t in sorted(set(times_a) | set(times_b) | {0.0, 50.0}):
            assert a.position(t) == b.position(t)
            assert a.speed_at(t) == b.speed_at(t)


class TestWaypointLegs:
    @given(seed=seed_strategy, max_speed=moving_speed_strategy, pause=pause_strategy)
    @settings(max_examples=30, deadline=None)
    def test_legs_alternate_move_and_pause(self, seed, max_speed, pause):
        m = RandomWaypoint(FIELD, random.Random(seed), max_speed, pause_time=pause)
        m.position(200.0)
        _assert_alternating_legs(m, pause)
        for seg in m._segments[1::2]:
            assert seg.speed <= max_speed * (1 + 1e-9)

    @given(seed=seed_strategy, max_speed=moving_speed_strategy)
    @settings(max_examples=20, deadline=None)
    def test_arrival_instants_return_the_waypoint_exactly(self, seed, max_speed):
        m = RandomWaypoint(FIELD, random.Random(seed), max_speed, pause_time=1.0)
        m.position(100.0)
        for seg in m._segments[1::2]:
            assert m.position(seg.t_end) == seg.b
            assert m.position(seg.t_start) == seg.a


class TestDirectionLegs:
    @given(seed=seed_strategy, max_speed=moving_speed_strategy, pause=pause_strategy)
    @settings(max_examples=30, deadline=None)
    def test_every_leg_ends_on_the_boundary(self, seed, max_speed, pause):
        m = RandomDirection(FIELD, random.Random(seed), max_speed, pause_time=pause)
        m.position(300.0)
        _assert_alternating_legs(m, pause)
        for seg in m._segments[1::2]:
            p = seg.b
            assert min(p.x, p.y, FIELD.width - p.x, FIELD.height - p.y) <= 1e-9
            assert seg.speed <= max_speed * (1 + 1e-9)

    def test_continuity(self):
        m = RandomDirection(FIELD, random.Random(2), 20.0, pause_time=1.0)
        prev = m.position(0.0)
        for i in range(1, 2000):
            cur = m.position(i * 0.25)
            assert prev.distance_to(cur) <= 20.0 * 0.25 + 1e-6
            prev = cur

    def test_negative_time_clamped(self):
        m = RandomDirection(FIELD, random.Random(5), 10.0)
        assert m.position(-5.0) == m.position(0.0)
        assert m.speed_at(-5.0) == m.speed_at(0.0)

    def test_explicit_start_position(self):
        m = RandomDirection(FIELD, random.Random(1), 10.0, start=Vec2(500.0, 350.0))
        assert m.position(0.0) == Vec2(500.0, 350.0)


class TestWaypointPathAnchors:
    def test_anchor_instants_evaluate_exactly(self):
        path = WaypointPath(ANCHORS)
        for t, point in ANCHORS:
            assert path.position(t) == point

    def test_speed_selects_the_leg_starting_at_an_anchor(self):
        path = WaypointPath(ANCHORS)
        assert path.speed_at(1.0) == 0.0
        assert path.speed_at(2.0) == pytest.approx(Vec2(100.0, 50.0).norm() / 3.0)
        assert path.speed_at(5.0) == pytest.approx(150.0 / 4.0)
        assert path.speed_at(9.0) == 0.0


class TestSnapshotPath:
    @given(seed=seed_strategy, times=times_strategy)
    @settings(max_examples=25, deadline=None)
    def test_every_query_path_returns_model_positions(self, seed, times):
        models = _population(seed)
        index = _index(models)
        ids = list(range(len(models)))
        for t in times:
            expected = [m.position(t) for m in models]
            # Point queries before and after the snapshot build.
            assert index.positions_of(ids, t) == expected
            coords, slot_of = index.coords_view(t)
            assert slot_of is None
            assert [tuple(row) for row in coords.tolist()] == [tuple(p) for p in expected]
            assert index.positions(t) == dict(enumerate(expected))
            assert [index.position(nid, t) for nid in ids] == expected

    @given(seed=seed_strategy, times_a=times_strategy, times_b=times_strategy)
    @settings(max_examples=20, deadline=None)
    def test_query_order_cannot_perturb_neighbor_maps(self, seed, times_a, times_b):
        models_a, models_b = _population(seed), _population(seed)
        index_a, index_b = _index(models_a), _index(models_b)
        for t in times_a:
            index_a.neighbor_map(t)
        for t in times_b:
            index_b.neighbor_map(t)
        for t in sorted(set(times_a) | set(times_b) | {0.0, 50.0}):
            nmap = index_a.neighbor_map(t)
            assert nmap == index_b.neighbor_map(t)
            positions = {nid: m.position(t) for nid, m in enumerate(models_a)}
            assert nmap == _brute_force_map(positions, index_a.radius)

    def test_negative_times_sample_the_origin(self):
        models = _population(3)
        index = _index(models)
        coords, _ = index.coords_view(-5.0)
        assert [tuple(row) for row in coords.tolist()] == [
            tuple(m.position(0.0)) for m in models
        ]

    def test_quantised_snapshots_sample_the_epoch_start(self):
        models = _population(4)
        index = _index(models, quantum=0.5)
        coords, _ = index.coords_view(1.74)
        assert [tuple(row) for row in coords.tolist()] == [
            tuple(m.position(1.5)) for m in models
        ]


class TestScenarioWiring:
    CONFIG = ScenarioConfig(n_nodes=15, duration_s=1.0, seed=11)

    @staticmethod
    def _placements(network, t):
        return [network.position(nid, t) for nid in network.node_ids]

    def test_scenario_positions_come_from_node_models(self):
        network = build_scenario(self.CONFIG).network
        for t in (0.0, 0.5):
            expected = [network.node(nid).mobility.position(t) for nid in network.node_ids]
            assert self._placements(network, t) == expected
            coords, slot_of = network.topology.coords_view(t)
            assert slot_of is None and coords.shape == (15, 2)
            assert [tuple(row) for row in coords.tolist()] == [tuple(p) for p in expected]

    def test_scenario_placements_follow_the_seed(self):
        first = build_scenario(self.CONFIG).network
        again = build_scenario(self.CONFIG).network
        other = build_scenario(self.CONFIG.with_(seed=12)).network
        for t in (0.0, 0.5):
            assert self._placements(first, t) == self._placements(again, t)
        assert self._placements(first, 0.0) != self._placements(other, 0.0)

    def test_direction_scenario_uses_direction_models(self):
        network = build_scenario(self.CONFIG.with_(mobility_model="direction")).network
        assert all(isinstance(n.mobility, RandomDirection) for n in network.nodes())
        assert self._placements(network, 0.5) == [
            n.mobility.position(0.5) for n in network.nodes()
        ]

    def test_position_epoch_freezes_positions_per_quantum(self):
        network = build_scenario(self.CONFIG.with_(position_epoch_s=0.25)).network
        assert self._placements(network, 0.6) == [
            n.mobility.position(0.5) for n in network.nodes()
        ]
