"""Micro-benchmark: grid-backed neighbour queries vs. the seed brute force.

Replays the simulator's hottest query pattern — every node asks for its
neighbour set at a sequence of instants, exactly what the MAC does per
transmission — at n ∈ {50, 200, 500} with constant node density (the
field grows with n, as any credible MANET scale-up does).  The seed
implementation is reproduced faithfully, one-slot position memo included.

Results land in ``BENCH_topology.json`` (repo root) via the shared
``bench_json_recorder`` fixture when ``REPRO_BENCH_RECORD=1``, so the perf
trajectory is tracked across changes.
"""

from __future__ import annotations

import math
import time

from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.mobility.waypoint import RandomWaypoint
from repro.sim.rng import RandomStreams
from repro.topology import TopologyIndex

NODE_COUNTS = [50, 200, 500]
TX_RANGE_M = 250.0
QUERY_TIMES = [0.0, 1.5, 3.0, 4.5, 6.0]
#: Paper density: 50 terminals per 1000 m x 1000 m.
BASE_SIDE_M = 1000.0


class _SeedNodeView:
    """The seed's per-node position path: mobility + one-slot memo."""

    __slots__ = ("mobility", "_pos_t", "_pos_v")

    def __init__(self, mobility):
        self.mobility = mobility
        self._pos_t = -1.0
        self._pos_v = None

    def position(self, t):
        if t == self._pos_t:
            return self._pos_v
        value = self.mobility.position(t)
        self._pos_t = t
        self._pos_v = value
        return value


def _make_field_nodes(n):
    side = BASE_SIDE_M * math.sqrt(n / 50.0)
    field = Field(side, side)
    streams = RandomStreams(1234 + n)
    nodes = {
        i: _SeedNodeView(
            RandomWaypoint(
                field, streams.stream(f"mobility/{i}"), max_speed=20.0, pause_time=3.0
            )
        )
        for i in range(n)
    }
    return field, nodes


def _seed_neighbors(nodes, node_id, t):
    """Verbatim port of the seed ``Network.neighbors`` brute-force scan."""
    origin = nodes[node_id].position(t)
    result = []
    for nid, node in nodes.items():
        if nid == node_id:
            continue
        if origin.distance_to(node.position(t)) <= TX_RANGE_M:
            result.append(nid)
    return result


def _run_workload(query_fn, n):
    total = 0
    for t in QUERY_TIMES:
        for nid in range(n):
            total += len(query_fn(nid, t))
    return total


def _time_workload(query_fn, n, repeats=3):
    best = math.inf
    total = 0
    for _ in range(repeats):
        start = time.perf_counter()
        total = _run_workload(query_fn, n)
        best = min(best, time.perf_counter() - start)
    return best, total


def test_topology_index_speedup(bench_json_recorder):
    payload = {
        "tx_range_m": TX_RANGE_M,
        "query_times": QUERY_TIMES,
        "densities_const": True,
        "results": {},
    }
    for n in NODE_COUNTS:
        field, nodes = _make_field_nodes(n)
        brute_s, brute_total = _time_workload(
            lambda nid, t: _seed_neighbors(nodes, nid, t), n
        )

        field, nodes = _make_field_nodes(n)  # fresh memos for the index run
        index = TopologyIndex(field, radius=TX_RANGE_M)
        for nid, node in nodes.items():
            index.add(nid, node.position)
        grid_s, grid_total = _time_workload(index.neighbors, n)

        # Same trajectories => identical neighbour degree sums (the grid
        # returns sorted lists, the seed scan insertion order; sizes match).
        assert grid_total == brute_total
        speedup = brute_s / grid_s if grid_s > 0 else math.inf
        payload["results"][str(n)] = {
            "queries": len(QUERY_TIMES) * n,
            "brute_force_s": round(brute_s, 6),
            "grid_s": round(grid_s, 6),
            "speedup": round(speedup, 2),
        }
        print(
            f"\nn={n}: brute {brute_s*1e3:.2f} ms, grid {grid_s*1e3:.2f} ms, "
            f"speedup {speedup:.1f}x"
        )
    bench_json_recorder("topology", payload)
    # Acceptance bar: >= 5x at 200 nodes (and it should only grow with n).
    assert payload["results"]["200"]["speedup"] >= 5.0


def test_topology_index_query_rate(benchmark):
    """Raw pytest-benchmark number for the grid path at n=200."""
    field, nodes = _make_field_nodes(200)
    index = TopologyIndex(field, radius=TX_RANGE_M)
    for nid, node in nodes.items():
        index.add(nid, node.position)

    clock = [0.0]

    def query_all():
        clock[0] += 0.5
        t = clock[0]
        return sum(len(index.neighbors(nid, t)) for nid in range(200))

    benchmark(query_all)
