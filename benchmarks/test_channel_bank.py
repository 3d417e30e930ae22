"""Micro-benchmark: vectorized channel bank vs. a per-pair fading store.

Replays the channel layer's hottest pattern — every terminal classifies
its whole neighbour set (the fading → SNR → classify pipeline behind
link monitors, accurate-view installs and CSI scans) — at n ∈ {50, 200,
500} terminals in the paper's fixed 1000 m x 1000 m arena, so density
(and neighbour-set size) grows with n exactly like the congested regimes
the paper's figures probe.  ``ChannelModel`` (``csi_hop_map`` for the
network-wide scan, ``csi_hop_distances`` for per-set queries) is timed
against :class:`_PairStore`, the dict of per-pair
:class:`~repro.channel.fading.CompositeFadingProcess` objects the bank
replaced, over identical trajectories and neighbour sets.

A 1000-node RICA smoke scenario rides along to prove the ROADMAP's
">500 nodes" scale is now CI-tolerable end-to-end.

Results land in ``BENCH_channel.json`` (repo root) via the shared
``bench_json_recorder`` fixture when ``REPRO_BENCH_RECORD=1``.  The in-test assertion (>= 2x at
n = 200) is the CI regression gate; the recorded value tracks the
actual speedup (~5x+ expected).
"""

from __future__ import annotations

import math
import time

from repro.channel.csi import HOP_DISTANCE_BY_INDEX
from repro.channel.fading import CompositeFadingProcess
from repro.channel.model import ChannelConfig, ChannelModel
from repro.geometry.field import Field
from repro.mobility.waypoint import RandomWaypoint
from repro.sim.rng import RandomStreams
from repro.topology import TopologyIndex

NODE_COUNTS = [50, 200, 500]
#: The paper's arena; density (and neighbour count) grows with n.
SIDE_M = 1000.0
#: One scan per instant; the warm-up pass allocates every pair's fading
#: state (both backends pay that once per simulation, not per query).
WARMUP_TIMES = [0.5, 1.5, 2.5, 3.5, 4.5]
QUERY_TIMES = [5.5, 6.5, 7.5, 8.5, 9.5]
SMOKE_NODES = 1000
SMOKE_DURATION_S = 3.0


def _make_topology(n):
    field = Field(SIDE_M, SIDE_M)
    streams = RandomStreams(4321 + n)
    topo = TopologyIndex(field, radius=250.0)
    for i in range(n):
        topo.add(
            i,
            RandomWaypoint(
                field, streams.stream(f"mobility/{i}"), max_speed=20.0, pause_time=3.0
            ).position,
        )
    return topo


class _PairStore:
    """The per-pair object fading store: one ``CompositeFadingProcess``
    per unordered pair, sampled and classified one pair at a time."""

    def __init__(self, topo, streams):
        self._topo = topo
        self._streams = streams
        self._config = ChannelConfig()
        self._procs = {}

    def _process(self, a, b):
        key = (a, b) if a < b else (b, a)
        proc = self._procs.get(key)
        if proc is None:
            cfg = self._config
            proc = CompositeFadingProcess(
                self._streams.stream(f"channel/{key[0]}-{key[1]}"),
                shadow_sigma_db=cfg.shadow_sigma_db,
                shadow_tau_s=cfg.shadow_tau_s,
                fast_sigma_db=cfg.fast_sigma_db,
                fast_tau_s=cfg.fast_tau_s,
            )
            self._procs[key] = proc
        return proc

    def csi_hop_map(self, adjacency, t):
        position = self._topo.position
        mean = self._config.path_loss.mean_snr_db
        classify = self._config.thresholds.classify
        out = {}
        for a, others in adjacency.items():
            origin = position(a, t)
            out[a] = {
                b: HOP_DISTANCE_BY_INDEX[
                    classify(
                        mean(origin.distance_to(position(b, t)))
                        + self._process(a, b).sample(t)
                    )
                ]
                for b in others
            }
        return out


def _make_model(topo, store):
    if store == "pairs":
        return _PairStore(topo, RandomStreams(99))
    return ChannelModel(ChannelConfig(), RandomStreams(99), topo.position, topology=topo)


def _time_scan(n, store, bulk, repeats=3):
    """Wall time of a full-network neighbour-set CSI scan.

    ``bulk=True`` uses the one-call map API; ``bulk=False`` issues one
    ``csi_hop_distances`` per terminal.  Fresh models per repeat so every
    repeat advances fading state identically.
    """
    best = math.inf
    pairs = 0
    for _ in range(repeats):
        topo = _make_topology(n)
        model = _make_model(topo, store)
        for t in WARMUP_TIMES:  # allocate pair state off the clock
            model.csi_hop_map(topo.neighbor_map(t), t)
        adjacency = {t: topo.neighbor_map(t) for t in QUERY_TIMES}
        pairs = sum(len(nbrs) for adj in adjacency.values() for nbrs in adj.values())
        start = time.perf_counter()
        for t in QUERY_TIMES:
            adj = adjacency[t]
            if bulk:
                model.csi_hop_map(adj, t)
            else:
                for a, nbrs in adj.items():
                    model.csi_hop_distances(a, nbrs, t)
        best = min(best, time.perf_counter() - start)
    return best, pairs


def test_channel_bank_speedup(bench_json_recorder):
    payload = {
        "side_m": SIDE_M,
        "query_times": QUERY_TIMES,
        "workload": "full-network neighbour-set CSI scan (fading->SNR->classify)",
        "results": {},
    }
    for n in NODE_COUNTS:
        vec_s, pairs = _time_scan(n, "bank", bulk=True)
        vec_set_s, _ = _time_scan(n, "bank", bulk=False)
        scalar_s, scalar_pairs = _time_scan(n, "pairs", bulk=True)
        assert pairs == scalar_pairs  # identical trajectories => same sets
        speedup = scalar_s / vec_s if vec_s > 0 else math.inf
        per_set = scalar_s / vec_set_s if vec_set_s > 0 else math.inf
        payload["results"][str(n)] = {
            "pairs_sampled": pairs,
            "scalar_s": round(scalar_s, 6),
            "vectorized_s": round(vec_s, 6),
            "vectorized_per_set_s": round(vec_set_s, 6),
            "speedup": round(speedup, 2),
            "per_set_speedup": round(per_set, 2),
        }
        print(
            f"\nn={n}: scalar {scalar_s*1e3:.2f} ms, vectorized {vec_s*1e3:.2f} ms "
            f"({vec_set_s*1e3:.2f} ms per-set), speedup {speedup:.1f}x"
        )
    bench_json_recorder("channel", payload)
    # CI regression gate (the acceptance target is ~5x; see BENCH_channel.json).
    assert payload["results"]["200"]["speedup"] >= 2.0


def test_thousand_node_smoke(bench_json_recorder):
    """A 1000-terminal scenario must complete end-to-end at CI scale."""
    from repro.experiments.scenario import ScenarioConfig, run_scenario

    config = ScenarioConfig(
        protocol="rica",
        n_nodes=SMOKE_NODES,
        # Constant paper density: 50 terminals per 1000 m x 1000 m.
        field_size_m=SIDE_M * math.sqrt(SMOKE_NODES / 50.0),
        n_flows=20,
        duration_s=SMOKE_DURATION_S,
        seed=1,
        position_epoch_s=0.2,
    )
    start = time.perf_counter()
    report = run_scenario(config)
    wall_s = time.perf_counter() - start
    print(
        f"\n1000-node smoke: {wall_s:.1f} s wall for {SMOKE_DURATION_S:.0f} s simulated, "
        f"delivery {report.delivery_pct:.1f}%, {report.generated} packets"
    )
    bench_json_recorder(
        "channel",
        {
            "smoke_1000_nodes": {
                "n_nodes": SMOKE_NODES,
                "sim_s": SMOKE_DURATION_S,
                "wall_s": round(wall_s, 2),
                "delivery_pct": round(report.delivery_pct, 2),
                "generated": report.generated,
            }
        },
    )
    assert report.generated > 0
    assert wall_s < 300.0  # loose CI guard; typical dev box ~30 s