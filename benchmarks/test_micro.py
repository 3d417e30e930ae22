"""Microbenchmarks of the simulator's hot paths.

These track the substrate's raw performance (event throughput, channel
sampling, Dijkstra) so regressions in the kernel show up independently of
the figure-level experiments.
"""

import random

from repro.channel.model import ChannelConfig, ChannelModel
from repro.geometry.vector import Vec2
from repro.routing.dijkstra import next_hops
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def test_event_throughput(benchmark):
    """Schedule-and-fire throughput of the event kernel."""

    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 20_000


def test_channel_sampling_throughput(benchmark):
    """Lazily-advanced fading process sampling rate."""
    positions = {i: Vec2(i * 37.0 % 900, i * 59.0 % 900) for i in range(50)}
    model = ChannelModel(ChannelConfig(), RandomStreams(3), lambda nid, t: positions[nid])

    clock = [0.0]  # fading processes require non-decreasing sample times,
    # so the clock persists across benchmark rounds

    def sample_many():
        total = 0
        for _ in range(200):
            clock[0] += 0.05
            for a in range(0, 50, 5):
                for b in range(1, 50, 7):
                    if a != b:
                        total += model.state(a, b, clock[0])
        return total

    benchmark(sample_many)


def test_dijkstra_50_nodes(benchmark):
    """Next-hop computation over a 50-node random geometric graph."""
    rng = random.Random(7)
    positions = {i: (rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(50)}
    adj = {}
    for u in range(50):
        adj[u] = {}
        for v in range(50):
            if u == v:
                continue
            dx = positions[u][0] - positions[v][0]
            dy = positions[u][1] - positions[v][1]
            d = (dx * dx + dy * dy) ** 0.5
            if d <= 250.0:
                adj[u][v] = 1.0 + d / 100.0

    result = benchmark(next_hops, adj, 0)
    assert len(result) >= 1


def _saturated_cell():
    """One 50-node collision domain under sustained beacon pressure.

    Every node sits inside every other node's carrier-sense range, so all
    contention serialises through one channel — the CSMA/CA MAC's worst
    case.  Returns ``(simulator, metrics)`` after 2 simulated seconds.
    """
    from repro.mac.csma import MacConfig
    from repro.routing.packets import Beacon
    from repro.sim.engine import Simulator
    from tests.helpers import build_static_network

    sim = Simulator()
    streams = RandomStreams(seed=77)
    # 50 nodes on a 7x8 grid, 40 m pitch: max diagonal ~370 m, well inside
    # the 500 m carrier-sense range — a single cell.
    positions = [(40.0 * (i % 8), 40.0 * (i // 8)) for i in range(50)]
    network, metrics = build_static_network(
        sim,
        streams,
        positions,
        mac_config=MacConfig(queue_capacity=100),
    )
    for burst in range(8):
        for nid in range(50):
            network.node(nid).mac.send(Beacon(0.0, origin=nid))
    sim.run(until=2.0)
    return sim, metrics


def test_mac_contention(benchmark):
    """Saturated-cell wall time of the CSMA/CA MAC."""
    sim, metrics = benchmark(_saturated_cell)
    assert metrics.control_tx_count["beacon"] > 0


def test_scenario_build(benchmark):
    """Cost of assembling a full 50-node scenario object graph."""
    from repro.experiments.scenario import ScenarioConfig, build_scenario

    config = ScenarioConfig(duration_s=10.0)
    scenario = benchmark(build_scenario, config)
    assert scenario.network.node_count == 50
