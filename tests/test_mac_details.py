"""Detailed CSMA/CA behaviour tests: backoff, staleness, serialization."""

import pytest

from repro.errors import ConfigurationError
from repro.mac.csma import MacConfig
from repro.routing.packets import Beacon

from tests.helpers import build_static_network


class TestMacConfigValidation:
    """Every invalid MacConfig field is rejected at construction."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bit_rate_bps": 0.0},
            {"bit_rate_bps": -250_000.0},
            {"queue_capacity": 0},
            {"initial_defer_max_s": -0.001},
            {"backoff_min_s": 0.0},
            {"backoff_min_s": 0.05, "backoff_max_s": 0.01},
            {"max_attempts": 0},
            {"cs_range_factor": 0.0},
            {"queue_residence_s": 0.0},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MacConfig(**kwargs)

    def test_defaults_and_boundary_values_accepted(self):
        MacConfig()  # paper defaults
        MacConfig(backoff_min_s=0.01, backoff_max_s=0.01)  # min == max is legal
        MacConfig(max_attempts=1)
        MacConfig(queue_residence_s=None)  # None disables staleness


class TestBackoff:
    def test_sender_defers_while_peer_transmits(self, sim, streams):
        """Two co-located senders: their transmissions never overlap."""
        network, metrics = build_static_network(sim, streams, [(0, 0), (50, 0), (100, 0)])
        for _ in range(10):
            network.node(0).mac.send(Beacon(sim.now, origin=0))
            network.node(1).mac.send(Beacon(sim.now, origin=1))
        sim.run(until=2.0)
        # With carrier sensing at 50 m separation, collisions at node 2
        # require near-simultaneous starts, which initial defer makes rare;
        # most of the 20 transmissions must be received cleanly.
        assert metrics.events.get("mac_collision", 0) < 10
        assert metrics.control_tx_count["beacon"] == 20

    def test_backoff_exhaustion_drops(self, sim, streams):
        """A saturated channel forces backoff drops eventually."""
        config = MacConfig(max_attempts=2, backoff_max_s=0.004, queue_capacity=100)
        network, metrics = build_static_network(
            sim, streams, [(0, 0), (30, 0), (60, 0)], mac_config=config
        )
        # Three chattering stations in one collision domain.
        for _ in range(60):
            for nid in range(3):
                network.node(nid).mac.send(Beacon(sim.now, origin=nid))
        sim.run(until=5.0)
        assert metrics.events.get("mac_backoff_drop", 0) > 0

    def test_exhaustion_drops_packet_and_pumps_next(self, sim, streams):
        """The max_attempts path: drop counted, event recorded, queue pumped.

        A foreign transmission occupies the channel for 0.5 s, so every
        attempt senses busy and each queued packet burns through its two
        allowed attempts and is dropped — the second packet's drop proves
        the queue re-pumped after the first.  Once the channel clears, a
        fresh packet must go out normally.
        """
        config = MacConfig(max_attempts=2, queue_capacity=10)
        network, metrics = build_static_network(
            sim, streams, [(0, 0), (30, 0)], mac_config=config
        )
        mac = network.node(0).mac
        # Park a long transmission on the air at node 1 (30 m away, well
        # inside carrier-sense range): the channel is busy until t=0.5.
        blocker = Beacon(0.0, origin=1)
        network.medium.begin(1, 0.0, 0.5, blocker)
        mac.send(Beacon(sim.now, origin=0))
        mac.send(Beacon(sim.now, origin=0))
        sim.run(until=0.4)
        assert mac.dropped == 2
        assert metrics.events.get("mac_backoff_drop", 0) == 2
        assert mac.sent == 0
        assert mac.queue_length == 0
        # Channel clear again: the send cycle must still work.
        sim.run(until=1.0)
        mac.send(Beacon(sim.now, origin=0))
        sim.run(until=2.0)
        assert mac.sent == 1
        assert metrics.control_tx_count["beacon"] == 1

    def test_phantom_attempt_counted_when_queue_drains(self, sim, streams):
        """An attempt whose packet went stale in the queue is a counted
        no-op (``mac_phantom_attempt``), not a silent return, and it ends
        the send cycle so the MAC is not wedged for the next packet."""
        config = MacConfig(queue_residence_s=0.001, initial_defer_max_s=0.01)
        network, metrics = build_static_network(
            sim, streams, [(0, 0), (100, 0)], mac_config=config
        )
        mac = network.node(0).mac
        # This seed's first two defer draws (3.0 ms, 8.6 ms) outlive the
        # 1 ms residence limit — both packets expire before their attempt
        # fires; the third draw (0.31 ms) beats it and transmits.
        mac.send(Beacon(sim.now, origin=0))
        sim.run(until=0.5)
        assert metrics.events.get("mac_phantom_attempt", 0) == 1
        assert mac.sent == 0
        assert mac.queue_length == 0
        # The cycle ended cleanly each time: the MAC is never wedged.
        mac.send(Beacon(sim.now, origin=0))
        sim.run(until=1.0)
        assert metrics.events.get("mac_phantom_attempt", 0) == 2
        mac.send(Beacon(sim.now, origin=0))
        sim.run(until=1.5)
        assert mac.sent == 1
        assert metrics.control_tx_count["beacon"] == 1

    def test_stale_control_packets_expire_in_queue(self, sim, streams):
        """Packets older than queue_residence_s die without transmission."""
        config = MacConfig(queue_residence_s=0.05, queue_capacity=100)
        network, metrics = build_static_network(
            sim, streams, [(0, 0), (100, 0)], mac_config=config
        )
        mac = network.node(0).mac
        for _ in range(100):
            mac.send(Beacon(sim.now, origin=0))
        sim.run(until=5.0)
        # 100 beacons at ~1.6 ms airtime each need ~160 ms more than the
        # 50 ms staleness limit allows: a chunk must have expired unsent.
        assert metrics.control_tx_count["beacon"] < 100

    def test_sent_counter(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        mac = network.node(0).mac
        for _ in range(5):
            mac.send(Beacon(sim.now, origin=0))
        sim.run(until=1.0)
        assert mac.sent == 5
        assert mac.queue_length == 0


class TestLinkStateCache:
    def test_next_hop_cache_invalidated_by_lsa(self, sim, streams):
        import math

        from repro.routing.packets import LinkStateAd
        from tests.helpers import attach_protocols

        network, metrics = build_static_network(
            sim, streams, [(0, 0), (150, 0), (300, 0)]
        )
        protos = attach_protocols(network, metrics, "link_state")
        assert protos[0]._next_hop(2) == 1  # populates the cache
        # Fresh LSA: node 1 lost its link to 2.
        lsa = LinkStateAd(sim.now, origin=1, seq=999, entries=[(2, math.inf)])
        protos[0].on_lsa(lsa, from_id=1)
        assert protos[0]._next_hop(2) is None  # recomputed, now unreachable
