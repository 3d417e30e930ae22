"""Shared test helpers: deterministic channels and tiny static networks.

The key trick for protocol tests: a :class:`ChannelConfig` with zero
fading sigma makes the CSI class a *deterministic* function of distance
(snr = 36 - 30*log10(d/25) with the default path loss):

====================  =========
distance              class
====================  =========
d <= ~99.5 m          A
~99.5 < d <= ~158 m   B
~158 < d <= 250 m     C
beyond 250 m          out of range
====================  =========

so tests can stage exact channel qualities by node placement.
"""

from __future__ import annotations

from repro.channel.model import ChannelConfig
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.mac.csma import MacConfig
from repro.metrics.collector import MetricsCollector
from repro.mobility.static import StaticPosition
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "make_deterministic_channel_config",
    "build_static_network",
    "attach_protocols",
    "send_app_packet",
]


def make_deterministic_channel_config() -> ChannelConfig:
    """Channel with no fading: CSI class is a pure function of distance."""
    return ChannelConfig(shadow_sigma_db=0.0, fast_sigma_db=0.0)


def build_static_network(
    sim: Simulator,
    streams: RandomStreams,
    positions,
    duration: float = 100.0,
    channel_config: ChannelConfig = None,
    mac_config: MacConfig = None,
):
    """A network of static nodes at explicit positions.

    Returns ``(network, metrics)``.
    """
    metrics = MetricsCollector(duration)
    field = Field(5000.0, 5000.0)
    network = Network(
        sim,
        field,
        streams,
        metrics,
        channel_config=channel_config or make_deterministic_channel_config(),
        mac_config=mac_config,
    )
    for pos in positions:
        network.add_node(StaticPosition(Vec2(*pos)))
    return network, metrics


def attach_protocols(network, metrics, name, config=None):
    """Attach (and start) one protocol instance per node.  Returns them."""
    from repro.routing.registry import create_protocol

    protocols = [
        create_protocol(name, node, network, metrics, config) for node in network.nodes()
    ]
    for proto in protocols:
        proto.start()
    return protocols


def send_app_packet(network, metrics, src, dst, seq=1):
    """Generate one application packet at ``src`` addressed to ``dst``."""
    from repro.net.packet import DataPacket

    pkt = DataPacket(src=src, dst=dst, seq=seq, created_at=network.sim.now)
    metrics.record_generated(pkt)
    network.node(src).routing.handle_app_packet(pkt)
    return pkt
