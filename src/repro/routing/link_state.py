"""Link-state routing (paper baseline).

The paper's link-state setup (Section III-A): "at the beginning of each
simulation run, an accurate view of the network topology is installed in
each mobile terminal.  When the mobile terminal finds the bandwidth with
its neighbor changes (due to CSI change or link break), it floods this
change throughout the network."  Forwarding is hop-by-hop: every terminal
runs Dijkstra over its *own* link-state database with CSI hop-distance
costs and forwards to the computed next hop.

Faithfully to the paper, *each change* is flooded as its own routing
packet ("each change has to be flooded as routing packet throughout the
network through the common channel") — there is no aggregation.  Under
mobility and fading the offered update load far exceeds the 250 kbps
common channel, updates collide and queue-drop, databases diverge, and
routing loops form; delay and loss grow sharply with speed.  Nothing here
"simulates" loops explicitly; they emerge from stale databases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import DropReason
from repro.net.packet import DataPacket
from repro.routing.base import ProtocolConfig, RoutingProtocol
from repro.routing.dijkstra import next_hops
from repro.routing.packets import LinkStateAd
from repro.sim.timers import PeriodicTimer

__all__ = ["LinkStateProtocol", "LinkStateConfig"]


@dataclass
class LinkStateConfig(ProtocolConfig):
    """Link-state tunables."""

    #: How often a terminal samples its own links for changes (s).
    monitor_interval_s: float = 0.5
    #: Data packets are retried once through a recomputed next hop after a
    #: link failure before being dropped.
    retry_after_failure: bool = True


class LinkStateProtocol(RoutingProtocol):
    """Proactive link-state routing with per-change flooding and Dijkstra."""

    name = "link_state"

    def __init__(self, node, network, metrics, config=None) -> None:
        super().__init__(node, network, metrics, config or LinkStateConfig())
        if not isinstance(self.config, LinkStateConfig):
            merged = LinkStateConfig()
            merged.__dict__.update(self.config.__dict__)
            self.config = merged
        #: Directed LSDB: adj[u][v] = CSI hop cost of link u->v.
        self.adj: Dict[int, Dict[int, float]] = {}
        #: Freshest update sequence seen per directed link (origin, neighbor).
        self._link_seq: Dict[Tuple[int, int], int] = {}
        self._own_seq = 0
        self._monitor: Optional[PeriodicTimer] = None
        self._next_hop_cache: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Start-up: the paper installs an accurate global view at t = 0
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._install_accurate_view()
        interval = self.config.monitor_interval_s
        self._monitor = PeriodicTimer(
            self.sim,
            interval,
            self._monitor_links,
            start_delay=self.rng.uniform(0.5 * interval, 1.5 * interval),
        ).start()

    def stop(self) -> None:
        if self._monitor is not None:
            self._monitor.cancel()

    def _install_accurate_view(self) -> None:
        now = self.sim.now
        # One bulk neighbour map from the topology index, then the whole
        # network's CSI scan as a single flattened channel pipeline.
        self.adj = self.channel.csi_hop_map(self.network.adjacency(now), now)
        self._next_hop_cache = None

    # ------------------------------------------------------------------
    # Periodic self-monitoring: flood one LSA per changed link
    # ------------------------------------------------------------------
    def _monitor_links(self) -> None:
        now = self.sim.now
        me = self.node.id
        # One grid-backed neighbour query + one vectorized CSI pipeline
        # per monitor tick (the per-neighbour Python loop lives in the
        # channel model, not here).
        current: Dict[int, float] = self.channel.csi_hop_distances(
            me, self.network.neighbors(me, now), now
        )
        advertised = self.adj.get(me, {})
        if current == advertised:
            return  # steady state: nothing to flood, nothing to rebuild
        changes: List[Tuple[int, float]] = []
        for v, cost in current.items():
            if advertised.get(v) != cost:
                changes.append((v, cost))
        for v in advertised:
            if v not in current:
                changes.append((v, math.inf))  # withdrawal
        for change in changes:
            self._flood_change(change)
        if changes:
            self.adj[me] = current
            self._next_hop_cache = None

    def _flood_change(self, change: Tuple[int, float]) -> None:
        me = self.node.id
        self._own_seq += 1
        self._link_seq[me, change[0]] = self._own_seq
        lsa = LinkStateAd(self.sim.now, origin=me, seq=self._own_seq, entries=[change])
        self.broadcast_control(lsa)

    def on_lsa(self, lsa: LinkStateAd, from_id: int) -> None:
        if lsa.origin == self.node.id:
            return
        fresh = False
        for neighbor, cost in lsa.entries:
            key = (lsa.origin, neighbor)
            if lsa.seq <= self._link_seq.get(key, -1):
                continue
            self._link_seq[key] = lsa.seq
            links = self.adj.setdefault(lsa.origin, {})
            if math.isinf(cost):
                links.pop(neighbor, None)
            else:
                links[neighbor] = cost
            fresh = True
        if fresh:
            self._next_hop_cache = None
            self.broadcast_control(lsa.relay_copy(self.sim.now))

    # ------------------------------------------------------------------
    # Forwarding: per-node Dijkstra over the local database
    # ------------------------------------------------------------------
    def _next_hop(self, dest: int) -> Optional[int]:
        if self._next_hop_cache is None:
            self._next_hop_cache = next_hops(self.adj, self.node.id)
        return self._next_hop_cache.get(dest)

    def dispatch_data(self, packet: DataPacket) -> None:
        hop = self._next_hop(packet.dst)
        if hop is None:
            self.drop_data(packet, DropReason.NO_ROUTE)
            return
        self.send_data(packet, hop)

    # ------------------------------------------------------------------
    # Link failure: withdraw, flood, optionally retry
    # ------------------------------------------------------------------
    def handle_link_failure(
        self, next_hop: int, packet: DataPacket, queued: List[DataPacket]
    ) -> None:
        me = self.node.id
        now = self.sim.now
        if next_hop in self.adj.get(me, {}):
            del self.adj[me][next_hop]
            self._next_hop_cache = None
            self._flood_change((next_hop, math.inf))
        for dst in {pkt.dst for pkt in [packet] + queued}:
            self.metrics.record_route_broken(me, dst, now)
        for pkt in [packet] + queued:
            if not self.config.retry_after_failure:
                self.drop_data(pkt, DropReason.LINK_FAILURE)
                continue
            hop = self._next_hop(pkt.dst)
            if hop is None or hop == next_hop:
                self.drop_data(pkt, DropReason.LINK_FAILURE)
            else:
                # The recomputed tree already avoids the dead link — the
                # proactive protocol's repair is this immediate reroute.
                self.metrics.record_route_repaired(me, pkt.dst, now)
                self.send_data(pkt, hop)
