"""Per-node unslotted CSMA/CA transmitter for the common channel.

Transmission procedure (per queued packet):

1. wait a short random *initial defer* (decorrelates the simultaneous
   rebroadcasts a flood produces — the unslotted equivalent of DIFS plus a
   first backoff draw);
2. carrier-sense; if busy, back off for a random interval drawn from a
   doubling contention window and go to 2 (up to ``max_attempts`` tries,
   then the packet is dropped);
3. transmit for ``size_bits / bit_rate`` seconds.  Delivery and collisions
   are resolved at the end of the transmission by the medium.

Every transmission — even one that collides at every receiver — is counted
into routing overhead, matching the paper's "each time the common channel
is used to transmit a routing packet, this is counted as one transmission".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Set

from repro.errors import ConfigurationError
from repro.mac.medium import CommonChannelMedium, Transmission
from repro.metrics.collector import MetricsCollector
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.channel.model import ChannelModel

__all__ = ["CsmaMac", "MacConfig", "ReceptionBatch"]


class ReceptionBatch:
    """One completed broadcast, resolved for its whole delivery set.

    The unit of work the MAC hands the network: the transmitted packet,
    every receiver that was in decode range at transmission start, and the
    subset that lost the packet to a collision (already resolved by the
    medium's batched interference query).  Downstream dispatch iterates
    the survivors once instead of re-entering the network per receiver.
    """

    __slots__ = ("packet", "sender", "receivers", "lost", "completed_at")

    def __init__(
        self,
        packet: Packet,
        sender: int,
        receivers: List[int],
        lost: Set[int],
        completed_at: float,
    ) -> None:
        self.packet = packet
        self.sender = sender
        self.receivers = receivers
        self.lost = lost
        self.completed_at = completed_at

    @property
    def delivered_count(self) -> int:
        """Receivers that actually decode the packet."""
        return len(self.receivers) - len(self.lost)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReceptionBatch(sender={self.sender}, kind={self.packet.kind!r}, "
            f"receivers={len(self.receivers)}, lost={len(self.lost)})"
        )


# Batch dispatch: the network delivers one ReceptionBatch to all surviving
# receivers through its precomputed handler table.
DispatchFn = Callable[[ReceptionBatch], None]
# Neighbour query: (node_id, time) -> list of node ids in range.  The
# network wires this to its grid-backed TopologyIndex, so the delivery
# set at transmission start is a cell-neighbourhood scan, not an O(n)
# sweep of every mobility model.
NeighborsFn = Callable[[int, float], list]


@dataclass(frozen=True)
class MacConfig:
    """Common-channel MAC tunables.

    Defaults follow the paper where specified (250 kbps common channel) and
    use conventional CSMA/CA constants elsewhere.
    """

    bit_rate_bps: float = 250_000.0
    queue_capacity: int = 30
    initial_defer_max_s: float = 0.0012
    backoff_min_s: float = 0.002
    backoff_max_s: float = 0.032
    max_attempts: int = 7
    #: Carrier-sense / interference range as a multiple of the decode
    #: range.  2.0 is the conventional choice; it makes the common channel
    #: a scarce resource (see repro.mac.medium).
    cs_range_factor: float = 2.0
    #: Routing packets stuck in the MAC queue longer than this are stale
    #: and silently dropped (None disables).  Under saturation this is the
    #: difference between delivering old news and delivering nothing.
    queue_residence_s: float = 0.5

    def __post_init__(self) -> None:
        if self.bit_rate_bps <= 0:
            raise ConfigurationError("bit_rate_bps must be positive")
        if self.queue_capacity <= 0:
            raise ConfigurationError("queue_capacity must be positive")
        if self.initial_defer_max_s < 0:
            raise ConfigurationError("initial_defer_max_s must be >= 0")
        if not (0 < self.backoff_min_s <= self.backoff_max_s):
            raise ConfigurationError("backoff window must satisfy 0 < min <= max")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.cs_range_factor <= 0:
            raise ConfigurationError("cs_range_factor must be positive")
        if self.queue_residence_s is not None and self.queue_residence_s <= 0:
            raise ConfigurationError("queue_residence_s must be positive (or None)")


class CsmaMac:
    """One node's transmitter on the shared common channel."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        medium: CommonChannelMedium,
        channel: "ChannelModel",
        metrics: MetricsCollector,
        config: MacConfig,
        rng: random.Random,
        dispatch: DispatchFn,
        neighbors: NeighborsFn,
    ) -> None:
        self._node_id = node_id
        self._sim = sim
        self._medium = medium
        self._channel = channel
        self._metrics = metrics
        self._config = config
        self._rng = rng
        self._dispatch = dispatch
        self._neighbors = neighbors
        self._queue: DropTailQueue[Packet] = DropTailQueue(
            config.queue_capacity, max_residence=config.queue_residence_s
        )
        self._busy = False  # a send cycle (defer/backoff/tx) is in progress
        self._enabled = True  # radio powered (fault injection flips this)
        self.sent = 0
        self.dropped = 0

    @property
    def node_id(self) -> int:
        """Owning node's id."""
        return self._node_id

    @property
    def config(self) -> MacConfig:
        """This transmitter's MAC configuration."""
        return self._config

    @property
    def queue_length(self) -> int:
        """Packets waiting for the channel (excluding any in flight)."""
        return len(self._queue)

    @property
    def enabled(self) -> bool:
        """True while the radio is powered (see :meth:`set_enabled`)."""
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        """Power the transmitter on/off (fault injection seam).

        Disabling flushes the queue (counted) and rejects new sends; any
        defer/backoff event already scheduled resolves through the
        phantom-attempt path when it fires against the empty queue.  A
        transmission already on the air completes normally — the fault
        lands between frames, not mid-symbol.
        """
        if self._enabled == enabled:
            return
        self._enabled = enabled
        if not enabled:
            stale = self._queue.flush()
            if stale:
                self.dropped += len(stale)
                self._metrics.record_event("mac_node_down_flush", len(stale))

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for broadcast.  Returns False if queue full.

        A full MAC queue silently discards the packet (counted in
        diagnostics) — routing packets are fire-and-forget, exactly the
        situation of a saturated common channel in the paper.
        """
        if not self._enabled:
            self.dropped += 1
            self._metrics.record_event("mac_node_down_drop")
            return False
        if not self._queue.push(packet, self._sim.now):
            self.dropped += 1
            self._metrics.record_event("mac_queue_drop")
            return False
        self._pump()
        return True

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Start the send cycle for the head packet if idle."""
        if self._busy or not self._queue:
            return
        self._busy = True
        defer = self._rng.uniform(0.0, self._config.initial_defer_max_s)
        self._sim.schedule(defer, self._attempt, 1)

    def _attempt(self, attempt: int) -> None:
        """One carrier-sense attempt for the head packet."""
        now = self._sim.now
        packet = self._queue.peek(now)
        if packet is None:
            # Phantom attempt: the queue drained or went entirely stale
            # between scheduling the attempt and firing it.
            self._busy = False
            self._metrics.record_event("mac_phantom_attempt")
            return
        if not self._medium.busy_for(self._node_id, now):
            self._transmit(packet, now)
            return
        config = self._config
        if attempt >= config.max_attempts:
            self._queue.pop(now)
            self.dropped += 1
            self._metrics.record_event("mac_backoff_drop")
            self._busy = False
            self._pump()
            return
        window = min(config.backoff_min_s * (2 ** (attempt - 1)), config.backoff_max_s)
        delay = self._rng.uniform(config.backoff_min_s / 2.0, window)
        self._sim.schedule(delay, self._attempt, attempt + 1)

    def _transmit(self, packet: Packet, now: float) -> None:
        """Channel idle: put ``packet`` on the air."""
        self._queue.pop(now)
        duration = packet.size_bits / self._config.bit_rate_bps
        tx = self._medium.begin(self._node_id, now, now + duration, packet)
        self._metrics.record_control_tx(packet.kind, packet.size_bits, now=now)
        self._metrics.record_radio(tx_bits=packet.size_bits, now=now)
        self._metrics.record_node_radio(self._node_id, tx_bits=packet.size_bits)
        self.sent += 1
        self._sim.schedule(duration, self._complete, tx)

    def _complete(self, tx: Transmission) -> None:
        # Resolve reception at every node in range at transmission start.
        # The whole delivery set is checked against each interferer in one
        # batched medium query instead of per-receiver collision walks, and
        # the outcome travels to the network as one ReceptionBatch: rx
        # energy and collision tallies are aggregated here (every receiver
        # spends listen energy whether or not it decodes the packet) so the
        # dispatch loop below the network seam touches only survivors.
        receivers = [r for r in self._neighbors(self._node_id, tx.start) if r != self._node_id]
        lost = self._medium.lost_receivers(tx, receivers)
        now = self._sim.now
        if receivers:
            self._metrics.record_radio(rx_bits=tx.packet.size_bits * len(receivers), now=now)
            if self._metrics.node_radio_rx is not None:
                for r in receivers:
                    self._metrics.record_node_radio(r, rx_bits=tx.packet.size_bits)
        if lost:
            self._medium.record_losses(len(lost))
            self._metrics.record_event("mac_collision", len(lost))
        if len(lost) < len(receivers):
            self._dispatch(ReceptionBatch(tx.packet, self._node_id, receivers, lost, now))
        self._busy = False
        self._pump()
