"""Per-neighbour store-and-forward data transmitter (CDMA data channels).

Each node owns one :class:`DataLink`, which maintains an independent FCFS
queue per next-hop neighbour (the paper's "10 packets for one connection of
two adjacent mobile terminals") and transmits at the CSI-class rate sampled
at the start of each packet.  Because each directed link uses its own PN
code, transmissions on different links never contend — a link is simply
busy while serving its own queue.

Link-layer reliability: the receiver returns an ACK on the reverse PN code
(its bits count into routing overhead per the paper).  A missing ACK — the
neighbour moved out of the 250 m range — triggers a retry; after
``max_retries`` misses the link is declared broken and the routing
protocol's failure handler receives the failed packet plus everything still
queued on that link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.metrics.collector import DropReason, MetricsCollector
from repro.net.packet import ACK_BYTES, DataPacket
from repro.net.queue import DropTailQueue, QueueDrop
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.channel.model import ChannelModel

__all__ = ["DataLink", "DataLinkConfig"]

# (next_hop, failed_packet, still_queued_packets)
LinkFailureFn = Callable[[int, DataPacket, List[DataPacket]], None]
DeliverFn = Callable[[int, DataPacket, int], None]  # (receiver, packet, sender)


@dataclass(frozen=True)
class DataLinkConfig:
    """Data-plane tunables (paper values where given)."""

    queue_capacity: int = 10  # paper: 10 packets per adjacent-terminal connection
    max_residence_s: float = 3.0  # paper: 3 s maximum buffer time
    max_retries: int = 2
    retry_delay_s: float = 0.02
    ack_bytes: int = ACK_BYTES

    def __post_init__(self) -> None:
        if self.queue_capacity <= 0:
            raise ConfigurationError("queue_capacity must be positive")
        if self.max_residence_s <= 0:
            raise ConfigurationError("max_residence_s must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_delay_s < 0:
            raise ConfigurationError("retry_delay_s must be >= 0")


class DataLink:
    """One node's data-channel transmitters, one queue per neighbour."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        channel: "ChannelModel",
        metrics: MetricsCollector,
        config: DataLinkConfig,
        deliver: DeliverFn,
        on_link_failure: LinkFailureFn,
        alive: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self._node_id = node_id
        self._sim = sim
        self._channel = channel
        self._metrics = metrics
        self._config = config
        self._deliver = deliver
        self._on_link_failure = on_link_failure
        # Liveness oracle for fault injection (Network.is_alive): a dead
        # peer never ACKs and a dead sender abandons its own frames.  None
        # (the default, and every test harness without faults) means
        # everyone is alive — zero overhead on the reference path.
        self._alive = alive
        self._queues: Dict[int, DropTailQueue[DataPacket]] = {}
        self._busy: Dict[int, bool] = {}
        # Bumped by shutdown(): ACK/retry events armed before a crash
        # carry their epoch and no-op (dropping their packet) if they fire
        # into a later one, so a crash cleanly abandons all in-flight ARQ.
        self._epoch = 0
        self.transmissions = 0

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """Owning node's id."""
        return self._node_id

    def queue_length(self, next_hop: int) -> int:
        """Packets queued for ``next_hop``."""
        q = self._queues.get(next_hop)
        return len(q) if q is not None else 0

    def total_queued(self) -> int:
        """Packets queued across all links (ABR's load signal)."""
        return sum(len(q) for q in self._queues.values())

    def is_busy(self, next_hop: int) -> bool:
        """True while a packet is in flight toward ``next_hop``."""
        return self._busy.get(next_hop, False)

    # ------------------------------------------------------------------
    def send(self, packet: DataPacket, next_hop: int) -> bool:
        """Queue ``packet`` on the link to ``next_hop``.

        Returns False if the 10-packet buffer was full (the packet is
        dropped and recorded, as in the paper's congestion-loss mechanism).
        """
        if next_hop == self._node_id:
            raise ConfigurationError("cannot send a packet to self")
        queue = self._queue_for(next_hop)
        ok = queue.push(packet, self._sim.now)
        if ok:
            self._pump(next_hop)
        return ok

    def flush(self, next_hop: int) -> List[DataPacket]:
        """Remove and return all packets queued toward ``next_hop``."""
        queue = self._queues.get(next_hop)
        return queue.flush() if queue is not None else []

    def shutdown(self) -> None:
        """Crash this node's data plane (fault injection seam).

        Every queued packet is dropped (NODE_DOWN), every link goes idle,
        and the epoch bump invalidates all in-flight ACK/retry events —
        when they fire they drop their packet instead of completing, so a
        crashed sender abandons its frames exactly once.  Recovery needs
        no symmetric call: the link restarts lazily on the next send().
        """
        self._epoch += 1
        for queue in self._queues.values():
            for packet in queue.flush():
                self._metrics.record_dropped(packet, DropReason.NODE_DOWN)
        self._busy.clear()

    # ------------------------------------------------------------------
    def _queue_for(self, next_hop: int) -> DropTailQueue:
        queue = self._queues.get(next_hop)
        if queue is None:
            queue = DropTailQueue(
                self._config.queue_capacity,
                self._config.max_residence_s,
                on_drop=self._record_queue_drop,
            )
            self._queues[next_hop] = queue
        return queue

    def _record_queue_drop(self, packet: DataPacket, reason: QueueDrop) -> None:
        if reason is QueueDrop.FULL:
            self._metrics.record_dropped(packet, DropReason.QUEUE_FULL)
        elif reason is QueueDrop.EXPIRED:
            self._metrics.record_dropped(packet, DropReason.RESIDENCE_TIMEOUT)

    def _pump(self, next_hop: int) -> None:
        if self._busy.get(next_hop, False):
            return
        queue = self._queues.get(next_hop)
        if queue is None:
            return
        packet = queue.pop(self._sim.now)
        if packet is None:
            return
        self._busy[next_hop] = True
        self._attempt(packet, next_hop, 0, self._epoch)

    def _attempt(
        self, packet: DataPacket, next_hop: int, retries: int, epoch: int
    ) -> None:
        if epoch != self._epoch:
            # Retry armed before a crash fired into a later epoch: the
            # packet was in flight (not queued), so this is its only drop.
            self._metrics.record_dropped(packet, DropReason.NODE_DOWN)
            return
        now = self._sim.now
        # The CSI class sampled at transmission start sets the rate for the
        # whole packet (ABICM holds a coding/modulation mode per packet).
        rate = self._channel.throughput_bps(self._node_id, next_hop, now)
        airtime = packet.size_bits / rate
        ack_time = self._config.ack_bytes * 8 / rate
        self._metrics.record_radio(tx_bits=packet.size_bits, now=now)
        self._metrics.record_node_radio(self._node_id, tx_bits=packet.size_bits)
        self._sim.schedule(
            airtime + ack_time, self._complete, packet, next_hop, rate, retries, epoch
        )

    def _complete(
        self, packet: DataPacket, next_hop: int, rate: float, retries: int, epoch: int
    ) -> None:
        if epoch != self._epoch:
            # Sender crashed while this frame was on the air: abandon it.
            self._metrics.record_dropped(packet, DropReason.NODE_DOWN)
            return
        now = self._sim.now
        self.transmissions += 1
        peer_alive = self._alive is None or self._alive(next_hop)
        if peer_alive and self._channel.in_range(self._node_id, next_hop, now):
            # ACK received on the reverse PN code: receiver spends rx energy
            # on the data and tx energy on the ACK; the sender receives it.
            ack_bits = self._config.ack_bytes * 8
            self._metrics.record_ack(ack_bits, now=now)
            self._metrics.record_radio(
                tx_bits=ack_bits, rx_bits=packet.size_bits + ack_bits, now=now
            )
            self._metrics.record_node_radio(
                next_hop, tx_bits=ack_bits, rx_bits=packet.size_bits
            )
            self._metrics.record_node_radio(self._node_id, rx_bits=ack_bits)
            packet.record_hop(rate)
            self._busy[next_hop] = False
            self._deliver(next_hop, packet, self._node_id)
            self._pump(next_hop)
            return
        if retries < self._config.max_retries:
            self._metrics.record_event("datalink_retry")
            self._sim.schedule(
                self._config.retry_delay_s,
                self._attempt,
                packet,
                next_hop,
                retries + 1,
                epoch,
            )
            return
        # Link broken: hand everything to the routing protocol.  A silent
        # peer is indistinguishable from an out-of-range one on the air —
        # the dead-next-hop tally below is bookkeeping, not protocol input.
        self._metrics.record_event("link_break_detected")
        if not peer_alive:
            self._metrics.record_dead_next_hop(1 + self.queue_length(next_hop))
        self._busy[next_hop] = False
        remaining = self.flush(next_hop)
        self._on_link_failure(next_hop, packet, remaining)
