"""The shared common channel: transmission registry and collision logic.

The medium tracks every in-flight (and recently finished) common-channel
transmission.  Two predicates implement the physics:

* :meth:`CommonChannelMedium.busy_for` — carrier sensing: the channel is
  busy at a node if any current transmitter is within *carrier-sense*
  range of it.  Spatial reuse falls out naturally: far-apart transmitters
  don't block each other.
* :meth:`CommonChannelMedium.collided` — reception: a transmission is
  corrupted at a receiver if any *other* transmission overlaps it in time
  while its sender is within *interference* range of that receiver, or if
  the receiver itself was transmitting (half-duplex).  This includes the
  classic hidden-terminal case.

Both ranges default to twice the decode range (``cs_range_factor`` on
:class:`~repro.mac.csma.MacConfig`): energy is sensed, and receptions are
corrupted, well beyond the distance at which packets can be decoded.  This
is what makes the 250 kbps common channel a genuinely scarce shared
resource — the mechanism behind the link-state protocol's collapse in the
paper ("the common channel is very congested for the link state
protocol").

Hot-path notes: the registry is a :class:`collections.deque` pruned from
the left (transmissions are registered in start order, so expired entries
cluster at the head) against the longest airtime seen so far — the exact
retention needed for any overlap query the MAC can still issue.  When a
topology index is attached, carrier sensing batches all concurrent
senders into one candidate query, and :meth:`lost_receivers` resolves a
whole delivery set against all interferers as a single senders-by-
receivers distance matrix.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Sequence, Set

import numpy as np

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.channel.model import ChannelModel
    from repro.topology import TopologyIndex

__all__ = ["Transmission", "CommonChannelMedium"]


class Transmission:
    """One common-channel transmission interval."""

    __slots__ = ("sender", "start", "end", "packet")

    def __init__(self, sender: int, start: float, end: float, packet: Packet) -> None:
        self.sender = sender
        self.start = start
        self.end = end
        self.packet = packet

    def overlaps(self, other: "Transmission") -> bool:
        """True if the two transmissions overlap in time."""
        return self.start < other.end and other.start < self.end

    def active_at(self, t: float) -> bool:
        """True if the transmission occupies the channel at time ``t``."""
        return self.start <= t < self.end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Transmission(sender={self.sender}, [{self.start:.6f}, {self.end:.6f}])"


class CommonChannelMedium:
    """Registry of common-channel transmissions with collision queries."""

    #: Minimum retention for finished transmissions; must exceed the
    #: longest possible control-packet airtime (a 100-byte packet at
    #: 250 kbps is 3.2 ms, so 20 ms is a comfortable margin).  The
    #: effective horizon stretches to the longest airtime registered so
    #: far when that is larger, so oversized packets never lose their
    #: overlap history.
    PRUNE_HORIZON_S = 0.02

    def __init__(
        self,
        channel: "ChannelModel",
        cs_range_m: float = 0.0,
        topology: Optional["TopologyIndex"] = None,
    ) -> None:
        self._channel = channel
        #: Carrier-sense / interference range in metres; defaults to twice
        #: the decode range when not supplied.
        self.cs_range_m = cs_range_m if cs_range_m > 0 else 2.0 * channel.tx_range
        # Range probes go through the topology index (cached positions +
        # batched candidate queries) when one is attached; the channel's
        # pairwise path otherwise.
        self._topology = topology
        self._within = topology.within if topology is not None else channel.within
        self._position = topology.position if topology is not None else None
        self._transmissions: Deque[Transmission] = deque()
        self._max_airtime = 0.0
        self.total_transmissions = 0
        #: Receptions lost to a collision, one count per (transmission,
        #: receiver) pair that failed.  In a dense neighbourhood a single
        #: corrupted broadcast bumps this once per affected receiver.
        self.lost_receptions = 0
        #: Transmissions that lost at least one receiver — the
        #: per-transmission view of the same outcomes.  ``lost_receptions /
        #: collided_transmissions`` is the mean blast radius of a collision.
        self.collided_transmissions = 0

    @property
    def total_collisions(self) -> int:
        """Backwards-compatible alias for :attr:`lost_receptions`.

        The old counter conflated per-receiver losses with per-transmission
        collisions; it always counted per lost receiver, which is what this
        alias preserves.
        """
        return self.lost_receptions

    def record_losses(self, n_lost: int) -> None:
        """Account one completed transmission that lost ``n_lost`` receivers."""
        if n_lost > 0:
            self.lost_receptions += n_lost
            self.collided_transmissions += 1

    def begin(self, sender: int, start: float, end: float, packet: Packet) -> Transmission:
        """Register a new transmission and return its record."""
        tx = Transmission(sender, start, end, packet)
        airtime = end - start
        if airtime > self._max_airtime:
            self._max_airtime = airtime
        self._prune(start)
        self._transmissions.append(tx)
        self.total_transmissions += 1
        return tx

    def busy_for(self, node: int, t: float) -> bool:
        """Carrier sense at ``node``: any transmitter within sense range?"""
        senders: List[int] = []
        for tx in self._transmissions:
            if not (tx.start <= t < tx.end):
                continue
            if tx.sender == node:
                return True  # we are transmitting ourselves
            senders.append(tx.sender)
        if not senders:
            return False
        if self._topology is not None:
            # One batched candidate query over every concurrent sender.
            return self._topology.any_within(node, senders, t, self.cs_range_m)
        cs = self.cs_range_m
        return any(self._within(sender, node, t, cs) for sender in senders)

    def senses(self, a: int, b: int, t: float) -> bool:
        """True if ``b`` can sense energy from a transmitter at ``a``."""
        return self._within(a, b, t, self.cs_range_m)

    def collided(self, tx: Transmission, receiver: int) -> bool:
        """Did ``receiver`` lose ``tx`` to an overlapping transmission?"""
        cs = self.cs_range_m
        for other in self._transmissions:
            if other is tx or not tx.overlaps(other):
                continue
            if other.sender == receiver:
                return True  # half-duplex: receiver was transmitting
            overlap_t = max(tx.start, other.start)
            if self._within(other.sender, receiver, overlap_t, cs):
                return True
        return False

    def lost_receivers(self, tx: Transmission, receivers: Sequence[int]) -> Set[int]:
        """Receivers in ``receivers`` that lose ``tx`` to a collision.

        The batched form of :meth:`collided` for a whole delivery set.
        With a topology attached, every interferer's sender (at its
        overlap instant) is checked against every receiver (at
        ``tx.start``, the instant the delivery set was resolved) —
        regardless of set size, so outcomes never depend on how many
        pairs are involved; large sets resolve as one
        senders-by-receivers distance matrix.  Over a single airtime the
        sub-metre position drift between those time conventions is
        physically negligible.  Without a topology the per-pair
        :meth:`collided` convention (both ends at the overlap instant)
        applies exactly.
        """
        lost: Set[int] = set()
        if not receivers:
            return lost
        overlapping = [o for o in self._transmissions if o is not tx and tx.overlaps(o)]
        if not overlapping:
            return lost
        cs = self.cs_range_m
        receiver_set = set(receivers)
        for other in overlapping:
            if other.sender in receiver_set:
                lost.add(other.sender)  # half-duplex: it was transmitting
        topology = self._topology
        if topology is None:
            within = self._within
            for other in overlapping:
                overlap_t = max(tx.start, other.start)
                for r in receivers:
                    if r not in lost and within(other.sender, r, overlap_t, cs):
                        lost.add(r)
            return lost
        position = self._position
        if len(overlapping) * len(receivers) <= 16:
            cs2 = cs * cs  # same squared-distance form as the matrix below
            for other in overlapping:
                s_pos = position(other.sender, max(tx.start, other.start))
                for r in receivers:
                    if r in lost:
                        continue
                    r_pos = position(r, tx.start)
                    dx = s_pos.x - r_pos.x
                    dy = s_pos.y - r_pos.y
                    if dx * dx + dy * dy <= cs2:
                        lost.add(r)
            return lost
        s_xy = np.array(
            [position(o.sender, max(tx.start, o.start)) for o in overlapping]
        )
        r_xy = np.asarray(topology.positions_of(receivers, tx.start))
        dx = s_xy[:, :1] - r_xy[:, 0]
        dy = s_xy[:, 1:] - r_xy[:, 1]
        dx *= dx
        dy *= dy
        dx += dy
        hit = (dx <= cs * cs).any(axis=0)
        for r, flag in zip(receivers, hit.tolist()):
            if flag:
                lost.add(r)
        return lost

    def active_count(self, t: float) -> int:
        """Number of transmissions occupying the channel at ``t``."""
        return sum(1 for tx in self._transmissions if tx.active_at(t))

    def _prune(self, now: float) -> None:
        """Drop records that can no longer overlap any unresolved
        transmission: anything ending more than the longest airtime (with
        the class floor) before ``now``.  Registration is in start order,
        so stale entries cluster at the head; a straggler behind a live
        head survives a little longer, which is harmless — the collision
        predicates test time windows explicitly."""
        horizon = now - max(self.PRUNE_HORIZON_S, self._max_airtime)
        txs = self._transmissions
        while txs and txs[0].end < horizon:
            txs.popleft()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CommonChannelMedium(tracked={len(self._transmissions)}, "
            f"total={self.total_transmissions})"
        )
