"""Per-hop object walk: the differential reference for the engine pipeline.

``repro.sim.engine`` runs every convergecast as intake -> decide -> fold ->
account over arrays, with one ordered ledger batch per primitive.  This
module keeps the straightforward per-vertex implementation those stages
replaced: payloads merge hop by hop, every radio interaction charges the
ledger with scalar ``charge_send``/``charge_recv`` calls, and loss/ARQ is
decided by one scalar ``transmission_lost`` draw per frame.  The tests in
``tests/test_vectorized.py`` (and ``helpers.assert_differential_invariant``
with ``core="object"``) require the production networks to match it bit
for bit: ledger arrays, ``phase_bits``, ``collection_log``, ARQ counters,
the link-quality table (values and insertion order) and the plan's final
generator state.

Use :class:`ReferenceTreeNetwork` / :class:`ReferenceFaultyTreeNetwork` in
place of the production classes, or :func:`use_reference` to switch the
network of an already constructed :class:`~repro.faults.FaultDriver`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import ProtocolError
from repro.faults.network import FaultyTreeNetwork
from repro.radio.message import ack_cost, message_bits
from repro.sim.engine import CollectionRecord, Payload, TreeNetwork


class _ObjectWalk:
    """The per-hop convergecast and flood over the two fault hooks."""

    #: Whether the walk tracks which contributions each hop carries.  A
    #: reliable network delivers every live contribution, so it skips the
    #: bookkeeping (and its cost, which the engine benchmark times).
    _track_sources = False

    def _vertex_down(self, vertex: int) -> bool:
        return False

    def _hop_delivered(self, vertex: int, parent: int, payload: Payload):
        """Reliable hop: one send, one receive, always delivered."""
        cost = message_bits(payload.payload_bits())
        self.ledger.charge_send(
            vertex,
            cost,
            values=payload.num_values(),
            link_distance=self.tree.link_distance[vertex],
        )
        self.ledger.charge_recv(parent, cost)
        return True, cost.total_bits

    def convergecast(self, contributions: Mapping[int, Payload]) -> Optional[Payload]:
        tree = self.tree
        self.exchanges += 1
        track = self._track_sources
        accumulated: dict[int, Payload] = {}
        expected = 0
        contributors: list[int] = []
        sources: dict[int, set[int]] = {}
        for vertex, payload in contributions.items():
            if payload.is_empty():
                continue
            expected += 1
            if self._vertex_down(vertex):
                continue  # a dead node measures and transmits nothing
            accumulated[vertex] = payload
            contributors.append(vertex)
            if track:
                sources[vertex] = {vertex}

        phase_total = 0
        for vertex in tree.bottom_up_order:
            if vertex == tree.root:
                continue
            merged = accumulated.get(vertex)
            if merged is None:
                continue
            if self._vertex_down(vertex):
                continue  # forwarded state dies with the forwarding node
            parent = tree.parent[vertex]
            if vertex in self.virtual_vertices:
                delivered = True  # device-internal link, no radio
            else:
                delivered, bits = self._hop_delivered(vertex, parent, merged)
                phase_total += bits
            if not delivered:
                continue
            existing = accumulated.get(parent)
            accumulated[parent] = (
                merged if existing is None else existing.merged_with(merged)
            )
            if track:
                sources.setdefault(parent, set()).update(sources.get(vertex, ()))
        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0) + phase_total
        )
        delivered = sources.get(tree.root, set()) if track else contributors
        self.collection_log.append(
            CollectionRecord(expected=expected, delivered=frozenset(delivered))
        )
        return accumulated.get(tree.root)

    def broadcast(self, payload_bits: int) -> int:
        if payload_bits < 0:
            raise ProtocolError(f"payload_bits must be >= 0, got {payload_bits}")
        tree = self.tree
        self.exchanges += 1
        cost = message_bits(payload_bits)
        phase_total = 0
        reached = [False] * tree.num_vertices
        reached[tree.root] = True
        reached_count = 0
        for vertex in tree.top_down_order:
            if not reached[vertex] or not tree.children[vertex]:
                continue
            if vertex != tree.root and self._vertex_down(vertex):
                continue  # pruned by churn: the subtree misses the flood
            self.ledger.charge_send(
                vertex, cost, link_distance=tree.link_distance[vertex]
            )
            phase_total += cost.total_bits
            for child in tree.children[vertex]:
                if self._vertex_down(child):
                    continue  # dead receivers neither listen nor pay
                reached[child] = True
                reached_count += 1
                if child not in self.virtual_vertices:
                    self.ledger.charge_recv(child, cost)
        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0) + phase_total
        )
        return reached_count


class ReferenceTreeNetwork(_ObjectWalk, TreeNetwork):
    """The reliable network, walked hop by hop."""


class ReferenceFaultyTreeNetwork(_ObjectWalk, FaultyTreeNetwork):
    """The faulty network, walked hop by hop with scalar draws."""

    _track_sources = True

    def _vertex_down(self, vertex: int) -> bool:
        return self.plan.is_down(vertex)

    def _hop_delivered(self, vertex: int, parent: int, payload: Payload):
        """Stop-and-wait ARQ over one lossy hop, every attempt charged."""
        ledger = self.ledger
        cost = message_bits(payload.payload_bits())
        distance = self.tree.link_distance[vertex]
        parent_down = self._vertex_down(parent)
        ack = ack_cost()
        arq = self.arq
        delivered = False
        bits = 0
        for attempt in range(max(1, arq.attempts_for(vertex, parent))):
            if attempt > 0:
                self.retransmissions += 1
            ledger.charge_send(
                vertex, cost, values=payload.num_values(), link_distance=distance
            )
            bits += cost.total_bits
            if parent_down:
                frame_ok = False
            else:
                # The parent listens on its TDMA schedule whether or not the
                # frame survives the channel.
                ledger.charge_recv(parent, cost)
                frame_ok = not self.plan.transmission_lost(vertex, parent)
                if self._feeds_uplink_stats:
                    # Channel truth for the uplink (a down parent is not a
                    # channel sample and must not poison the loss estimate).
                    self.link_stats.observe(vertex, parent, frame_ok)
            if frame_ok:
                delivered = True
            else:
                self.lost_transmissions += 1
            if not arq.enabled:
                break
            if frame_ok:
                # Parent acknowledges; the ACK rides the same lossy channel.
                ledger.charge_send(parent, ack, link_distance=distance)
                ledger.charge_recv(vertex, ack)
                self.acks_sent += 1
                bits += ack.total_bits
                ack_ok = not self.plan.transmission_lost(parent, vertex)
                # The ACK samples the downlink — the other half of ETX.
                self.link_stats.observe(parent, vertex, ack_ok)
                if ack_ok:
                    arq.observe(vertex, parent, True)
                    break
                self.lost_acks += 1
            else:
                # The child listens through the ACK window in vain.
                ledger.charge_recv(vertex, ack)
            # From the sender's viewpoint only an ACK confirms the attempt.
            arq.observe(vertex, parent, False)
        return delivered, bits


def use_reference(driver):
    """Switch ``driver``'s network to the reference walk; returns the driver.

    Call before the first round.  Repair, fail-over and the watchdog hold
    the same network object, so every primitive they issue runs through
    the reference as well.
    """
    assert isinstance(driver.net, FaultyTreeNetwork)
    driver.net.__class__ = ReferenceFaultyTreeNetwork
    return driver
