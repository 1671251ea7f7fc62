"""Scalar reference for the tree-repair pass (test-only).

This is the per-vertex walk :class:`repro.faults.repair.TreeRepair` ran
before its pass became array work: orphans rescanned after every adoption,
eligibility and ETX path costs walked hop by hop in Python, every charge
sent straight to the ledger.  It is kept here, outside the package, as the
differential baseline — ``tests/test_repair_differential.py`` runs both on
the same seeded scenarios and requires identical repair records, trees,
ledgers and counters, floats included.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VALUE_BITS
from repro.faults.repair import REPAIR_PHASE, RepairRound, TreeRepair
from repro.network.tree import tree_multi_reparented
from repro.radio.message import MessageCost, ack_cost, message_bits


class ReferenceTreeRepair(TreeRepair):
    """:class:`TreeRepair` with the original scalar per-round pass."""

    # -- root-reachability ----------------------------------------------------

    def _reachable(self) -> list[bool]:
        """Per-vertex: is the whole tree path to the root up right now?"""
        tree = self.net.tree
        ok = [False] * tree.num_vertices
        ok[tree.root] = True
        for vertex in tree.top_down_order:
            if vertex == tree.root:
                continue
            ok[vertex] = ok[tree.parent[vertex]] and not self.plan.is_down(vertex)
        return ok

    def reachable_sensors(self) -> tuple[int, ...]:
        """Up sensors whose whole path to the root is up."""
        ok = self._reachable()
        return tuple(v for v in self.net.tree.sensor_nodes if ok[v])

    # -- the per-round pass ---------------------------------------------------

    def repair_round(self, algorithm, values: np.ndarray) -> RepairRound:
        """Run one repair pass; call at round start (ledger round open).

        Order matters: re-attachments first (they restore connectivity, so
        their subtrees never need to be detached at all), then the
        membership diff against the post-repair reachable set.
        ``algorithm.detach``/``rejoin`` may raise
        :class:`~repro.errors.ProtocolError`; the internal membership set is
        updated *before* the algorithm hook so a driver that reacts by
        re-initializing can resynchronize via :meth:`resync_after_reinit`.
        """
        energy_before = float(self.net.ledger.energy.sum())
        reattached = self._reattach_orphans()
        fallback = self._expired_fallbacks()
        detached, rejoined = self._sync_membership(algorithm, values)
        round_record = RepairRound(
            reattached=tuple(reattached),
            fallback=tuple(fallback),
            detached=tuple(detached),
            rejoined=tuple(rejoined),
            parked=tuple(self._waiting),
            healed=tuple(self._healed),
        )
        if round_record.changed_membership and self.watchdog is not None:
            self.watchdog.retarget(self.net.tree, self.reachable_sensors())
        self.stats.reattach_count += len(reattached)
        self.stats.fallback_count += len(fallback)
        self.stats.detach_count += len(detached)
        self.stats.rejoin_count += len(rejoined)
        self.stats.parked_rounds += len(round_record.parked)
        self.stats.healed_count += len(round_record.healed)
        self.stats.repair_energy_j += (
            float(self.net.ledger.energy.sum()) - energy_before
        )
        self.stats.rounds.append(round_record)
        return round_record

    def resync_after_reinit(self, algorithm) -> None:
        """Align a freshly constructed algorithm with current reachability.

        Called by the driver right before re-initializing: the new query is
        planted on the reachable population only.
        """
        reachable = set(self.reachable_sensors())
        self.detached = set(self.net.tree.sensor_nodes) - reachable
        algorithm.reset_participation(self.net, self.detached)
        if self.watchdog is not None:
            self.watchdog.retarget(self.net.tree, tuple(sorted(reachable)))

    # -- orphan re-attach -----------------------------------------------------
    #
    # The whole pass works on *working copies* of the parent/link arrays:
    # adoptions mutate the copies, eligibility checks walk them, and the
    # real RoutingTree is rebuilt exactly once per round via
    # tree_multi_reparented (a cascade of k adoptions used to pay k full
    # O(n) derived-structure rebuilds — quadratic in the cascade size).

    def _orphans_in(self, parent: list[int]) -> list[int]:
        """Up sensors whose (working) parent is down, shallowest first."""
        orphans = [
            v
            for v in self.net.tree.sensor_nodes
            if not self.plan.is_down(v) and self.plan.is_down(parent[v])
        ]
        orphans.sort(key=lambda v: (self._depth_in(parent, v), v))
        return orphans

    def _depth_in(self, parent: list[int], vertex: int) -> int:
        root, depth = self.net.tree.root, 0
        while vertex != root:
            vertex = parent[vertex]
            depth += 1
        return depth

    def _in_subtree(self, parent: list[int], vertex: int, ancestor: int) -> bool:
        """Whether ``vertex`` lies in ``ancestor``'s (working) subtree."""
        root = self.net.tree.root
        while True:
            if vertex == ancestor:
                return True
            if vertex == root:
                return False
            vertex = parent[vertex]

    def _path_up_ok(self, parent: list[int], vertex: int) -> bool:
        """Whether the whole (working) path from ``vertex`` to the root is up."""
        root = self.net.tree.root
        while vertex != root:
            if self.plan.is_down(vertex):
                return False
            vertex = parent[vertex]
        return True

    def _subtree_in(self, parent: list[int], vertex: int) -> frozenset[int]:
        """All vertices of ``vertex``'s subtree under the working array."""
        root = self.net.tree.root
        children: dict[int, list[int]] = {}
        for v in range(len(parent)):
            if v != root:
                children.setdefault(parent[v], []).append(v)
        out: set[int] = set()
        stack = [vertex]
        while stack:
            v = stack.pop()
            out.add(v)
            stack.extend(children.get(v, ()))
        return frozenset(out)

    def _reattach_orphans(self) -> list[tuple[int, int]]:
        tree = self.net.tree
        parent = list(tree.parent)
        link = list(tree.link_distance)
        moves: list[tuple[int, int, float]] = []
        failed: set[int] = set()
        while True:
            pending = [v for v in self._orphans_in(parent) if v not in failed]
            if not pending:
                break
            orphan = pending[0]
            candidate = self._probe_for_parent(orphan, parent)
            if candidate is None:
                failed.add(orphan)
                continue
            distance = self._distance(orphan, candidate)
            self._charge_adopt_handshake(orphan, candidate, distance)
            if failed:
                # A successful adopt restores root connectivity for exactly
                # the orphan's subtree; a previously failed orphan can only
                # have gained an eligible candidate if it physically
                # neighbours that subtree.  Everyone else's probe would
                # replay the identical (charged!) beacon exchange and fail
                # identically — don't re-probe them.
                reconnected = self._subtree_in(parent, orphan)
                failed = {
                    v
                    for v in failed
                    if not any(
                        n in reconnected for n in self.graph.neighbors(v)
                    )
                }
            parent[orphan] = candidate
            link[orphan] = distance
            moves.append((orphan, candidate, distance))
        if moves:
            self.net.retarget(tree_multi_reparented(tree, moves))
            # The adopting parents report the membership change up the
            # repaired tree so the root can patch its branch bookkeeping.
            for _, new_parent, _ in moves:
                self._report_to_root(new_parent)
        self._settle_park_queue(parent, failed)
        return [(orphan, new_parent) for orphan, new_parent, _ in moves]

    def _settle_park_queue(self, parent: list[int], failed: set[int]) -> None:
        """Advance the parked-orphan queue after one re-attach pass.

        A previously waiting orphan (streak below ``heal_patience``) that is
        no longer cut — its re-probe found a parent, or the old parent
        recovered — is a healed partition.  Still-failed orphans advance
        their streak: the re-init fallback fires exactly when the streak
        reaches ``heal_patience``; below that the orphan waits parked, its
        subtree's up vertices each paying one duty-cycled ACK-sized listen
        window per round.  Past the fallback the orphan keeps re-probing
        (pre-healing behaviour) but is neither re-charged nor re-counted.
        Reconnected orphans leave the queue entirely, so a later relapse
        counts as a fresh failure.
        """
        previously_waiting = {
            v for v, streak in self._parked.items() if streak < self.heal_patience
        }
        self._healed = sorted(v for v in previously_waiting if v not in failed)
        for vertex in set(self._parked) - failed:
            del self._parked[vertex]
        self._expired, self._waiting = [], []
        for vertex in sorted(failed):
            streak = self._parked.get(vertex, 0) + 1
            self._parked[vertex] = streak
            if streak == self.heal_patience:
                self._expired.append(vertex)
            elif streak < self.heal_patience:
                self._waiting.append(vertex)
        ack = ack_cost()
        for vertex in self._waiting:
            for member in self._subtree_in(parent, vertex):
                if not self.plan.is_down(member):
                    self._charge_recv(member, ack)

    def _expired_fallbacks(self) -> list[int]:
        fresh = self._expired
        self._expired = []
        return fresh

    def _probe_for_parent(self, orphan: int, parent: list[int]) -> int | None:
        """One probe beacon + replies; returns the best eligible neighbour.

        Eligible: physically in range, up, outside the orphan's own
        (working) subtree, and with a fully-up tree path to the root.
        Ranking follows :attr:`parent_metric` — ETX-weighted path cost to
        the root when link estimates exist, Euclidean distance otherwise.
        """
        root = self.net.tree.root
        ack = ack_cost()
        # The probe is a local broadcast at full radio range; every up
        # neighbour pays the listen, but only neighbours that actually hold
        # a working route (and are not in the orphan's own subtree) answer
        # with an ack-sized beacon — nodes without a route to offer keep
        # quiet, exactly like route advertisements in CTP/RPL.
        self.stats.probe_count += 1
        self._charge_send(orphan, ack, self.graph.radio_range)
        stats = self.net.link_stats if self.parent_metric == "etx" else None
        candidates: list[tuple[float, float, int, bool]] = []
        for neighbor in self.graph.neighbors(orphan):
            if neighbor != root and self.plan.is_down(neighbor):
                continue
            self._charge_recv(neighbor, ack)
            if self._in_subtree(parent, neighbor, orphan) or not (
                self._path_up_ok(parent, neighbor)
            ):
                continue
            distance = self._distance(orphan, neighbor)
            self._charge_send(neighbor, ack, distance)
            self._charge_recv(orphan, ack)
            if stats is None:
                etx_cost, observed = 0.0, False
            else:
                etx_cost, observed = self._etx_path_cost(
                    stats, parent, orphan, neighbor
                )
            candidates.append((etx_cost, distance, neighbor, observed))
        if not candidates:
            return None
        if stats is not None and any(observed for *_, observed in candidates):
            best = min(candidates)
        else:
            # No relevant link ever observed: ETX would just replay the
            # prior everywhere, so fall back to nearest-neighbour adoption.
            best = min(candidates, key=lambda c: (c[1], c[2]))
        return best[2]

    def _etx_path_cost(
        self,
        stats,
        parent: list[int],
        orphan: int,
        candidate: int,
    ) -> tuple[float, bool]:
        """ETX of the probe link plus the candidate's (working) path to root.

        Also reports whether *any* link on that route has ever been
        observed — if none has, the cost is pure prior and the caller
        prefers the distance ranking instead.
        """
        root = self.net.tree.root
        cost = stats.etx(orphan, candidate)
        observed = stats.link_observed(orphan, candidate)
        vertex = candidate
        while vertex != root:
            up = parent[vertex]
            cost += stats.etx(vertex, up)
            observed = observed or stats.link_observed(vertex, up)
            vertex = up
        return cost, observed

    def _charge_adopt_handshake(
        self, orphan: int, new_parent: int, distance: float
    ) -> None:
        """Adopt request / accept, both ack-sized control frames."""
        ack = ack_cost()
        self._charge_send(orphan, ack, distance)
        self._charge_recv(new_parent, ack)
        self._charge_send(new_parent, ack, distance)
        self._charge_recv(orphan, ack)

    # -- membership sync ------------------------------------------------------

    def _sync_membership(
        self, algorithm, values: np.ndarray
    ) -> tuple[list[int], list[int]]:
        tree = self.net.tree
        ok = self._reachable()
        reachable = {v for v in tree.sensor_nodes if ok[v]}
        newly_gone = sorted(
            v
            for v in tree.sensor_nodes
            if v not in self.detached and v not in reachable
        )
        newly_back = sorted(v for v in self.detached if v in reachable)

        for vertex in newly_gone:
            # A down node's silence is noticed by its parent; the report can
            # only travel where an up path exists.
            reporter = tree.parent[vertex]
            if reporter == tree.root or (
                reporter >= 0 and ok[reporter]
            ):
                self._report_to_root(reporter)
            self.detached.add(vertex)
            algorithm.detach(self.net, vertex)

        for vertex in newly_back:
            # Filter re-push (one hop down), then the node reports its
            # current value up so the root can patch its counters.
            push = message_bits(VALUE_BITS)
            parent = tree.parent[vertex]
            self._charge_send(parent, push, tree.link_distance[vertex])
            self._charge_recv(vertex, push)
            self._report_to_root(vertex)
            self.detached.discard(vertex)
            algorithm.rejoin(self.net, values, vertex)
        return newly_gone, newly_back

    # -- charging helpers -----------------------------------------------------

    def _distance(self, a: int, b: int) -> float:
        pa, pb = self.graph.positions[a], self.graph.positions[b]
        return float(np.hypot(pa[0] - pb[0], pa[1] - pb[1]))

    def _charge_send(self, sender: int, cost: MessageCost, distance: float) -> None:
        self.net.ledger.charge_send(sender, cost, link_distance=distance)
        self._account_bits(cost)

    def _charge_recv(self, receiver: int, cost: MessageCost) -> None:
        self.net.ledger.charge_recv(receiver, cost)

    def _report_to_root(self, start: int) -> None:
        """Report a membership change from ``start`` up the tree path.

        Membership reports are tiny (a vertex id and a flag) and ride
        piggybacked on the next already-scheduled frame of each hop, so they
        cost their payload bits but no extra MAC frames or headers.
        """
        if start == self.net.tree.root:
            return
        tree = self.net.tree
        cost = MessageCost(messages=0, total_bits=VALUE_BITS, payload_bits=VALUE_BITS)
        path = tree.path_to_root(start)
        for child, parent in zip(path, path[1:]):
            self._charge_send(child, cost, tree.link_distance[child])
            self._charge_recv(parent, cost)

    def _account_bits(self, cost: MessageCost) -> None:
        self.stats.repair_bits += cost.total_bits
        phase_bits = self.net.phase_bits
        phase_bits[REPAIR_PHASE] = phase_bits.get(REPAIR_PHASE, 0) + cost.total_bits
