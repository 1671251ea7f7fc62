"""Tree repair: orphan re-attach and transient-churn membership patching.

PR 2's recovery story was all-or-nothing: a silent subtree could only be
*re-initialized* — the most expensive reaction the energy model knows.
This module adds the reactions a real deployment uses first:

* **Orphan re-attach** — when a vertex's tree parent goes down, the vertex
  probes its physical neighbourhood (one beacon, every up neighbour answers)
  and re-attaches its whole subtree to the best up neighbour that still
  has a fully-up path to the root and lies outside its own subtree.  "Best"
  defaults to the lowest ETX-weighted path cost to the root (the shared
  :class:`~repro.network.linkstats.LinkQualityEstimator` the ARQ layer
  feeds), falling back to plain Euclidean distance while no link has ever
  been observed — or always, with ``parent_metric="nearest"`` (the PR 3
  behaviour, kept as the comparison baseline).  All of a round's adoptions
  are applied with one batched tree rewrite
  (:func:`~repro.network.tree.tree_multi_reparented`), the engine swaps it
  in (:meth:`~repro.sim.engine.TreeNetwork.retarget`), and the adopting
  parents report the membership change up to the root.

* **Multi-round partition healing (the parked-orphan queue)** — an orphan
  with *no* eligible candidate is not re-initialized on the spot anymore.
  It is *parked*: its subtree leaves the query (detached below), its radios
  drop to a duty-cycled listen window (one ACK-sized receive per up subtree
  vertex per parked round, charged to the ledger), and it re-probes on
  every subsequent round with freshly ETX-ranked candidates as links and
  neighbours recover.  Only after ``heal_patience`` consecutive failed
  rounds does the driver fall back to the watchdog-style re-initialization
  (``heal_patience=1`` reproduces the old same-round re-init cliff).  A
  parked orphan that finds a parent in a later round — or whose original
  parent comes back — is a *healed partition*: its sensors rejoin the
  running query with their filters intact, no re-initialization needed.

* **Membership patching (detach / rejoin)** — the root tracks which sensors
  can currently report (up + connected).  Nodes that leave (death, outage,
  unreachable orphan) are *detached*: the algorithm moves their last-known
  interval label out of its counters and shrinks ``k``'s population instead
  of restarting the query.  Nodes that come back are *rejoined*: the parent
  re-pushes the current filter (one hop), the node reports its value up,
  and the root moves the label back in.  Validation filters and intervals
  survive; on a loss-free network the answers stay exactly the live
  population's quantile through arbitrary churn.

All repair traffic — probe beacons, neighbour replies, the adopt handshake,
membership reports and filter re-pushes — is charged to the energy ledger
under the ``"repair"`` phase, so ``repro faults`` can show what recovery
actually costs next to what it saves.

The root's membership view is modelled as consistent at the end of each
repair pass (link-layer hello detection plus membership reports); reports
are only charged where an up reporting path exists.  The watchdog is
retargeted on every membership change so it awaits exactly the branches
that can still deliver — this is what stops a subtree repaired during a
watchdog grace window from being re-initialized on top (and double-charged).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.constants import VALUE_BITS
from repro.errors import ConfigurationError
from repro.faults.network import FaultyTreeNetwork
from repro.faults.watchdog import RootWatchdog
from repro.network.topology import PhysicalGraph
from repro.network.tree import RoutingTree, tree_multi_reparented
from repro.radio.message import MessageCost, ack_cost, message_bits
from repro.sim.vectorized import ChargeLog

#: Phase label repair traffic is charged under in ``net.phase_bits``.
REPAIR_PHASE = "repair"

#: Probe, reply, adopt and park-listen frames: ack-sized control frames.
_ACK = ack_cost()
#: A membership report: payload bits piggybacked on a scheduled frame.
_REPORT = MessageCost(messages=0, total_bits=VALUE_BITS, payload_bits=VALUE_BITS)
#: A rejoining node's filter re-push: one value payload, one hop down.
_PUSH = message_bits(VALUE_BITS)


@dataclass(frozen=True)
class RepairRound:
    """What one repair pass did at the start of a round."""

    #: ``(orphan, new_parent)`` re-attachments performed, in order.
    reattached: tuple[tuple[int, int], ...] = ()
    #: Orphans whose ``heal_patience`` expired this round (the driver
    #: schedules the watchdog-style re-initialization fallback).
    fallback: tuple[int, ...] = ()
    #: Vertices detached from the query this round.
    detached: tuple[int, ...] = ()
    #: Vertices rejoined to the query this round.
    rejoined: tuple[int, ...] = ()
    #: Orphans parked at the end of this round (cut off, duty-cycled,
    #: awaiting a candidate parent on a later round's re-probe).
    parked: tuple[int, ...] = ()
    #: Previously parked orphans whose partition healed this round (a
    #: re-probe found a parent, or the old parent recovered).
    healed: tuple[int, ...] = ()

    @property
    def changed_membership(self) -> bool:
        return bool(self.reattached or self.detached or self.rejoined)


@dataclass
class RepairStats:
    """Cumulative repair activity over a run."""

    reattach_count: int = 0
    fallback_count: int = 0
    detach_count: int = 0
    rejoin_count: int = 0
    #: Probe beacons broadcast by orphans looking for a parent.
    probe_count: int = 0
    #: Orphan-rounds spent parked (cut off, duty-cycled, re-probing).
    parked_rounds: int = 0
    #: Parked orphans whose partition healed on a later round.
    healed_count: int = 0
    #: Total energy [J] spent on repair traffic (probes, adopts, reports).
    repair_energy_j: float = 0.0
    #: On-air bits of repair traffic.
    repair_bits: int = 0
    #: Per-round records, in order.
    rounds: list[RepairRound] = field(default_factory=list)


class TreeRepair:
    """Per-round tree repair and membership maintenance for one network.

    Args:
        graph: the physical connectivity graph (candidate parents must be
            within radio range ``rho``).
        net: the fault-injecting network whose tree is repaired in place.
        watchdog: optional root watchdog to retarget on membership changes.
        parent_metric: how an orphan ranks its candidate parents —
            ``"etx"`` (default) by ETX-weighted path cost to the root using
            the network's shared link-quality estimator (Euclidean distance
            breaks ties and takes over entirely while no relevant link has
            ever been observed), or ``"nearest"`` for the pure
            nearest-neighbour adoption of PR 3.
        heal_patience: consecutive rounds an unattachable orphan stays
            *parked* (duty-cycled, re-probing) before the re-initialization
            fallback fires.  The default 1 reproduces the pre-healing
            same-round fallback; higher values trade degraded coverage for
            the chance that the partition heals on its own.
    """

    #: Valid ``parent_metric`` values.
    PARENT_METRICS = ("etx", "nearest")

    def __init__(
        self,
        graph: PhysicalGraph,
        net: FaultyTreeNetwork,
        watchdog: RootWatchdog | None = None,
        parent_metric: str = "etx",
        heal_patience: int = 1,
    ) -> None:
        if graph.num_vertices != net.tree.num_vertices:
            raise ConfigurationError(
                f"graph has {graph.num_vertices} vertices but tree has "
                f"{net.tree.num_vertices}"
            )
        if parent_metric not in self.PARENT_METRICS:
            raise ConfigurationError(
                f"parent_metric must be one of {self.PARENT_METRICS}, "
                f"got {parent_metric!r}"
            )
        if heal_patience < 1:
            raise ConfigurationError(
                f"heal_patience must be >= 1, got {heal_patience}"
            )
        self.graph = graph
        self.net = net
        self.watchdog = watchdog
        self.parent_metric = parent_metric
        self.heal_patience = heal_patience
        self.plan = net.plan
        self.stats = RepairStats()
        #: Sensors the root currently considers outside the query.
        self.detached: set[int] = set()
        #: The parked-orphan queue: orphan -> consecutive rounds it has
        #: failed to find a parent.  Parked orphans re-probe every round;
        #: the re-init fallback fires once, when the streak reaches
        #: ``heal_patience``.  An entry disappears when the partition heals
        #: (re-attach, or the old parent recovers).
        self._parked: dict[int, int] = {}
        self._expired: list[int] = []
        self._waiting: list[int] = []
        self._healed: list[int] = []
        #: Every repair charge of a pass, flushed before the pass returns.
        self._charges = ChargeLog(net.ledger)
        self._neighbor_arrays: dict[int, np.ndarray] = {}

    # -- root-reachability ----------------------------------------------------

    def _down_mask(self) -> np.ndarray:
        return self.plan.down_mask(self.net.tree.num_vertices)

    def _reachable(self, down: np.ndarray | None = None) -> list[bool]:
        """Per-vertex: is the whole tree path to the root up right now?"""
        if down is None:
            down = self._down_mask()
        return _ok_to_root(self.net.tree, down)

    def reachable_sensors(self) -> tuple[int, ...]:
        """Up sensors whose whole path to the root is up."""
        return self._sensors_where(self._reachable())

    def _sensors_where(self, ok: list[bool]) -> tuple[int, ...]:
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
        down = self._down_mask()
        reattached = self._reattach_orphans(down)
        fallback = self._expired_fallbacks()
        ok = self._reachable(down)
        detached, rejoined = self._sync_membership(algorithm, values, ok)
        round_record = RepairRound(
            reattached=tuple(reattached),
            fallback=tuple(fallback),
            detached=tuple(detached),
            rejoined=tuple(rejoined),
            parked=tuple(self._waiting),
            healed=tuple(self._healed),
        )
        if round_record.changed_membership and self.watchdog is not None:
            self.watchdog.retarget(self.net.tree, self._sensors_where(ok))
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
        reachable = self.reachable_sensors()
        self.detached = set(self.net.tree.sensor_nodes).difference(reachable)
        algorithm.reset_participation(self.net, self.detached)
        if self.watchdog is not None:
            self.watchdog.retarget(self.net.tree, reachable)

    # -- orphan re-attach -----------------------------------------------------
    #
    # The pass works on a _WorkingTree: array copies of the parent and
    # depth arrays, one down mask, the ok-to-root mask and (for the ETX
    # metric) per-edge ETX/observed arrays, all built once per pass.
    # Adoptions patch them over the adopted subtree only, and the real
    # RoutingTree is rebuilt exactly once per round via
    # tree_multi_reparented.  The orphan set is computed once and only
    # shrinks; a heap keyed on (working depth, vertex id) picks the next
    # orphan, re-keyed whenever an adoption moves a pending orphan's depth.
    # Every charge goes to one ChargeLog, flushed before the pass returns.

    def _reattach_orphans(
        self, down: np.ndarray | None = None
    ) -> list[tuple[int, int]]:
        tree = self.net.tree
        if down is None:
            down = self._down_mask()
        moves: list[tuple[int, int, float]] = []
        failed: set[int] = set()
        work: _WorkingTree | None = None
        if down.any():
            stats = self.net.link_stats if self.parent_metric == "etx" else None
            work = _WorkingTree(tree, down, stats)
            pending = set(work.orphans().tolist())
            heap = [(int(work.depth[v]), v) for v in pending]
            heapq.heapify(heap)
            while heap:
                depth, orphan = heapq.heappop(heap)
                if orphan not in pending or work.depth[orphan] != depth:
                    continue  # superseded by a re-keyed entry
                pending.discard(orphan)
                found = self._probe_for_parent(orphan, work)
                if found is None:
                    failed.add(orphan)
                    continue
                candidate, distance = found
                self._charge_adopt_handshake(orphan, candidate, distance)
                subtree = work.adopt(orphan, candidate)
                moves.append((orphan, candidate, distance))
                requeue = pending.intersection(subtree.tolist())
                if failed:
                    # A successful adopt restores root connectivity for
                    # exactly the orphan's subtree; a previously failed
                    # orphan can only have gained an eligible candidate if
                    # it physically neighbours that subtree.  Everyone
                    # else's probe would replay the identical (charged!)
                    # beacon exchange and fail identically — don't re-probe
                    # them.
                    mark = work.mark
                    mark[subtree] = True
                    back = [
                        v for v in failed if mark[self._neighbors(v)].any()
                    ]
                    mark[subtree] = False
                    failed.difference_update(back)
                    pending.update(back)
                    requeue.update(back)
                for vertex in requeue:
                    heapq.heappush(heap, (int(work.depth[vertex]), vertex))
        if moves:
            self.net.retarget(tree_multi_reparented(tree, moves))
            # The adopting parents report the membership change up the
            # repaired tree so the root can patch its branch bookkeeping.
            for _, new_parent, _ in moves:
                self._report_to_root(new_parent)
        self._settle_park_queue(work, failed)
        self._charges.flush()
        return [(orphan, new_parent) for orphan, new_parent, _ in moves]

    def _settle_park_queue(
        self, work: _WorkingTree | None, failed: set[int]
    ) -> None:
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
        if self._waiting:
            # Failed orphans exist only when the pass built a working tree.
            assert work is not None
            members = np.concatenate([work.subtree(v) for v in self._waiting])
            self._charges.charge_recv_many(members[~work.down[members]], _ACK)

    def _expired_fallbacks(self) -> list[int]:
        fresh = self._expired
        self._expired = []
        return fresh

    def _probe_for_parent(
        self, orphan: int, work: _WorkingTree
    ) -> tuple[int, float] | None:
        """One probe beacon + replies; returns the best eligible neighbour.

        Eligible: physically in range, up, outside the orphan's own
        (working) subtree, and with a fully-up tree path to the root.
        Ranking follows :attr:`parent_metric` — ETX-weighted path cost to
        the root when link estimates exist, Euclidean distance otherwise.
        Returns the winner and its distance, or ``None``.
        """
        # The probe is a local broadcast at full radio range; every up
        # neighbour pays the listen, but only neighbours that actually hold
        # a working route (and are not in the orphan's own subtree) answer
        # with an ack-sized beacon — nodes without a route to offer keep
        # quiet, exactly like route advertisements in CTP/RPL.  Per vertex
        # the charges land in the order of a neighbour-by-neighbour walk:
        # each replier hears the probe before it answers, and the orphan
        # sends its beacon before it hears any reply.
        self.stats.probe_count += 1
        self._charge_send(orphan, _ACK, self.graph.radio_range)
        neighbors = self._neighbors(orphan)
        heard = neighbors[~work.silent[neighbors]]
        self._charges.charge_recv_many(heard, _ACK)
        # A subtree member reaches the root only through the orphan's own
        # down parent, so the ok mask already excludes it — unless that
        # parent is the (down) root itself, whose state the path check
        # never consults.
        eligible = heard[work.ok[heard]]
        if work.parent[orphan] == work.root:
            eligible = eligible[~np.isin(eligible, work.subtree(orphan))]
        count = eligible.shape[0]
        if not count:
            return None
        positions = self.graph.positions
        distance = np.hypot(
            positions[orphan, 0] - positions[eligible, 0],
            positions[orphan, 1] - positions[eligible, 1],
        )
        self._charge_send_many(eligible, _ACK, distance)
        self._charges.charge_recv_many(np.full(count, orphan), _ACK)
        stats = work.stats
        orphans = [orphan] * count
        if stats is not None and (
            work.path_observed[eligible].any()
            or stats.observed_many(orphans, eligible.tolist()).any()
        ):
            probe_etx = stats.etx_many(orphans, eligible.tolist())
            cost = work.path_costs(probe_etx, eligible)
            best = np.lexsort((eligible, distance, cost))[0]
        else:
            # No relevant link ever observed: ETX would just replay the
            # prior everywhere, so fall back to nearest-neighbour adoption.
            best = np.lexsort((eligible, distance))[0]
        return int(eligible[best]), float(distance[best])

    def _charge_adopt_handshake(
        self, orphan: int, new_parent: int, distance: float
    ) -> None:
        """Adopt request / accept, both ack-sized control frames."""
        self._charge_send(orphan, _ACK, distance)
        self._charges.charge_recv(new_parent, _ACK)
        self._charge_send(new_parent, _ACK, distance)
        self._charges.charge_recv(orphan, _ACK)

    # -- membership sync ------------------------------------------------------

    def _sync_membership(
        self, algorithm, values: np.ndarray, ok: list[bool]
    ) -> tuple[list[int], list[int]]:
        tree = self.net.tree
        detached = self.detached
        newly_gone = [
            v for v in tree.sensor_nodes if not ok[v] and v not in detached
        ]
        newly_back = sorted(v for v in detached if ok[v])
        try:
            for vertex in newly_gone:
                # A down node's silence is noticed by its parent; the report
                # can only travel where an up path exists.
                reporter = tree.parent[vertex]
                if reporter == tree.root or (reporter >= 0 and ok[reporter]):
                    self._report_to_root(reporter)
                detached.add(vertex)
                algorithm.detach(self.net, vertex)

            for vertex in newly_back:
                # Filter re-push (one hop down), then the node reports its
                # current value up so the root can patch its counters.
                parent = tree.parent[vertex]
                self._charge_send(parent, _PUSH, tree.link_distance[vertex])
                self._charges.charge_recv(vertex, _PUSH)
                self._report_to_root(vertex)
                detached.discard(vertex)
                algorithm.rejoin(self.net, values, vertex)
        finally:
            # The algorithm hooks are root-side bookkeeping and never
            # charge the radio, so flushing last keeps every vertex's
            # charge order; on a ProtocolError the charges made so far
            # still land, as they would have one by one.
            self._charges.flush()
        return newly_gone, newly_back

    # -- charging helpers -----------------------------------------------------

    def _neighbors(self, vertex: int) -> np.ndarray:
        """``graph.neighbors(vertex)`` as a cached index array."""
        array = self._neighbor_arrays.get(vertex)
        if array is None:
            array = np.array(self.graph.neighbors(vertex), dtype=np.int64)
            self._neighbor_arrays[vertex] = array
        return array

    def _charge_send(self, sender: int, cost: MessageCost, distance: float) -> None:
        self._charges.charge_send(sender, cost, link_distance=distance)
        self._account_bits(cost.total_bits)

    def _charge_send_many(
        self, senders: np.ndarray, cost: MessageCost, distances
    ) -> None:
        self._charges.charge_send_many(senders, cost, distances)
        if len(senders):
            self._account_bits(len(senders) * cost.total_bits)

    def _report_to_root(self, start: int) -> None:
        """Report a membership change from ``start`` up the tree path.

        Membership reports are tiny (a vertex id and a flag) and ride
        piggybacked on the next already-scheduled frame of each hop, so they
        cost their payload bits but no extra MAC frames or headers.  Every
        relay hears the report before forwarding it, so recording all the
        receptions before all the sends keeps each vertex's charge order.
        """
        tree = self.net.tree
        if start == tree.root:
            return
        path = tree.path_to_root(start)
        senders = path[:-1]
        self._charges.charge_recv_many(path[1:], _REPORT)
        self._charge_send_many(
            senders, _REPORT, [tree.link_distance[v] for v in senders]
        )

    def _account_bits(self, bits: int) -> None:
        self.stats.repair_bits += bits
        phase_bits = self.net.phase_bits
        phase_bits[REPAIR_PHASE] = phase_bits.get(REPAIR_PHASE, 0) + bits


def _ok_to_root(tree: RoutingTree, down: np.ndarray) -> list[bool]:
    """Per vertex: it and every vertex above it, the root excepted, are up."""
    ok = (~down).tolist()
    ok[tree.root] = True
    parent = tree.parent
    for vertex in tree.top_down_order[1:]:
        if ok[vertex] and not ok[parent[vertex]]:
            ok[vertex] = False
    return ok


class _WorkingTree:
    """One repair pass's array view of the tree, patched as orphans adopt.

    ``parent`` maps the root to itself; ``silent`` is the down mask with
    the root treated as up (a probe always reaches the sink); ``ok`` is
    the ok-to-root mask (:func:`_ok_to_root`).  With an estimator,
    ``edge_etx``/``edge_observed`` hold each vertex's uplink ETX and
    observed flag and ``path_observed`` whether any uplink on its path to
    the root has been observed.
    """

    def __init__(self, tree: RoutingTree, down: np.ndarray, stats) -> None:
        n = tree.num_vertices
        root = tree.root
        self.tree = tree
        self.root = root
        self.down = down
        self.silent = down.copy()
        self.silent[root] = False
        parent = np.array(tree.parent, dtype=np.int64)
        parent[root] = root
        self.parent = parent
        self.depth = np.array(tree.depth, dtype=np.int64)
        self.mark = np.zeros(n, dtype=bool)
        self.stats = stats
        #: Children lists changed by this pass's adoptions; every other
        #: vertex still has the tree's own children.
        self._children: dict[int, list[int]] = {}
        self.ok = np.array(_ok_to_root(tree, down), dtype=bool)
        if stats is not None:
            vertices = range(n)
            ups = parent.tolist()
            self.edge_etx = stats.etx_many(vertices, ups)
            self.edge_observed = stats.observed_many(vertices, ups)
            self.edge_observed[root] = False
            seen = self.edge_observed.tolist()
            for vertex in tree.top_down_order[1:]:
                if not seen[vertex] and seen[tree.parent[vertex]]:
                    seen[vertex] = True
            self.path_observed = np.array(seen, dtype=bool)

    def orphans(self) -> np.ndarray:
        """Up sensors whose parent is down."""
        orphan = ~self.down & self.down[self.parent]
        orphan[self.root] = False
        if self.tree.relays:
            orphan[list(self.tree.relays)] = False
        return np.flatnonzero(orphan)

    def _kids(self, vertex: int):
        return self._children.get(vertex, self.tree.children[vertex])

    def _subtree_levels(self, vertex: int) -> list[list[int]]:
        levels = [[vertex]]
        while True:
            below = [child for v in levels[-1] for child in self._kids(v)]
            if not below:
                return levels
            levels.append(below)

    def subtree(self, vertex: int) -> np.ndarray:
        """All vertices of ``vertex``'s working subtree."""
        return np.array(
            [v for level in self._subtree_levels(vertex) for v in level],
            dtype=np.int64,
        )

    def adopt(self, orphan: int, new_parent: int) -> np.ndarray:
        """Re-parent ``orphan``; patch the arrays over its subtree.

        Returns the subtree's vertices.
        """
        old_parent = int(self.parent[orphan])
        self._children[old_parent] = [
            v for v in self._kids(old_parent) if v != orphan
        ]
        self._children[new_parent] = [*self._kids(new_parent), orphan]
        self.parent[orphan] = new_parent
        shift = self.depth[new_parent] + 1 - self.depth[orphan]
        if self.stats is not None:
            self.edge_etx[orphan] = self.stats.etx(orphan, new_parent)
            self.edge_observed[orphan] = self.stats.link_observed(
                orphan, new_parent
            )
        levels = [
            np.array(level, dtype=np.int64)
            for level in self._subtree_levels(orphan)
        ]
        for level in levels:
            ups = self.parent[level]
            self.depth[level] += shift
            self.ok[level] = self.ok[ups] & ~self.down[level]
            if self.stats is not None:
                self.path_observed[level] = (
                    self.path_observed[ups] | self.edge_observed[level]
                )
        return np.concatenate(levels)

    def path_costs(
        self, probe_etx: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """ETX of each probe link plus its candidate's path to the root.

        A lockstep level walk: all candidates climb one hop per step, and
        each adds its uplink's ETX to its running total — left to right
        from the probe link up, the order a hop-by-hop walk sums in, so
        every total matches that walk bit for bit.
        """
        depth = self.depth[candidates]
        order = np.argsort(-depth, kind="stable")
        depth = depth[order]
        vertex = candidates[order]
        total = probe_etx[order]
        # Deepest first: the candidates still climbing at step s are a
        # prefix, those deeper than s.
        climbing = np.searchsorted(-depth, -np.arange(depth[0]), side="left")
        for count in climbing.tolist():
            hop = vertex[:count]
            total[:count] += self.edge_etx[hop]
            vertex[:count] = self.parent[hop]
        cost = np.empty_like(total)
        cost[order] = total
        return cost
