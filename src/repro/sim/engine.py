"""Communication primitives over the routing tree.

Two primitives cover everything the paper's algorithms do:

* **convergecast** — leaf-to-root aggregation.  Every sensor node may
  contribute a payload; payloads are merged bottom-up (TAG-style in-network
  aggregation), and a vertex transmits to its parent iff it holds data
  (its own contribution or a child's delivered payload).  Merging is
  algorithm-specific (summing counters, unioning multisets, adding
  histograms, pruning to the f largest values, ...), so payloads implement
  the small :class:`Payload` interface.

* **broadcast** — root-to-leaves flooding.  Every internal vertex
  retransmits the payload once; every non-root vertex receives it once.
  The paper's refinement requests and filter broadcasts must reach all
  nodes (any node might hold a relevant value), so broadcasts always flood
  the full tree.

Energy and traffic are charged to the :class:`~repro.radio.EnergyLedger`
exactly as described in Section 5.1.4: the sender pays
``s * (alpha + beta * rho^p)``, every scheduled receiver pays ``s * alpha_r``.

The convergecast pipeline
-------------------------

One :meth:`TreeNetwork.convergecast` serves the reliable network and every
fault-injecting subclass, in four stages:

1. **Intake** drops empty payloads and contributions of vertices in the
   one :meth:`TreeNetwork._down_mask` read per call.
2. **Decide** works out which hops are sent and which deliver, looking
   only at *which* vertices hold data, never at payloads.  With nothing
   injected and ARQ off every holder sends once and delivers (array work,
   no Python loop); otherwise :class:`~repro.faults.network.
   FaultyTreeNetwork` makes the loss and ARQ decisions in one lean loop.
3. **Fold** merges payloads along the delivered edges.  When every
   contribution is one class with an array fold (``fold_arrays``, see
   :class:`Payload`), that fold runs once over the whole tree, one level
   at a time, through the exact primitives of
   :class:`~repro.sim.vectorized.ArrayFold`; otherwise payloads merge per
   object with ``merged_with`` in bottom-up order.  Either way the fold
   yields every radio hop's payload size and value count and the root's
   payload.  With no live contribution left neither runs; the answer is
   ``None``.
4. **Account** charges every attempt of every hop in one ordered
   ``charge_batch`` (:func:`~repro.sim.vectorized.expand_arq_charges`; a
   reliable hop is one attempt with ARQ off), adds the on-air bits to
   :attr:`TreeNetwork.phase_bits`, and logs a :class:`CollectionRecord`
   whose delivered set is a top-down "every hop delivered" fold.

Contracts, checked against the per-hop walk in ``tests/engine_reference.py``:

* **RNG stream order.**  One draw per data frame, then one per ACK, hop by
  hop bottom-up, attempt by attempt; a hop to a down parent fails every
  attempt without a draw.  Block-drawn uniforms are rewound and replayed
  on exit, so the generator ends where scalar sampling would leave it.
* **Charge order.**  Per attempt: child send, parent receive (parent up),
  parent ACK send (frame survived, ARQ on), child ACK-window receive (ARQ
  on).  ``np.add.at`` accumulates in array order, so every per-vertex
  float sum equals the scalar call sequence.
* **EWMA replay.**  A static ARQ policy's channel samples are folded into
  the :class:`~repro.network.linkstats.LinkQualityEstimator` once per
  convergecast, with the scalar recurrence; a
  per-link (adaptive) policy reads its estimator between hops, so its
  feedback stays inline.
* **Array fold.**  Pruning and zero-dropping apply only where two or more
  operands meet (a vertex's own live contribution plus its delivered
  children that hold data), as in ``merged_with``; a single operand is
  forwarded untouched, and a lone contribution reaching the root is the
  answer itself.  Every primitive is a mergeable summary (integer sums,
  min/max, tie-keeping prune, zero-dropping keyed sums), so folding a
  level at a time equals any pairwise merge order.  DESIGN.md §7 has the
  argument.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, ClassVar, Mapping, Optional, Sequence, TypeVar

import numpy as np

from repro.constants import ACK_FRAME_BITS, HEADER_BITS, MAX_PAYLOAD_BITS
from repro.errors import ProtocolError
from repro.network.tree import RoutingTree
from repro.radio.ledger import EnergyLedger
from repro.radio.message import message_bits
from repro.sim.vectorized import (
    ArrayFold,
    TreeArrays,
    expand_arq_charges,
    send_cost_per_bit_array,
)

P = TypeVar("P", bound="Payload")


@dataclass(frozen=True)
class CollectionRecord:
    """Root-observable outcome of one convergecast.

    ``expected`` counts the non-empty contributions that entered the tree;
    ``delivered`` holds the contributors whose payload is represented in the
    merged root payload.  On a reliable network the two always coincide;
    under fault injection (``repro.faults``) the gap is what the root-side
    watchdog watches.
    """

    expected: int
    delivered: frozenset[int]

    @property
    def coverage(self) -> float:
        """Delivered fraction of the expected contributions (1.0 if none)."""
        if self.expected == 0:
            return 1.0
        return len(self.delivered) / self.expected


class Payload(ABC):
    """Application payload that knows how to merge and size itself.

    Implementations must be *pure*: ``merged_with`` returns a new payload and
    never mutates either operand, because the engine may merge in any order
    along the tree.

    A class may also define an **array fold**, a classmethod
    ``fold_arrays(payloads, fold)``.  When every contribution of a
    convergecast is that one class, the engine calls it once instead of
    calling ``merged_with`` once per hop.  It receives the live
    contributions (in ``fold.sources`` order) and an
    :class:`~repro.sim.vectorized.ArrayFold`, and returns
    ``(root, bits, values)``:

    * ``bits``/``values`` — per vertex, ``payload_bits()`` and
      ``num_values()`` of the payload that vertex sends (``bits`` may be
      one int shared by every vertex), equal to what the per-object fold
      computes;
    * ``root`` — the payload the root holds, needed only when
      ``fold.merged_at_root`` (else the engine answers with the lone
      contribution that reached the root, or ``None``).

    The fold must equal ``merged_with`` in every merge order, raise the
    same :class:`~repro.errors.ProtocolError` for operands
    ``merged_with`` refuses to merge (the array fold refuses them among
    all live contributions, whether or not they meet), and leave a
    vertex's payload untouched where a single operand arrives
    (``fold.operands``).  Classes without one merge per object.
    """

    #: The class's array fold (a classmethod), or ``None``.
    fold_arrays: ClassVar[Callable | None] = None

    @abstractmethod
    def merged_with(self: P, other: P) -> P:
        """Combine two payloads travelling through the same vertex."""

    @abstractmethod
    def payload_bits(self) -> int:
        """Serialized payload size in bits (headers are added by the MAC)."""

    def num_values(self) -> int:
        """Raw measurements carried, for the transmitted-values statistic."""
        return 0

    def is_empty(self) -> bool:
        """Empty payloads are not transmitted (the vertex stays silent)."""
        return False


class UniformPayload(Payload):
    """Array fold for fixed-size payloads with additive value counts.

    A payload class may subclass this to promise, on top of the base
    :class:`Payload` contract:

    * ``payload_bits()`` equals :attr:`uniform_bits` for leaves **and** for
      any ``merged_with`` result — message sizing never needs the objects;
    * ``merged_with`` is *exactly* order-independent (commutative and
      associative with no rounding: integer or set semantics, not floats);
    * ``num_values`` of a merge equals the sum over its operands;
    * :meth:`vector_reduce` equals folding ``merged_with`` over the same
      payloads in any order.

    Its :meth:`fold_arrays` never merges objects: value counts are
    additive columns of the :class:`~repro.sim.vectorized.ArrayFold`, and
    the root answer is materialized once via :meth:`vector_reduce`.
    Classes that cannot honour all four promises must not subclass this.
    """

    #: Serialized size [bits] of a leaf payload and of any merge result.
    uniform_bits: ClassVar[int] = 0

    #: Optional extra promise: every *contributed* (leaf) instance is
    #: non-empty and reports ``num_values() == uniform_leaf_values`` (merge
    #: results may differ).  When set, the engine never touches the payload
    #: objects during intake: contributor ids come straight off the mapping
    #: keys and the values statistic is priced from this constant.  The
    #: paper's canonical workload (every sensor contributes one reading per
    #: round) is ``uniform_leaf_values = 1``.
    uniform_leaf_values: ClassVar[int | None] = None

    def payload_bits(self) -> int:
        return type(self).uniform_bits

    @classmethod
    @abstractmethod
    def vector_reduce(
        cls, payloads: "Sequence[UniformPayload]"
    ) -> "UniformPayload":
        """Merge ``payloads`` (at least one) into the root's answer."""

    @classmethod
    def fold_arrays(
        cls, payloads: "Sequence[UniformPayload]", fold: ArrayFold
    ) -> "tuple[UniformPayload | None, int, np.ndarray]":
        leaf = cls.uniform_leaf_values
        if leaf is not None:
            counts = np.full(len(payloads), leaf, dtype=np.int64)
        else:
            counts = np.fromiter(
                (p.num_values() for p in payloads),
                dtype=np.int64,
                count=len(payloads),
            )
        root = None
        if fold.merged_at_root:
            if fold.reached is not None:
                payloads = list(compress(payloads, fold.reached.tolist()))
            root = cls.vector_reduce(payloads)
        return root, cls.uniform_bits, fold.sums(counts)


@dataclass
class Hops:
    """The decide stage's verdict on one convergecast.

    ``walk``: the live vertices holding data, bottom-up, root excluded;
    ``delivered``: per ``walk`` entry, whether it reached its parent;
    ``senders``: ``walk`` minus virtual vertices (the radio hops);
    ``attempts``/``parent_up``/``final_ack``: per hop, data-frame attempts,
    whether the parent listened, the last ACK's outcome; ``frame_ok``: per
    attempt, hop-major.  ``None`` means one delivered attempt per hop to a
    listening parent; ``arq`` says whether ACKs ran.
    """

    walk: np.ndarray
    delivered: list[bool] | None
    senders: np.ndarray
    attempts: np.ndarray | None = None
    frame_ok: np.ndarray | None = None
    parent_up: np.ndarray | None = None
    final_ack: list[bool] | None = None
    arq: bool = False


class TreeNetwork:
    """Binds a routing tree to an energy ledger and runs the primitives.

    ``virtual_vertices`` marks *artificial child nodes* (Section 2: a node
    producing multiple values is modelled as a node with artificial
    children, one per extra value).  They participate in the protocols like
    any sensor node but their link to the hosting vertex is device-internal:
    no radio energy or message accounting is charged on it.  Virtual
    vertices must be leaves.

    The base class is a perfectly reliable network.  Two seams let
    :class:`~repro.faults.network.FaultyTreeNetwork` inject faults into
    both primitives: :meth:`_down_mask` (who is out of service) and
    :meth:`_decide_hops` (which hops deliver).
    """

    def __init__(
        self,
        tree: RoutingTree,
        ledger: EnergyLedger,
        virtual_vertices: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        if tree.num_vertices != ledger.num_vertices:
            raise ProtocolError(
                f"tree has {tree.num_vertices} vertices but ledger has "
                f"{ledger.num_vertices}"
            )
        if tree.root != ledger.root:
            raise ProtocolError(
                f"tree root {tree.root} differs from ledger root {ledger.root}"
            )
        virtual = frozenset(virtual_vertices)
        for vertex in virtual:
            if not 0 <= vertex < tree.num_vertices or vertex == tree.root:
                raise ProtocolError(f"invalid virtual vertex {vertex}")
            if not tree.is_leaf(vertex):
                raise ProtocolError(
                    f"virtual vertex {vertex} must be a leaf of the tree"
                )
        self.tree = tree
        self.ledger = ledger
        self.virtual_vertices = virtual
        #: Completed tree traversals (convergecasts + broadcasts).  Each
        #: traversal costs one tree depth of TDMA slots, so the runner
        #: derives per-round latency from the delta of this counter — the
        #: time-complexity dimension studied by [15].
        self.exchanges = 0
        #: Protocol phase the algorithms annotate before each primitive
        #: ("initialization", "validation", "refinement", "filter", ...);
        #: on-air bits are attributed to it in :attr:`phase_bits`.
        self.phase = "other"
        self.phase_bits: dict[str, int] = {}
        #: One :class:`CollectionRecord` per convergecast, in order.  The
        #: fault experiments feed these to the root-side watchdog; long
        #: reliable runs may :meth:`list.clear` it between rounds.
        self.collection_log: list[CollectionRecord] = []
        self._virtual_mask: np.ndarray | None = None
        if virtual:
            mask = np.zeros(tree.num_vertices, dtype=bool)
            mask[list(virtual)] = True
            self._virtual_mask = mask
        self._refresh_cached_arrays()

    @property
    def num_sensor_nodes(self) -> int:
        """Number of measuring nodes ``|N|``."""
        return self.tree.num_sensor_nodes

    def _refresh_cached_arrays(self) -> None:
        """Rebuild the struct-of-arrays tree view after a tree swap."""
        tree = self.tree
        self._arrays = TreeArrays(tree)
        self._order_no_root = tree.bottom_up_order[:-1]
        model = self.ledger.model
        self._send_cpb_array: np.ndarray | None = None
        self._send_cpb = 0.0
        if model.per_link_distance:
            self._send_cpb_array = send_cost_per_bit_array(
                model, self.ledger.radio_range, tree.link_distance
            )
        else:
            self._send_cpb = model.send_cost_per_bit(self.ledger.radio_range)

    def retarget(self, tree: RoutingTree, *, allow_reroot: bool = False) -> None:
        """Swap in a repaired routing tree over the same vertex set.

        Tree repair (``repro.faults.repair``) re-attaches orphaned subtrees
        to new parents; the ledger, phase accounting and collection log all
        carry over because the vertices themselves are unchanged.

        ``allow_reroot`` additionally permits the root to move (root
        fail-over: a successor takes over the sink role).  The ledger is
        re-rooted in lockstep so the new sink leaves the battery-derived
        metrics; moving the root remains an error for ordinary repair.
        """
        if tree.num_vertices != self.tree.num_vertices:
            raise ProtocolError(
                f"retarget changed the vertex count: {self.tree.num_vertices} "
                f"-> {tree.num_vertices}"
            )
        if tree.root != self.tree.root:
            if not allow_reroot:
                raise ProtocolError(
                    f"retarget moved the root: {self.tree.root} -> {tree.root}"
                )
            self.ledger.reroot(tree.root)
        if tree.relays != self.tree.relays:
            raise ProtocolError("retarget changed the relay set")
        self.tree = tree
        self._refresh_cached_arrays()

    # -- fault seams ----------------------------------------------------------

    def _down_mask(self) -> np.ndarray | None:
        """Per-vertex "out of service" mask (``None``: everybody is up).

        A down vertex contributes nothing, forwards nothing and neither
        relays nor hears a broadcast.  The reliable network has none.
        """
        return None

    def _decide_hops(self, present: np.ndarray, down: np.ndarray | None) -> Hops:
        """Decide stage of the reliable radio: every holder sends, once.

        ``present`` marks the live contributors; nothing is down here.  A
        vertex holds data iff its subtree holds a contribution.
        """
        arrays = self._arrays
        holds = arrays.subtree_sums(present) > 0
        order = arrays.bottom_up_no_root
        walk = order[holds[order]]
        senders = walk
        if self._virtual_mask is not None:
            senders = walk[~self._virtual_mask[walk]]
        return Hops(walk=walk, delivered=None, senders=senders)

    # -- convergecast -----------------------------------------------------------

    def convergecast(self, contributions: Mapping[int, P]) -> Optional[P]:
        """Aggregate payloads leaf-to-root; return the merged root payload.

        Args:
            contributions: per-vertex local payloads.  Vertices absent from
                the mapping (and payloads reporting ``is_empty()``) stay
                silent unless they must forward a child's data.  A
                contribution keyed by the root itself is merged into the
                result without radio cost.

        Returns:
            The payload as seen by the root, or ``None`` if nothing
            reached it.
        """
        self.exchanges += 1

        # 1. Intake.  ``vertices`` stays the mapping itself while nothing is
        # dropped: its keys convert to arrays and sets fastest.
        vertices: Mapping[int, P] | list[int] = contributions
        payloads = list(contributions.values())
        kind: type | None = None
        if payloads:
            first = type(payloads[0])
            if set(map(type, payloads)) == {first}:
                kind = first
        # A class promising non-empty leaves (``uniform_leaf_values``, see
        # UniformPayload) is not asked ``is_empty`` per contribution.
        if kind is None or getattr(kind, "uniform_leaf_values", None) is None:
            keep = [not payload.is_empty() for payload in payloads]
            if not all(keep):
                vertices = list(compress(contributions, keep))
                payloads = list(compress(payloads, keep))
        expected = len(payloads)
        n = self.tree.num_vertices
        down = self._down_mask()
        live_idx = np.fromiter(vertices, dtype=np.int64, count=expected)
        if down is not None and expected:
            live = ~down[live_idx]
            if not live.all():
                live_idx = live_idx[live]
                keep = live.tolist()
                vertices = list(compress(vertices, keep))
                payloads = list(compress(payloads, keep))

        # 2. Decide.
        if payloads:
            present = np.zeros(n, dtype=bool)
            present[live_idx] = True
            hops = self._decide_hops(present, down)
        else:
            empty = np.zeros(0, dtype=np.int64)
            hops = Hops(walk=empty, delivered=None, senders=empty)

        # Which hops delivered, and which contributions reached the root
        # (a top-down "every hop delivered" fold); ``None``: all of them.
        arrays = self._arrays
        edge_ok: np.ndarray | None = None
        reached: np.ndarray | None = None
        if hops.delivered is not None:
            edge_ok = np.zeros(n, dtype=bool)
            edge_ok[hops.walk[np.array(hops.delivered, dtype=bool)]] = True
            path_ok = np.zeros(n, dtype=bool)
            path_ok[self.tree.root] = True
            parent = arrays.parent
            for level in arrays.levels[1:]:
                path_ok[level] = path_ok[parent[level]] & edge_ok[level]
            reached = path_ok[live_idx]

        # 3. Fold.
        fold_arrays = kind.fold_arrays if kind is not None else None
        if fold_arrays is not None and payloads:
            fold = ArrayFold(arrays, live_idx, hops.walk, edge_ok, reached)
            answer, bits, values = fold_arrays(payloads, fold)
            senders = hops.senders
            hop_bits = bits[senders] if np.ndim(bits) else bits
            hop_values = values[senders]
            if not fold.merged_at_root:
                # The root holds the lone contribution that reached it.
                at_root = (
                    range(len(payloads))
                    if reached is None
                    else np.flatnonzero(reached)
                )
                answer = payloads[at_root[0]] if len(at_root) else None
        else:
            answer, hop_bits, hop_values = self._fold_objects(
                vertices, payloads, hops
            )

        # 4. Account.
        phase_total = self._charge_hops(hops, hop_bits, hop_values)
        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0) + phase_total
        )
        # Keep the caller's vertex objects: the log holds them for good.
        delivered = (
            vertices if reached is None else compress(vertices, reached.tolist())
        )
        self.collection_log.append(
            CollectionRecord(expected=expected, delivered=frozenset(delivered))
        )
        return answer

    def _fold_objects(
        self, vertices: list[int], payloads: list[P], hops: Hops
    ) -> tuple[Optional[P], np.ndarray, np.ndarray]:
        """Per-object fold along the delivered edges, in walk order.

        Returns the root payload and each radio hop's payload size and
        value count (the sizes the account stage charges).
        """
        accumulated: list[Optional[P]] = [None] * self.tree.num_vertices
        for vertex, payload in zip(vertices, payloads):
            accumulated[vertex] = payload
        parent = self.tree.parent
        sizes: list[int] = []
        values: list[int] = []
        size_of = sizes.append
        values_of = values.append
        walk = hops.walk.tolist()
        delivered = repeat(True) if hops.delivered is None else hops.delivered
        for vertex, ok in zip(walk, delivered):
            merged = accumulated[vertex]
            size_of(merged.payload_bits())
            values_of(merged.num_values())
            if ok:
                par = parent[vertex]
                existing = accumulated[par]
                accumulated[par] = (
                    merged if existing is None else existing.merged_with(merged)
                )
        hop_bits = np.array(sizes, dtype=np.int64)
        hop_values = np.array(values, dtype=np.int64)
        if self._virtual_mask is not None and len(walk):
            radio = ~self._virtual_mask[hops.walk]
            hop_bits = hop_bits[radio]
            hop_values = hop_values[radio]
        return accumulated[self.tree.root], hop_bits, hop_values

    def _charge_hops(
        self, hops: Hops, payload_bits: "int | np.ndarray", values: np.ndarray
    ) -> int:
        """Charge every attempt of every hop in one batch; returns on-air bits.

        ``payload_bits`` is per hop, or one size shared by every hop.
        """
        senders = hops.senders
        m = len(senders)
        if not m:
            return 0
        if np.ndim(payload_bits) == 0:
            cost = message_bits(int(payload_bits))
            frames = np.full(m, cost.messages, dtype=np.int64)
            total_bits = np.full(m, cost.total_bits, dtype=np.int64)
        else:
            frames = np.where(
                payload_bits > 0, -(-payload_bits // MAX_PAYLOAD_BITS), 1
            )
            total_bits = frames * HEADER_BITS + payload_bits
        receivers = self._arrays.parent[senders]
        parent_up = hops.parent_up
        if parent_up is None:
            parent_up = np.ones(m, dtype=bool)
        frame_ok = hops.frame_ok
        if hops.attempts is not None:
            hop_index = np.repeat(np.arange(m), hops.attempts)
            senders = senders[hop_index]
            receivers = receivers[hop_index]
            total_bits = total_bits[hop_index]
            frames = frames[hop_index]
            values = values[hop_index]
            parent_up = parent_up[hop_index]
        if frame_ok is None:
            frame_ok = np.ones(len(senders), dtype=bool)
        send_cpb = (
            self._send_cpb_array[senders]
            if self._send_cpb_array is not None
            else self._send_cpb
        )
        self.ledger.charge_batch(
            **expand_arq_charges(
                senders,
                receivers,
                total_bits,
                frames,
                values,
                parent_up,
                frame_ok,
                hops.arq,
                send_cpb,
                self.ledger.model.recv_cost,
                ACK_FRAME_BITS,
            )
        )
        phase_total = int(total_bits.sum())
        if hops.arq:
            phase_total += ACK_FRAME_BITS * int(frame_ok.sum())
        return phase_total

    # -- broadcast ----------------------------------------------------------------

    def broadcast(self, payload_bits: int) -> int:
        """Flood ``payload_bits`` of payload from the root to every node.

        Each internal vertex (root included) transmits once; each non-root
        vertex receives once from its parent.  Downstream link loss is
        assumed to be masked by flooding redundancy, but a down internal
        vertex cannot retransmit, so its whole subtree misses the flood,
        and a down vertex neither listens nor pays.

        Returns the number of non-root vertices the flood reached (on a
        reliable, churn-free network: all of them).
        """
        if payload_bits < 0:
            raise ProtocolError(f"payload_bits must be >= 0, got {payload_bits}")
        arrays = self._arrays
        root = self.tree.root
        self.exchanges += 1
        cost = message_bits(payload_bits)
        n = arrays.num_vertices
        down = self._down_mask()
        if down is None:
            senders_mask = arrays.has_children
            receivers_mask = np.ones(n, dtype=bool)
            receivers_mask[root] = False
            reached_count = n - 1
        else:
            parent = arrays.parent
            reached = np.zeros(n, dtype=bool)
            reached[root] = True
            live_sender = ~down
            live_sender[root] = True
            for level in arrays.levels[1:]:
                parents_of_level = parent[level]
                reached[level] = (
                    reached[parents_of_level]
                    & live_sender[parents_of_level]
                    & live_sender[level]
                )
            senders_mask = reached & arrays.has_children & live_sender
            reached_count = int(reached.sum()) - 1
            receivers_mask = reached.copy()
            receivers_mask[root] = False
        if self._virtual_mask is not None:
            receivers_mask = receivers_mask & ~self._virtual_mask
        senders = np.nonzero(senders_mask)[0]
        receivers = np.nonzero(receivers_mask)[0]
        recv_joule = cost.total_bits * self.ledger.model.recv_cost
        if self._send_cpb_array is not None:
            send_joules = cost.total_bits * self._send_cpb_array[senders]
        else:
            send_joules = np.full(
                len(senders), cost.total_bits * self._send_cpb
            )
        # A vertex receives from its parent before it retransmits, so the
        # receive batch is applied first to preserve the per-vertex
        # float-addition order of a hop-by-hop flood.
        energy_vertices = np.concatenate([receivers, senders])
        energy_joules = np.concatenate(
            [np.full(len(receivers), recv_joule), send_joules]
        )
        self.ledger.charge_batch(
            energy_vertices=energy_vertices,
            energy_joules=energy_joules,
            send_vertices=senders,
            send_messages=np.full(len(senders), cost.messages, dtype=np.int64),
            send_bits=np.full(len(senders), cost.total_bits, dtype=np.int64),
            send_values=np.zeros(len(senders), dtype=np.int64),
            recv_vertices=receivers,
            recv_messages=np.full(
                len(receivers), cost.messages, dtype=np.int64
            ),
            recv_bits=np.full(len(receivers), cost.total_bits, dtype=np.int64),
        )
        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0)
            + cost.total_bits * len(senders)
        )
        return reached_count
