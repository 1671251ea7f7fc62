"""Struct-of-arrays building blocks for the simulation engine.

Walking one Python object per vertex and charging the energy ledger one
scalar numpy update at a time is fine at 30 nodes, ruinous at 30k.  This
module holds the pieces that turn a round of :mod:`repro.sim.engine` into
a handful of segmented array operations:

* :class:`TreeArrays` — a per-vertex array view of a
  :class:`~repro.network.tree.RoutingTree` (parent, depth, topological
  levels, bottom-up order, children mask, depth-first subtree spans).
  Built once per tree and reused every round;
  :meth:`TreeNetwork.retarget` rebuilds it.

* :class:`ChargeLog` — an ordered recorder with the
  ``charge_send``/``charge_recv`` signature of
  :class:`~repro.radio.ledger.EnergyLedger`.  Joules are computed at log
  time with exactly the scalar ledger's float arithmetic; ``flush()``
  replays the whole sequence through one
  :meth:`~repro.radio.ledger.EnergyLedger.charge_batch` call.  Because
  ``np.add.at`` accumulates repeated indices in array order, the per-vertex
  addition sequence — and therefore every float in the ledger — matches the
  scalar call sequence bit for bit.  ``charge_send_many``/
  ``charge_recv_many`` record a run of equal-cost charges in one call
  (tree repair's probe replies and membership reports).

* :class:`ArrayFold` — one convergecast's delivered edges and the exact
  merge primitives a payload class's array fold is built from (the
  engine's fold stage).

* :func:`expand_arq_charges` — every attempt of every convergecast hop as
  one ordered charge batch (the engine's account stage).

The engine keeps its object API on top of these (see ``DESIGN.md``,
"Vectorized simulation core"); algorithms never see this module.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.tree import RoutingTree
    from repro.radio.ledger import EnergyLedger
    from repro.radio.message import MessageCost


class TreeArrays:
    """Per-vertex array view of a routing tree, cached across rounds.

    Attributes:
        num_vertices: total vertex count, root included.
        root: the sink vertex.
        parent: ``int64`` parent index per vertex (root maps to itself so
            fancy indexing never walks out of bounds; the root never sends).
        depth: ``int64`` hop distance to the root per vertex.
        levels: index arrays grouping vertices by depth, ``levels[0]`` being
            ``[root]``.  Broadcasts sweep them top-down, the segmented
            convergecast sweeps them bottom-up.
        bottom_up_no_root: the tree's bottom-up traversal order minus the
            root — the canonical hop order of a convergecast.
        has_children: boolean mask of internal vertices (broadcast senders).
    """

    __slots__ = (
        "num_vertices",
        "root",
        "parent",
        "depth",
        "levels",
        "bottom_up_no_root",
        "has_children",
        "_children",
        "_subtree_size",
        "_span",
        "_fold_order",
    )

    def __init__(self, tree: "RoutingTree") -> None:
        n = tree.num_vertices
        self.num_vertices = n
        self.root = tree.root
        parent = np.array(tree.parent, dtype=np.int64)
        parent[tree.root] = tree.root
        self.parent = parent
        depth = np.array(tree.depth, dtype=np.int64)
        self.depth = depth
        order = np.argsort(depth, kind="stable")
        boundaries = np.searchsorted(depth[order], np.arange(int(depth.max()) + 2))
        self.levels = [
            order[boundaries[d] : boundaries[d + 1]]
            for d in range(len(boundaries) - 1)
        ]
        # bottom_up_order ends on the root (it is the reverse of a
        # root-first traversal), so dropping the last entry drops the root.
        self.bottom_up_no_root = np.array(
            tree.bottom_up_order[:-1], dtype=np.int64
        )
        self.has_children = np.array(
            [len(kids) > 0 for kids in tree.children], dtype=bool
        )
        self._children = tree.children
        self._subtree_size = tree.subtree_size
        #: Depth-first layout, built on first use: (order, first, end).
        self._span: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._fold_order: np.ndarray | None = None

    def subtree_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-vertex sum of ``values`` over its subtree (itself included).

        A depth-first order lays every subtree out as one contiguous run,
        so each sum is the difference of two prefix sums: a few array
        operations whatever the depth, exact for integer (or boolean)
        values.
        """
        if self._span is None:
            order: list[int] = []
            stack = [self.root]
            while stack:
                vertex = stack.pop()
                order.append(vertex)
                stack.extend(self._children[vertex])
            preorder = np.array(order, dtype=np.int64)
            first = np.empty(self.num_vertices, dtype=np.int64)
            first[preorder] = np.arange(self.num_vertices)
            end = first + np.array(self._subtree_size, dtype=np.int64)
            self._span = (preorder, first, end)
        preorder, first, end = self._span
        prefix = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(values[preorder], out=prefix[1:])
        return prefix[end] - prefix[first]

    @property
    def fold_order(self) -> np.ndarray:
        """Non-root vertices, deepest level first, by parent within a level.

        Siblings are adjacent, so a level's hops into each parent form one
        run (see :class:`ArrayFold`).  Built on first use.
        """
        if self._fold_order is None:
            n = self.num_vertices
            key = (int(self.depth.max()) - self.depth) * n + self.parent
            order = np.argsort(key, kind="stable")
            self._fold_order = order[order != self.root]
        return self._fold_order


class ArrayFold:
    """One convergecast's delivered edges, for a payload class's array fold.

    A payload class with an array fold (``Payload.fold_arrays``) merges
    its contributions through these primitives instead of calling
    ``merged_with`` once per hop.  Each primitive takes per-source columns
    (one entry, or one run of entries, per live contribution, in
    :attr:`sources` order) and folds them up the tree one level at a time,
    deepest first, along the delivered edges.  It returns, per vertex,
    what that vertex holds once its own contribution and its delivered
    children's payloads are merged: the payload it sends on.

    Every primitive is exact, so a level-batched fold equals any pairwise
    merge order:

    * additive integer columns (:meth:`sums`) — integer addition;
    * min/max columns (:meth:`minima`, :meth:`maxima`);
    * a sorted multiset with an optional tie-keeping prune
      (:meth:`multiset`) — pruning to the ``keep`` smallest values plus
      the ties of the boundary composes: pruning a union of pruned
      operands equals pruning the union of the raw ones;
    * keyed sparse sums that drop zero entries (:meth:`keyed_sums`) —
      dropping zeros commutes with integer sums.

    Pruning and zero-dropping apply only where ``merged_with`` runs: at
    vertices whose :attr:`operands` count is at least 2.  A vertex with a
    single operand forwards it untouched, as the per-object fold does.

    Attributes:
        root: the sink vertex.
        sources: contributing vertex of each live payload.
        operands: per vertex, the payloads merged there — its own live
            contribution plus its delivered children that hold data.
        reached: per source, whether it reached the root (``None``: all).
        merged_at_root: whether two or more contributions reached the
            root.  Otherwise the root holds the lone contribution that
            reached it, or nothing, and no merge result is needed.
    """

    def __init__(
        self,
        arrays: TreeArrays,
        sources: np.ndarray,
        walk: np.ndarray,
        edge_ok: np.ndarray | None,
        reached: np.ndarray | None,
    ) -> None:
        """``walk``: the vertices holding data, root excluded; ``edge_ok``:
        per vertex, whether its hop delivered (``None``: every hop did)."""
        self._arrays = arrays
        self._walk = walk
        self._edge_ok = edge_ok
        self.root = arrays.root
        self.sources = sources
        self.reached = reached
        count = len(sources) if reached is None else np.count_nonzero(reached)
        self.merged_at_root = bool(count >= 2)

    @cached_property
    def _carried(self) -> np.ndarray:
        """Per vertex: holds data and its hop delivered."""
        carried = np.zeros(self._arrays.num_vertices, dtype=bool)
        carried[self._walk] = True
        if self._edge_ok is not None:
            carried &= self._edge_ok
        return carried

    @cached_property
    def operands(self) -> np.ndarray:
        arrays = self._arrays
        operands = np.bincount(
            arrays.parent[self._carried], minlength=arrays.num_vertices
        )
        operands[self.sources] += 1
        return operands

    @cached_property
    def _steps(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The delivered hops, deepest level first, siblings adjacent.

        Per level: the hop senders, their distinct parents and where each
        parent's run of senders starts.
        """
        arrays = self._arrays
        order = arrays.fold_order
        order = order[self._carried[order]]
        if not len(order):
            return []
        parent = arrays.parent[order]
        starts = np.flatnonzero(
            np.concatenate(([True], parent[1:] != parent[:-1]))
        )
        depth = arrays.depth[order[starts]]
        cuts = np.flatnonzero(depth[1:] != depth[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [len(starts)])).tolist()
        edges = np.concatenate((starts, [len(order)]))
        steps = []
        for first, end in zip(bounds[:-1], bounds[1:]):
            low = starts[first]
            steps.append(
                (
                    order[low : edges[end]],
                    parent[starts[first:end]],
                    starts[first:end] - low,
                )
            )
        return steps

    def sums(self, columns: np.ndarray) -> np.ndarray:
        """Per-vertex totals of integer ``columns`` (one row per source)."""
        n = self._arrays.num_vertices
        totals = np.zeros((n,) + columns.shape[1:], dtype=np.int64)
        totals[self.sources] = columns
        if self._edge_ok is None and columns.ndim == 1:
            # Every hop delivered: prefix sums over the depth-first layout.
            return self._arrays.subtree_sums(totals)
        for senders, parents, runs in self._steps:
            totals[parents] += np.add.reduceat(totals[senders], runs, axis=0)
        return totals

    def minima(
        self, column: np.ndarray, present: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-vertex minimum of ``column`` over the sources ``present``
        (default: all); ``int64`` max where none contributes."""
        return self._extreme(
            column, present, np.minimum, np.iinfo(np.int64).max
        )

    def maxima(
        self, column: np.ndarray, present: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-vertex maximum, as :meth:`minima`; ``int64`` min where none
        contributes."""
        return self._extreme(
            column, present, np.maximum, np.iinfo(np.int64).min
        )

    def _extreme(self, column, present, ufunc, fill: int) -> np.ndarray:
        out = np.full(self._arrays.num_vertices, fill, dtype=np.int64)
        if present is None:
            out[self.sources] = column
        else:
            out[self.sources[present]] = column[present]
        for senders, parents, runs in self._steps:
            out[parents] = ufunc(out[parents], ufunc.reduceat(out[senders], runs))
        return out

    def multiset(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        keep: int | None = None,
        largest: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold per-source runs of ``values`` as sorted multisets.

        ``counts`` gives each source's run length.  Where two or more
        operands meet, the merged multiset is pruned to its ``keep``
        smallest (``largest``: largest) values plus every further copy of
        the boundary value; ``keep=None`` never prunes.

        Returns each vertex's multiset size and the root's values,
        ascending.
        """
        sizes = np.zeros(self._arrays.num_vertices, dtype=np.int64)
        operands = self.operands
        codes, span, decode = _order_codes(values)

        def merge(entries):
            entries = np.sort(entries)
            start, length = _runs(entries // span)
            holder = entries[start] // span
            if keep is not None:
                cut = (length > keep) & (operands[holder] >= 2)
                if cut.any():
                    run = np.repeat(np.arange(len(start)), length)
                    # The keep-th entry from the kept end (runs too short
                    # to cut read any in-run entry; they are kept whole).
                    # Within a run, entries order as their values do.
                    if largest:
                        boundary = entries[start + np.maximum(length - keep, 0)]
                        kept = entries >= boundary[run]
                    else:
                        boundary = entries[start + np.minimum(keep, length) - 1]
                        kept = entries <= boundary[run]
                    kept |= ~cut[run]
                    entries = entries[kept]
                    length = np.bincount(run[kept], minlength=len(start))
            sizes[holder] = length
            return (entries,)

        (root,) = self._fold_runs(counts, codes, span, merge)
        return sizes, decode(root % span)

    def keyed_sums(
        self,
        keys: tuple[np.ndarray, ...],
        deltas: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
        """Fold per-source runs of ``(key, delta)`` entries as sparse sums.

        Each entry's key is one value from every array in ``keys``; a run
        holds distinct keys.  Where two or more operands meet, deltas of
        equal keys add up and zero sums are dropped.

        Returns each vertex's entry count, and the root's keys (ascending,
        one array per key column) and deltas.
        """
        sizes = np.zeros(self._arrays.num_vertices, dtype=np.int64)
        operands = self.operands
        # One code per key, ordered as the key tuples are.
        codes = np.zeros(len(deltas), dtype=np.int64)
        span = 1
        decoders = []
        for key in keys:
            digit, width, decode = _order_codes(key)
            codes = codes * width + digit
            decoders.append((width, decode))
            span *= width

        def merge(entries, delta):
            order = np.argsort(entries)
            entries = entries[order]
            start, _ = _runs(entries)
            entries = entries[start]
            delta = np.add.reduceat(delta[order], start)
            owner = entries // span
            kept = (delta != 0) | (operands[owner] < 2)
            if not kept.all():
                entries = entries[kept]
                delta = delta[kept]
                owner = owner[kept]
            start, length = _runs(owner)
            sizes[owner[start]] = length
            return entries, delta

        root, root_deltas = self._fold_runs(counts, codes, span, merge, deltas)
        code = root % span
        root_keys = []
        for width, decode in reversed(decoders):
            root_keys.append(decode(code % width))
            code //= width
        return sizes, tuple(reversed(root_keys)), root_deltas

    def _fold_runs(self, counts, codes, span, merge, *columns) -> tuple:
        """Walk per-source runs of entries up the tree, level by level.

        An entry is ``owner * span + code`` (``0 <= code < span``), plus
        its values in ``columns``; entries start at their source
        (``counts`` per source).  At each level, deepest first,
        ``merge(entries, *columns)`` combines the entries held there (in no
        particular order) and returns the merged ones; those of delivered
        vertices move onto the parents.  Returns the root level's merge.
        """
        arrays = self._arrays
        n = arrays.num_vertices
        if n * span >= 2**62:
            raise ValueError("array fold keys too wide for int64 codes")
        owner = np.repeat(self.sources, counts)
        entries = owner * span + codes
        owner_depth = arrays.depth[owner]
        pending: list[list[tuple]] = [[] for _ in arrays.levels]
        for depth in np.unique(owner_depth).tolist():
            at = owner_depth == depth
            pending[depth].append(
                (entries[at],) + tuple(column[at] for column in columns)
            )
        root = (entries[:0],) + tuple(column[:0] for column in columns)
        for depth in range(len(pending) - 1, -1, -1):
            if not pending[depth]:
                continue
            merged = merge(
                *(np.concatenate(part) for part in zip(*pending[depth]))
            )
            if depth == 0:
                root = merged
                break
            entries, *rest = merged
            owner = entries // span
            if self._edge_ok is not None:
                up = self._edge_ok[owner]
                owner = owner[up]
                entries = entries[up]
                rest = [column[up] for column in rest]
            moved = arrays.parent[owner] * span + entries % span
            pending[depth - 1].append((moved, *rest))
        return root


def _order_codes(column: np.ndarray):
    """Order-preserving codes ``0 <= code < span`` for an integer column.

    Returns ``(codes, span, decode)``; ``decode(codes)`` gives the values
    back.  A column spanning at most twice its length is offset by its
    minimum; a sparser one is ranked among its distinct values.
    """
    if not len(column):
        return column, 1, lambda codes: codes
    low = int(column.min())
    width = int(column.max()) - low + 1
    if width <= 2 * len(column):
        return column - low, width, lambda codes: codes + low
    distinct, codes = np.unique(column, return_inverse=True)
    return codes.reshape(-1), len(distinct), distinct.__getitem__


def _runs(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of every run of equal values in ``column``."""
    size = len(column)
    new = np.empty(size, dtype=bool)
    new[:1] = True
    np.not_equal(column[1:], column[:-1], out=new[1:])
    start = np.flatnonzero(new)
    length = np.empty(len(start), dtype=np.int64)
    length[:-1] = start[1:] - start[:-1]
    length[-1:] = size - start[-1:]
    return start, length


def send_cost_per_bit_array(
    model, radio_range: float, link_distance: Sequence[float]
) -> np.ndarray:
    """Per-vertex transmit cost [J/bit], scalar-exact.

    Each entry is produced by the same
    :meth:`~repro.radio.energy.EnergyModel.send_cost_per_bit` float
    arithmetic the scalar ledger path runs, so batched ``bits * cost``
    products equal the scalar ones bit for bit (a vectorized ``dist ** p``
    could round differently on some platforms).
    """
    return np.array(
        [model.send_cost_per_bit(radio_range, d) for d in link_distance],
        dtype=np.float64,
    )


def expand_arq_charges(
    att_child: np.ndarray,
    att_parent: np.ndarray,
    att_bits: np.ndarray,
    att_frames: np.ndarray,
    att_values: np.ndarray,
    att_parent_up: np.ndarray,
    att_frame_ok: np.ndarray,
    arq_enabled: bool,
    send_cpb,
    recv_cpb: float,
    ack_bits: int,
) -> dict:
    """Expand per-attempt ARQ outcomes into one ordered charge batch.

    Input arrays are flat per *data-frame attempt*, ordered by hop then
    attempt — the order a hop-by-hop walk issues charges in.  Each attempt
    expands to up to four energy events, in stop-and-wait order:

    1. child data send — always;
    2. parent data receive — iff the parent is up;
    3. parent ACK send — iff ARQ is enabled and the frame survived
       (charged at the *child's* uplink distance);
    4. child ACK-window receive — iff ARQ is enabled (a real ACK receive
       or the vain listen after a lost frame, same cost either way).

    Joules are integer bit counts times the scalar ledger's J/bit factors
    (``send_cpb``: per attempt, or one scalar), so the returned
    ``charge_batch`` kwargs accumulate every per-vertex float in scalar
    order, bit for bit; the order-free traffic counters come pre-split by
    direction.
    """
    n = att_child.shape[0]
    data_send_j = att_bits * send_cpb
    data_recv_j = att_bits * recv_cpb
    up = att_parent_up
    if not arq_enabled and up.all():
        # One send and one receive per attempt: interleave.
        energy_vertices = np.empty(2 * n, dtype=np.int64)
        energy_vertices[0::2] = att_child
        energy_vertices[1::2] = att_parent
        energy_joules = np.empty(2 * n, dtype=np.float64)
        energy_joules[0::2] = data_send_j
        energy_joules[1::2] = data_recv_j
        return {
            "energy_vertices": energy_vertices,
            "energy_joules": energy_joules,
            "send_vertices": att_child,
            "send_messages": att_frames,
            "send_bits": att_bits,
            "send_values": att_values,
            "recv_vertices": att_parent,
            "recv_messages": att_frames,
            "recv_bits": att_bits,
        }
    if np.ndim(send_cpb) == 0:
        send_cpb = np.full(n, float(send_cpb))
    up_i = up.astype(np.int64)
    if arq_enabled:
        ok = att_frame_ok
        ok_i = ok.astype(np.int64)
        counts = 2 + up_i + ok_i
    else:
        counts = 1 + up_i
    offsets = np.empty(n, dtype=np.int64)
    if n:
        offsets[0] = 0
        np.cumsum(counts[:-1], out=offsets[1:])
    total = int(counts.sum())
    energy_vertices = np.empty(total, dtype=np.int64)
    energy_joules = np.empty(total, dtype=np.float64)
    energy_vertices[offsets] = att_child
    energy_joules[offsets] = data_send_j
    slot = offsets + 1
    recv_slots = slot[up]
    energy_vertices[recv_slots] = att_parent[up]
    energy_joules[recv_slots] = data_recv_j[up]
    if arq_enabled:
        ack_send_j = ack_bits * send_cpb
        slot += up_i
        ack_send_slots = slot[ok]
        energy_vertices[ack_send_slots] = att_parent[ok]
        energy_joules[ack_send_slots] = ack_send_j[ok]
        slot += ok_i
        energy_vertices[slot] = att_child
        energy_joules[slot] = ack_bits * recv_cpb
        ack_senders = att_parent[ok]
        k = ack_senders.shape[0]
        send_vertices = np.concatenate([att_child, ack_senders])
        send_messages = np.concatenate(
            [att_frames, np.ones(k, dtype=np.int64)]
        )
        send_bits = np.concatenate(
            [att_bits, np.full(k, ack_bits, dtype=np.int64)]
        )
        send_values = np.concatenate(
            [att_values, np.zeros(k, dtype=np.int64)]
        )
        recv_vertices = np.concatenate([att_parent[up], att_child])
        recv_messages = np.concatenate(
            [att_frames[up], np.ones(n, dtype=np.int64)]
        )
        recv_bits = np.concatenate(
            [att_bits[up], np.full(n, ack_bits, dtype=np.int64)]
        )
    else:
        send_vertices = att_child
        send_messages = att_frames
        send_bits = att_bits
        send_values = att_values
        recv_vertices = att_parent[up]
        recv_messages = att_frames[up]
        recv_bits = att_bits[up]
    return {
        "energy_vertices": energy_vertices,
        "energy_joules": energy_joules,
        "send_vertices": send_vertices,
        "send_messages": send_messages,
        "send_bits": send_bits,
        "send_values": send_values,
        "recv_vertices": recv_vertices,
        "recv_messages": recv_messages,
        "recv_bits": recv_bits,
    }


class ChargeLog:
    """Ordered radio-charge recorder, flushed as one ledger batch.

    Presents the ledger's ``charge_send``/``charge_recv`` signature, so
    code written against the ledger (tree repair) records through it
    unchanged; the per-charge joules are computed immediately with the
    scalar ledger's own arithmetic, only the array updates are deferred.
    ``flush()`` must run before anything reads the ledger.

    ``charge_send_many``/``charge_recv_many`` record a whole run of
    same-cost charges at once, so callers that issue hundreds of identical
    control frames (tree repair's probe replies) skip the per-charge Python
    work.  The log is a sequence of *runs*: a scalar call is a run of one,
    a bulk call a run of many charges sharing one cost; ``flush()`` expands
    the runs with ``np.repeat``, keeping scalar and bulk records in exactly
    the order they were made.
    """

    __slots__ = (
        "_ledger",
        "_model",
        "_radio_range",
        "_cpb_by_distance",
        "_recv_cpb",
        "_vertices",
        "_pieces",
        "_joules",
        "_is_send",
        "_messages",
        "_bits",
        "_values",
        "_bulk_runs",
        "_bulk_sizes",
        "_count",
    )

    def __init__(self, ledger: "EnergyLedger") -> None:
        self._ledger = ledger
        self._model = ledger.model
        self._radio_range = ledger.radio_range
        #: Distance -> J/bit cache; with ``per_link_distance`` off every
        #: distance maps to the same constant, so this hits immediately.
        self._cpb_by_distance: dict[float, float] = {}
        self._recv_cpb = ledger.model.recv_cost
        #: Charged vertices: scalar ones pending in ``_vertices``, earlier
        #: ones (and every bulk run's) as arrays in ``_pieces``, in order.
        self._vertices: list[int] = []
        self._pieces: list[np.ndarray] = []
        #: One entry per run.
        self._joules: list[float] = []
        self._is_send: list[bool] = []
        self._messages: list[int] = []
        self._bits: list[int] = []
        self._values: list[int] = []
        #: Run index and size of every bulk run.
        self._bulk_runs: list[int] = []
        self._bulk_sizes: list[int] = []
        #: Charges held in bulk runs.
        self._count = 0

    def __len__(self) -> int:
        return len(self._joules) - len(self._bulk_runs) + self._count

    def _send_cpb(self, link_distance: float) -> float:
        cpb = self._cpb_by_distance.get(link_distance)
        if cpb is None:
            cpb = self._model.send_cost_per_bit(
                self._radio_range, link_distance
            )
            self._cpb_by_distance[link_distance] = cpb
        return cpb

    def charge_send(
        self,
        sender: int,
        cost: "MessageCost",
        values: int = 0,
        link_distance: float = 0.0,
    ) -> None:
        """Record one transmission (same contract as the ledger's)."""
        self._vertices.append(sender)
        self._joules.append(cost.total_bits * self._send_cpb(link_distance))
        self._is_send.append(True)
        self._messages.append(cost.messages)
        self._bits.append(cost.total_bits)
        self._values.append(values)

    def charge_recv(self, receiver: int, cost: "MessageCost") -> None:
        """Record one reception (same contract as the ledger's)."""
        self._vertices.append(receiver)
        self._joules.append(cost.total_bits * self._recv_cpb)
        self._is_send.append(False)
        self._messages.append(cost.messages)
        self._bits.append(cost.total_bits)
        self._values.append(0)

    def charge_send_many(
        self, vertices, cost: "MessageCost", distances
    ) -> None:
        """Record ``charge_send(v, cost, link_distance=d)`` for each pair.

        Equivalent to the scalar calls in the given order; each charge's
        joules are ``total_bits`` times the scalar J/bit factor of its own
        distance.
        """
        if self._model.per_link_distance:
            # Joules differ per link: one single-charge run each.
            for vertex, distance in zip(
                np.asarray(vertices).tolist(), np.asarray(distances).tolist()
            ):
                self.charge_send(vertex, cost, link_distance=distance)
            return
        # The amplifier is charged at the nominal range: one factor.
        joules = cost.total_bits * self._send_cpb(0.0)
        self._record_run(vertices, joules, True, cost)

    def charge_recv_many(self, vertices, cost: "MessageCost") -> None:
        """Record ``charge_recv(v, cost)`` for each vertex, in order."""
        joules = cost.total_bits * self._recv_cpb
        self._record_run(vertices, joules, False, cost)

    def _record_run(
        self, vertices, joules: float, is_send: bool, cost: "MessageCost"
    ) -> None:
        # A copy: the caller may reuse its array before the flush.
        vertices = np.array(vertices, dtype=np.int64)
        size = vertices.shape[0]
        if not size:
            return
        if self._vertices:
            self._pieces.append(np.array(self._vertices, dtype=np.int64))
            self._vertices.clear()
        self._pieces.append(vertices)
        self._bulk_runs.append(len(self._joules))
        self._bulk_sizes.append(size)
        self._count += size
        self._joules.append(joules)
        self._is_send.append(is_send)
        self._messages.append(cost.messages)
        self._bits.append(cost.total_bits)
        self._values.append(0)

    def flush(self) -> None:
        """Apply every recorded charge to the ledger in recorded order."""
        if not self._joules:
            return
        if self._vertices:
            self._pieces.append(np.array(self._vertices, dtype=np.int64))
        pieces = self._pieces
        vertices = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        joules = np.array(self._joules, dtype=np.float64)
        is_send = np.array(self._is_send, dtype=bool)
        messages = np.array(self._messages, dtype=np.int64)
        bits = np.array(self._bits, dtype=np.int64)
        values = np.array(self._values, dtype=np.int64)
        if self._bulk_runs:
            sizes = np.ones(len(joules), dtype=np.int64)
            sizes[self._bulk_runs] = self._bulk_sizes
            joules, is_send, messages, bits, values = (
                np.repeat(column, sizes)
                for column in (joules, is_send, messages, bits, values)
            )
        send = is_send
        recv = ~is_send
        self._ledger.charge_batch(
            energy_vertices=vertices,
            energy_joules=joules,
            send_vertices=vertices[send],
            send_messages=messages[send],
            send_bits=bits[send],
            send_values=values[send],
            recv_vertices=vertices[recv],
            recv_messages=messages[recv],
            recv_bits=bits[recv],
        )
        for records in (
            self._vertices,
            self._pieces,
            self._joules,
            self._is_send,
            self._messages,
            self._bits,
            self._values,
            self._bulk_runs,
            self._bulk_sizes,
        ):
            records.clear()
        self._count = 0
