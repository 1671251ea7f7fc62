"""Per-link quality estimation: EWMA loss -> ETX.

Every recovery decision in the fault layer ultimately asks the same
question — *how good is this link, really?* — and before this module each
consumer answered it privately: :class:`~repro.faults.network.AdaptiveArqPolicy`
kept its own ``_loss_ewma`` dict, while tree repair ignored link quality
entirely and adopted parents by pure Euclidean distance (happily re-attaching
a subtree through the lossiest link in range).

:class:`LinkQualityEstimator` is the one shared answer.  It keeps an
exponentially weighted loss estimate per *directed* link, fed with raw
channel outcomes by every convergecast of a
:class:`~repro.faults.network.FaultyTreeNetwork` (data frames update the
uplink, ACK frames the downlink), and derives the
classical ETX metric of De Couto et al.::

    ETX(a, b) = 1 / ((1 - p_up) * (1 - p_down))

the expected number of data transmissions (ACK included) to get one frame
across.  Consumers:

* :class:`~repro.faults.network.AdaptiveArqPolicy` sizes per-link retry
  budgets from the uplink estimate;
* :class:`~repro.faults.repair.TreeRepair` ranks candidate parents by
  ETX-weighted path cost to the root (distance remains the tie-break and
  the fallback while no estimate exists);
* :func:`~repro.network.routing.build_randomized_routing_tree` biases
  rotation's parent sampling away from known-bad links.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.errors import ConfigurationError

#: Loss estimates are clamped below this when inverted into ETX so a
#: fully-black link yields a large-but-finite cost.
MAX_LOSS_FOR_ETX = 0.999


class LinkQualityEstimator:
    """EWMA loss estimate per directed link, with ETX derivation.

    Args:
        smoothing: EWMA weight of the newest sample, in ``(0, 1]``.
        prior_loss: loss assumed for links never observed, in ``[0, 1)``.

    The table is a float64 column (an ``array`` of doubles: scalar reads
    and writes cost what a list's do, and a whole convergecast reads and
    writes it as a numpy view without a copy).  Row 0 holds the prior;
    each directed link gets the next row on its first sighting, and
    :attr:`_row` maps its key ``sender * 2**32 + receiver`` to that row
    (one link is keyed by a multiplication, so a numpy id too narrow for
    the key raises instead of wrapping).

    Instances carry mutable learning state — share one per network, not
    across experiment cells.
    """

    def __init__(self, smoothing: float = 0.25, prior_loss: float = 0.05) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        if not 0.0 <= prior_loss < 1.0:
            raise ConfigurationError(
                f"prior_loss must be in [0, 1), got {prior_loss}"
            )
        self.smoothing = smoothing
        self.prior_loss = prior_loss
        self._row: dict[int, int] = {}
        self._losses = array("d", [prior_loss])
        #: Total channel samples folded in (all links).
        self.observations = 0

    # -- the table ------------------------------------------------------------

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each key's row (0 if never observed), seen flag and loss estimate."""
        found = map(self._row.get, keys.tolist(), repeat(0))
        rows = np.fromiter(found, np.intp, len(keys))
        return rows, rows > 0, np.frombuffer(self._losses)[rows]

    def _both_ways(self, senders, receivers) -> tuple[np.ndarray, np.ndarray]:
        """Seen flags and losses: row 0 for ``a -> b``, row 1 for ``b -> a``."""
        a = np.asarray(senders, dtype=np.int64)
        b = np.asarray(receivers, dtype=np.int64)
        _, seen, losses = self._lookup(np.concatenate([(a << 32) | b, (b << 32) | a]))
        return seen.reshape(2, -1), losses.reshape(2, -1)

    def _store(
        self, keys: np.ndarray, losses: np.ndarray, rows: np.ndarray, seen: np.ndarray
    ) -> None:
        """Write distinct links' estimates; ``rows``/``seen`` from :meth:`_lookup`."""
        # The view must be gone before the column grows.
        np.frombuffer(self._losses)[rows[seen]] = losses[seen]
        fresh = ~seen
        if fresh.any():
            size = len(self._losses)
            self._row.update(zip(keys[fresh].tolist(), range(size, size + len(keys))))
            self._losses.extend(losses[fresh].tolist())

    @property
    def _loss(self) -> dict[tuple[int, int], float]:
        """The whole table as ``{(sender, receiver): loss}``, in key order."""
        return {
            (key >> 32, key & 0xFFFFFFFF): self._losses[row]
            for key, row in sorted(self._row.items())
        }

    # -- observations ---------------------------------------------------------

    def observe(self, sender: int, receiver: int, delivered: bool) -> None:
        """Fold one channel outcome on ``sender -> receiver`` into the EWMA."""
        key = sender * (1 << 32) + receiver
        row = self._row.get(key, 0)
        loss = (1.0 - self.smoothing) * self._losses[row] + self.smoothing * (
            0.0 if delivered else 1.0
        )
        if row:
            self._losses[row] = loss
        else:
            self._row[int(key)] = len(self._losses)
            self._losses.append(loss)
        self.observations += 1

    def observe_hops(
        self,
        senders,
        receivers,
        attempts=None,
        frame_ok=None,
        parent_up=None,
        final_ack=None,
        arq: bool = False,
    ) -> None:
        """Fold one convergecast's channel samples, bit-exactly.

        Hop ``i`` sent ``attempts[i]`` data frames (default one) from
        ``senders[i]`` to ``receivers[i]``; ``frame_ok`` holds every
        attempt's outcome, hop-major (default: all delivered).  A hop whose
        parent was down (``parent_up[i]`` false) samples no channel.  With
        ``arq`` each delivered frame was acknowledged: every ACK but the
        hop's last was lost (else the hop would have stopped), and
        ``final_ack[i]`` is the last one's outcome.

        The result equals calling :meth:`observe` hop by hop — uplink
        samples, then the hop's downlink samples — but runs as arrays.  A
        convergecast samples each directed tree link from one hop only and
        a hop's samples of one link are consecutive, so per-link EWMA
        chains are independent: one elementwise ``(1-s)*prev + s*sample``
        step per attempt index performs each link's scalar float sequence.
        """
        hop_count = len(senders)
        if not hop_count:
            return
        s = self.smoothing
        keep = 1.0 - s
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if attempts is None and frame_ok is None and parent_up is None and not arq:
            # One delivered frame per hop, no ACKs: one step towards 0.
            keys = (senders << 32) | receivers
            rows, seen, losses = self._lookup(keys)
            self._store(keys, keep * losses + s * 0.0, rows, seen)
            self.observations += hop_count
            return
        if attempts is None:
            attempts = np.ones(hop_count, dtype=np.int64)
        offsets = np.zeros(hop_count, dtype=np.int64)
        np.cumsum(attempts[:-1], out=offsets[1:])
        if frame_ok is None:
            frame_ok = np.ones(int(attempts.sum()), dtype=bool)
        up_hops = (
            np.arange(hop_count) if parent_up is None else np.flatnonzero(parent_up)
        )
        up_keys = (senders[up_hops] << 32) | receivers[up_hops]
        if arq:
            ok_frames = np.add.reduceat(frame_ok.astype(np.int64), offsets)
            dn_hops = np.flatnonzero(ok_frames > 0)
            keys = np.concatenate(
                [up_keys, (receivers[dn_hops] << 32) | senders[dn_hops]]
            )
        else:
            keys = up_keys
        rows, seen, losses = self._lookup(keys)
        fail = (~frame_ok).astype(np.float64)
        up = losses[:len(up_hops)]
        lens = attempts[up_hops]
        starts = offsets[up_hops]
        for j in range(int(lens.max(initial=0))):
            m = lens > j
            up[m] = keep * up[m] + s * fail[starts[m] + j]
        samples = int(lens.sum())
        if arq:
            down = losses[len(up_hops):]
            k_arr = ok_frames[dn_hops]
            final_fail = 1.0 - np.array(final_ack, dtype=np.float64)[dn_hops]
            for j in range(int(k_arr.max(initial=0))):
                m = k_arr > j
                sample = np.where(k_arr[m] == j + 1, final_fail[m], 1.0)
                down[m] = keep * down[m] + s * sample
            samples += int(k_arr.sum())
        self._store(keys, losses, rows, seen)
        self.observations += samples

    def loss(self, sender: int, receiver: int) -> float:
        """Current loss estimate for the directed link (prior if unseen)."""
        return self._losses[self._row.get(sender * (1 << 32) + receiver, 0)]

    def has_estimate(self, sender: int, receiver: int) -> bool:
        """Whether the directed link has ever been observed."""
        return sender * (1 << 32) + receiver in self._row

    def link_observed(self, a: int, b: int) -> bool:
        """Whether either direction of the ``a <-> b`` link has samples."""
        return self.has_estimate(a, b) or self.has_estimate(b, a)

    def etx(self, a: int, b: int) -> float:
        """Expected transmissions for one acknowledged frame ``a -> b``.

        ``1 / ((1 - p_up) * (1 - p_down))`` with both directions' loss
        clamped to :data:`MAX_LOSS_FOR_ETX`; a never-observed link scores
        the prior-based constant, keeping unknown links comparable.
        """
        p_up = min(self.loss(a, b), MAX_LOSS_FOR_ETX)
        p_down = min(self.loss(b, a), MAX_LOSS_FOR_ETX)
        return 1.0 / ((1.0 - p_up) * (1.0 - p_down))

    def etx_many(self, senders, receivers) -> np.ndarray:
        """:meth:`etx` of each ``senders[i] -> receivers[i]`` link.

        Takes equal-length sequences of vertex ids.  The clamp, complements,
        product and reciprocal run elementwise in float64, the same IEEE
        operations as the scalar method, so every entry equals the
        corresponding :meth:`etx` call bit for bit.
        """
        p_up, p_down = np.minimum(self._both_ways(senders, receivers)[1], MAX_LOSS_FOR_ETX)
        return 1.0 / ((1.0 - p_up) * (1.0 - p_down))

    def observed_many(self, senders, receivers) -> np.ndarray:
        """:meth:`link_observed` of each ``senders[i] <-> receivers[i]`` link."""
        up, down = self._both_ways(senders, receivers)[0]
        return up | down

    @property
    def num_links(self) -> int:
        """Number of directed links with at least one sample."""
        return len(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkQualityEstimator(smoothing={self.smoothing}, "
            f"prior_loss={self.prior_loss}, links={self.num_links}, "
            f"observations={self.observations})"
        )
