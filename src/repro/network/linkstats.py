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

from itertools import chain, compress, repeat

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
        self._loss: dict[tuple[int, int], float] = {}
        #: Total channel samples folded in (all links).
        self.observations = 0

    def observe(self, sender: int, receiver: int, delivered: bool) -> None:
        """Fold one channel outcome on ``sender -> receiver`` into the EWMA."""
        key = (sender, receiver)
        previous = self._loss.get(key, self.prior_loss)
        sample = 0.0 if delivered else 1.0
        self._loss[key] = (
            (1.0 - self.smoothing) * previous + self.smoothing * sample
        )
        self.observations += 1

    def observe_batch(self, senders, receivers, delivered) -> None:
        """Fold a batch of channel outcomes, sample by sample, in order.

        Accepts any equal-length sequences (lists or numpy arrays).  Each
        element goes through the exact scalar EWMA recurrence of
        :meth:`observe`, so per-link estimates, dict insertion order and
        the :attr:`observations` counter are bit-identical to the
        equivalent sequence of scalar calls — the EWMA is order-dependent,
        so no closed-form fold is attempted.
        """
        for sender, receiver, ok in zip(senders, receivers, delivered):
            self.observe(sender, receiver, ok)

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
        New links are inserted in hop order, uplink before downlink.
        """
        hop_count = len(senders)
        if not hop_count:
            return
        d = self._loss
        prior = self.prior_loss
        s = self.smoothing
        keep = 1.0 - s
        dget = d.get
        tx = np.asarray(senders).tolist()
        par_list = np.asarray(receivers).tolist()
        if attempts is None:
            attempts = np.ones(hop_count, dtype=np.int64)
        offsets = np.zeros(hop_count, dtype=np.int64)
        np.cumsum(attempts[:-1], out=offsets[1:])
        if frame_ok is None:
            frame_ok = np.ones(int(attempts.sum()), dtype=bool)
        all_up = parent_up is None or bool(parent_up.all())
        # Key tuples come straight off zip (the pair IS the key) and the
        # prior lookups run as map(dict.get, ...) at C speed.  Missing links
        # only appear while the topology is still being explored, so the
        # slow interleaved insertion loop runs a handful of times per
        # experiment.
        pairs_up = zip(tx, par_list)
        up_flags = [True] * hop_count if all_up else parent_up.tolist()
        up_keys = list(pairs_up) if all_up else list(compress(pairs_up, up_flags))
        if arq:
            ok_frames = np.add.reduceat(frame_ok.astype(np.int64), offsets)
            dn_flags = (ok_frames > 0).tolist()
            dn_keys = list(compress(zip(par_list, tx), dn_flags))
        else:
            dn_flags = [False] * hop_count
            dn_keys = []
        prev_up = list(map(dget, up_keys, repeat(prior)))
        prev_dn = list(map(dget, dn_keys, repeat(prior)))
        new_links = not all(map(d.__contains__, chain(up_keys, dn_keys)))
        samples = 0
        up_vals: list[float] = []
        dn_vals: list[float] = []
        if up_keys:
            up_hops = np.arange(hop_count) if all_up else np.flatnonzero(parent_up)
            cur = np.array(prev_up, dtype=np.float64)
            lens = attempts[up_hops]
            starts = offsets[up_hops]
            fail = (~frame_ok).astype(np.float64)
            for j in range(int(lens.max())):
                m = lens > j
                cur[m] = keep * cur[m] + s * fail[starts[m] + j]
            up_vals = cur.tolist()
            samples += int(lens.sum())
        if dn_keys:
            dn_hops = np.flatnonzero(ok_frames > 0)
            curd = np.array(prev_dn, dtype=np.float64)
            k_arr = ok_frames[dn_hops]
            final_fail = (~np.array(final_ack, dtype=bool)[dn_hops]).astype(
                np.float64
            )
            for j in range(int(k_arr.max())):
                m = k_arr > j
                sample = np.where(k_arr[m] == j + 1, final_fail[m], 1.0)
                curd[m] = keep * curd[m] + s * sample
            dn_vals = curd.tolist()
            samples += int(k_arr.sum())
        if not new_links:
            # Every key already exists, so assignment order cannot change
            # the dict's (observable) insertion order: bulk-update.
            d.update(zip(up_keys, up_vals))
            d.update(zip(dn_keys, dn_vals))
        else:
            # First sighting of at least one link: insert hop by hop,
            # uplink before downlink, as the scalar calls would.
            up_iter = iter(zip(up_keys, up_vals))
            dn_iter = iter(zip(dn_keys, dn_vals))
            for up_here, dn_here in zip(up_flags, dn_flags):
                if up_here:
                    key, val = next(up_iter)
                    d[key] = val
                if dn_here:
                    key, val = next(dn_iter)
                    d[key] = val
        self.observations += samples

    def loss(self, sender: int, receiver: int) -> float:
        """Current loss estimate for the directed link (prior if unseen)."""
        return self._loss.get((sender, receiver), self.prior_loss)

    def has_estimate(self, sender: int, receiver: int) -> bool:
        """Whether the directed link has ever been observed."""
        return (sender, receiver) in self._loss

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
        get = self._loss.get
        prior = repeat(self.prior_loss)
        p_up = np.fromiter(map(get, zip(senders, receivers), prior), dtype=float)
        p_down = np.fromiter(map(get, zip(receivers, senders), prior), dtype=float)
        p_up = np.minimum(p_up, MAX_LOSS_FOR_ETX)
        p_down = np.minimum(p_down, MAX_LOSS_FOR_ETX)
        return 1.0 / ((1.0 - p_up) * (1.0 - p_down))

    def observed_many(self, senders, receivers) -> np.ndarray:
        """:meth:`link_observed` of each ``senders[i] <-> receivers[i]`` link."""
        seen = self._loss.__contains__
        up = np.fromiter(map(seen, zip(senders, receivers)), dtype=bool)
        down = np.fromiter(map(seen, zip(receivers, senders)), dtype=bool)
        return up | down

    @property
    def num_links(self) -> int:
        """Number of directed links with at least one sample."""
        return len(self._loss)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkQualityEstimator(smoothing={self.smoothing}, "
            f"prior_loss={self.prior_loss}, links={self.num_links}, "
            f"observations={self.observations})"
        )
