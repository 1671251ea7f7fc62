"""A TreeNetwork whose links lose frames, whose nodes die — and which
optionally fights back with per-hop ARQ.

:class:`FaultyTreeNetwork` plugs a :class:`~repro.faults.plan.FaultPlan`
into the engine's two fault seams (the down mask and the decide stage of
the convergecast), so **every** algorithm in the package (exact and
sketch) runs under injected faults without modification.  On top of the
raw faults sits the first recovery mechanism, :class:`ArqPolicy`: stop-and-
wait acknowledgements with a bounded retransmission budget, every attempt
honestly charged to the energy ledger:

* each data-frame attempt costs the child one send and the (live) parent
  one receive;
* a received frame is acknowledged with an
  :func:`~repro.radio.message.ack_cost` frame (parent pays the send, child
  the receive) — and the ACK itself can be lost, in which case the child
  retransmits a frame the parent already has (the parent de-duplicates by
  sequence number, but the energy is spent either way);
* a child whose frame was lost still listens through the ACK window in
  vain, paying the receive cost of an ACK-sized frame.

Broadcasts stay loss-free (flooding redundancy masks individual drops) but
are pruned by churn: a dead internal vertex cannot retransmit, so its whole
subtree misses the flood — see ``TreeNetwork.broadcast``.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, IndependentLoss
from repro.network.linkstats import LinkQualityEstimator
from repro.network.tree import RoutingTree
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import Hops, TreeNetwork


def _validate_budget(max_retries: object) -> None:
    # A float budget never equals an attempt count, so the retry loop
    # would never stop; a bool is an int subclass but never a budget.
    if isinstance(max_retries, bool) or not isinstance(
        max_retries, numbers.Integral
    ):
        raise ConfigurationError(
            f"max_retries must be an integer, got {max_retries!r}"
        )


@dataclass(frozen=True)
class ArqPolicy:
    """Per-hop stop-and-wait ARQ with a bounded retry budget.

    ``max_retries == 0`` disables the protocol entirely (no ACK traffic,
    single best-effort attempt) so that retry sweeps compare against a true
    zero-overhead baseline.
    """

    max_retries: int = 0

    #: Whether the budget and feedback are per link: ``attempts_for`` and
    #: ``observe`` read and write learned state between hops, so the
    #: convergecast must consult them inline.  A static policy (``False``)
    #: has one budget for every link and ignores feedback.
    per_link_budget: ClassVar[bool] = False

    def __post_init__(self) -> None:
        _validate_budget(self.max_retries)
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @property
    def enabled(self) -> bool:
        """Whether ACKs and retransmissions happen at all."""
        return self.max_retries > 0

    @property
    def max_attempts(self) -> int:
        """Data-frame transmissions allowed per hop."""
        return self.max_retries + 1

    #: Label used in result tables for the retry axis.
    @property
    def label(self) -> int | str:
        return self.max_retries

    def attempts_for(self, sender: int, receiver: int) -> int:
        """Data-frame attempts budgeted for this directed link."""
        return self.max_attempts

    def observe(self, sender: int, receiver: int, delivered: bool) -> None:
        """Feedback after one attempt (ACK-confirmed or not).

        The static policy ignores it; adaptive controllers learn from it.
        """


class AdaptiveArqPolicy(ArqPolicy):
    """Per-link ARQ whose retry budget follows an EWMA of observed loss.

    Each directed link keeps an exponentially weighted estimate ``p`` of its
    attempt-failure probability, learned from ACK-confirmed outcomes.  The
    retry budget for the link is the smallest number of attempts that
    reaches ``target_delivery`` under i.i.d. loss ``p``::

        attempts = ceil(log(1 - target_delivery) / log(p))

    clamped to ``[1, max_retries + 1]``.  Quiet links near-instantly decay
    to single attempts (no wasted retransmission slots), while a link inside
    a Gilbert-Elliott burst ramps its budget up within a few rounds — the
    per-link replacement for the global ``retries`` knob.

    The learned state lives in a :class:`~repro.network.linkstats.
    LinkQualityEstimator` (pass ``estimator`` to share one with other
    consumers; :class:`FaultyTreeNetwork` adopts the policy's estimator as
    its :attr:`~FaultyTreeNetwork.link_stats` so ARQ, tree repair and
    rotation all read the same per-link picture).

    Note: instances carry mutable learning state — use one per experiment
    cell, not a shared constant.  Consequently equality is *identity*: two
    policies with the same configuration but different learned state are
    different policies, and the inherited frozen-dataclass ``__eq__``
    (which compared ``max_retries`` only) would lie about that.
    """

    per_link_budget: ClassVar[bool] = True

    def __init__(
        self,
        max_retries: int = 5,
        target_delivery: float = 0.99,
        smoothing: float = 0.25,
        prior_loss: float = 0.05,
        estimator: LinkQualityEstimator | None = None,
    ) -> None:
        _validate_budget(max_retries)
        if max_retries < 1:
            raise ConfigurationError(
                f"adaptive ARQ needs max_retries >= 1, got {max_retries}"
            )
        if not 0.0 < target_delivery < 1.0:
            raise ConfigurationError(
                f"target_delivery must be in (0, 1), got {target_delivery}"
            )
        if estimator is None:
            estimator = LinkQualityEstimator(
                smoothing=smoothing, prior_loss=prior_loss
            )
        object.__setattr__(self, "max_retries", max_retries)
        object.__setattr__(self, "target_delivery", target_delivery)
        object.__setattr__(self, "estimator", estimator)

    @property
    def smoothing(self) -> float:
        """EWMA weight of the newest loss sample (the estimator's)."""
        return self.estimator.smoothing

    @property
    def prior_loss(self) -> float:
        """Loss assumed for never-observed links (the estimator's)."""
        return self.estimator.prior_loss

    @property
    def enabled(self) -> bool:
        """Adaptive ARQ always runs the ACK protocol (it needs the feedback)."""
        return True

    @property
    def label(self) -> int | str:
        return "adp"

    def link_loss(self, sender: int, receiver: int) -> float:
        """Current loss estimate for the directed link."""
        return self.estimator.loss(sender, receiver)

    def attempts_for(self, sender: int, receiver: int) -> int:
        loss = min(max(self.link_loss(sender, receiver), 0.0), 0.999)
        if loss <= 0.0:
            attempts = 1
        else:
            attempts = math.ceil(
                math.log(1.0 - self.target_delivery) / math.log(loss)
            )
        return max(1, min(attempts, self.max_attempts))

    def observe(self, sender: int, receiver: int, delivered: bool) -> None:
        self.estimator.observe(sender, receiver, delivered)

    # The frozen-dataclass __eq__/__repr__ inherited from ArqPolicy compare
    # and print ``max_retries`` alone, silently equating policies whose
    # learned per-link state (and even target_delivery/smoothing) differ.
    def __eq__(self, other: object) -> bool:
        return self is other

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(max_retries={self.max_retries}, "
            f"target_delivery={self.target_delivery}, "
            f"smoothing={self.smoothing}, prior_loss={self.prior_loss}, "
            f"links_observed={self.estimator.num_links})"
        )


class FaultyTreeNetwork(TreeNetwork):
    """Tree network with pluggable fault injection and per-hop ARQ."""

    def __init__(
        self,
        tree: RoutingTree,
        ledger: EnergyLedger,
        plan: FaultPlan | None = None,
        arq: ArqPolicy | None = None,
        virtual_vertices: frozenset[int] | set[int] = frozenset(),
        link_stats: LinkQualityEstimator | None = None,
    ) -> None:
        super().__init__(tree, ledger, virtual_vertices)
        self.plan = plan if plan is not None else FaultPlan()
        self.arq = arq if arq is not None else ArqPolicy()
        if link_stats is None:
            # One shared per-link picture: an adaptive ARQ policy already
            # learns into an estimator, so repair and rotation read that
            # same one instead of keeping a private copy.
            link_stats = getattr(self.arq, "estimator", None)
        #: Per-directed-link loss/ETX estimates, fed by every ARQ exchange.
        self.link_stats = (
            link_stats if link_stats is not None else LinkQualityEstimator()
        )
        # When the policy learns into the shared estimator itself (its
        # ACK-confirmed viewpoint already covers the uplink), the network
        # must not fold the raw data-frame outcome in a second time.
        self._feeds_uplink_stats = (
            getattr(self.arq, "estimator", None) is not self.link_stats
        )
        #: Data frames that failed to reach their (live) parent, attempts
        #: counted individually.
        self.lost_transmissions = 0
        #: Extra data-frame attempts beyond the first, summed over hops.
        self.retransmissions = 0
        #: Acknowledgement frames put on the air by receiving parents.
        self.acks_sent = 0
        #: ACK frames that were lost (triggering a redundant retransmission).
        self.lost_acks = 0

    # -- round lifecycle ------------------------------------------------------

    def begin_faults_round(self, round_index: int) -> frozenset[int]:
        """Advance the fault plan by one round; returns newly dead vertices."""
        return self.plan.begin_round(self.tree, round_index)

    def live_sensor_nodes(self) -> tuple[int, ...]:
        """Sensor nodes that are up this round (not dead, not in an outage)."""
        plan = self.plan
        if not plan.dead and not plan.down:
            return tuple(self.tree.sensor_nodes)
        down = plan.down_mask(self.tree.num_vertices).tolist()
        return tuple(v for v in self.tree.sensor_nodes if not down[v])

    # -- engine fault seams ---------------------------------------------------

    def _down_mask(self) -> np.ndarray | None:
        plan = self.plan
        if not plan.dead and not plan.down:
            return None
        return plan.down_mask(self.tree.num_vertices)

    def _decide_hops(self, present: np.ndarray, down: np.ndarray | None) -> Hops:
        """Loss and ARQ decisions for one convergecast.

        A plan that injects nothing (no loss, nobody down) with ARQ off
        decides like the reliable radio.  Everything else runs the hop loop
        (:meth:`_walk_hops`).  Either way the counters are updated here and
        a static policy's channel samples are replayed into
        :attr:`link_stats` once, after the decisions.
        """
        arq = self.arq
        if down is None and self.plan.lossless and not arq.enabled:
            hops = super()._decide_hops(present, down)
        else:
            hops = self._walk_hops(present, down)
        hop_count = len(hops.senders)
        if not hop_count:
            return hops
        attempts = (
            hop_count if hops.attempts is None else int(hops.attempts.sum())
        )
        ok = attempts if hops.frame_ok is None else int(hops.frame_ok.sum())
        self.lost_transmissions += attempts - ok
        self.retransmissions += attempts - hop_count
        if hops.arq:
            self.acks_sent += ok
        if not arq.per_link_budget:
            self.link_stats.observe_hops(
                hops.senders,
                self._arrays.parent[hops.senders],
                attempts=hops.attempts,
                frame_ok=hops.frame_ok,
                parent_up=hops.parent_up,
                final_ack=hops.final_ack,
                arq=hops.arq,
            )
        return hops

    def _walk_hops(self, present: np.ndarray, down: np.ndarray | None) -> Hops:
        """The decide loop: one pass over the hops in bottom-up order.

        Per hop, in order: a down parent fails every budgeted attempt
        without a draw; otherwise each attempt draws the data frame, then
        (frame survived, ARQ on) its ACK, until an ACK confirms or the
        budget is spent.  I.i.d. loss compares block-drawn uniforms inline
        and rewinds the generator to the exact scalar state on exit; any
        other loss model samples through :meth:`FaultPlan.batched_sampling`
        (without a loss model, or at a zero i.i.d. rate, nothing is drawn).
        A per-link policy sizes each hop's budget and takes its feedback
        inline, as the estimator it reads evolves hop by hop.
        """
        n = len(present)
        holds = present.tolist()
        down_list = down.tolist() if down is not None else [False] * n
        parent = self.tree.parent
        virtual = self.virtual_vertices
        plan = self.plan
        arq = self.arq
        enabled = arq.enabled
        per_link = arq.per_link_budget
        budget = max(1, arq.max_attempts)
        loss = plan.loss
        inline = type(loss) is IndependentLoss and loss.probability > 0.0
        shim = loss is not None and type(loss) is not IndependentLoss
        p = loss.probability if inline else 0.0
        transmission_lost = plan.transmission_lost
        observe = self.link_stats.observe
        feeds_up = per_link and self._feeds_uplink_stats

        walk: list[int] = []
        delivered_flags: list[bool] = []
        senders: list[int] = []
        attempts: list[int] = []
        frame_oks: list[bool] = []
        parent_up: list[bool] = []
        final_ack: list[bool] = []
        walk_append = walk.append
        flag_append = delivered_flags.append
        fo_append = frame_oks.append
        lost_acks = 0

        rng = plan.rng
        rng_random = rng.random
        block = max(128, 2 * int(np.count_nonzero(present)))
        state0 = rng.bit_generator.state if inline else None
        buf: list[float] = []
        bi = 0
        nblocks = 0
        session = plan.batched_sampling(block=block) if shim else nullcontext()
        try:
            with session:
                for vertex in self._order_no_root:
                    if not holds[vertex] or down_list[vertex]:
                        continue
                    par = parent[vertex]
                    walk_append(vertex)
                    if vertex in virtual:
                        flag_append(True)  # device-internal link, no radio
                        holds[par] = True
                        continue
                    if per_link:
                        budget = max(1, arq.attempts_for(vertex, par))
                    k = 0
                    delivered = False
                    afin = False
                    up = not down_list[par]
                    if not up:
                        # Dead air: every attempt fails without a draw.
                        k = budget if enabled else 1
                        frame_oks.extend([False] * k)
                        if per_link and enabled:
                            for _ in range(k):
                                arq.observe(vertex, par, False)
                    else:
                        while True:
                            k += 1
                            if inline:
                                if bi == len(buf):
                                    buf = rng_random(block).tolist()
                                    bi = 0
                                    nblocks += 1
                                fo = buf[bi] >= p
                                bi += 1
                            else:
                                fo = not transmission_lost(vertex, par)
                            if feeds_up:
                                observe(vertex, par, fo)
                            fo_append(fo)
                            if fo:
                                delivered = True
                                if not enabled:
                                    break
                                # The ACK rides the same lossy channel back.
                                if inline:
                                    if bi == len(buf):
                                        buf = rng_random(block).tolist()
                                        bi = 0
                                        nblocks += 1
                                    afin = buf[bi] >= p
                                    bi += 1
                                else:
                                    afin = not transmission_lost(par, vertex)
                                if per_link:
                                    observe(par, vertex, afin)
                                    if afin:
                                        arq.observe(vertex, par, True)
                                if afin:
                                    break
                                lost_acks += 1
                            elif not enabled:
                                break
                            if per_link:
                                arq.observe(vertex, par, False)
                            if k == budget:
                                break
                    senders.append(vertex)
                    attempts.append(k)
                    parent_up.append(up)
                    final_ack.append(afin)
                    flag_append(delivered)
                    if delivered:
                        holds[par] = True
        finally:
            if nblocks:
                # Rewind and replay: leave the generator exactly where
                # one scalar draw per decision would have.
                consumed = (nblocks - 1) * block + bi
                rng.bit_generator.state = state0
                if consumed:
                    rng_random(consumed)
        self.lost_acks += lost_acks
        return Hops(
            walk=np.array(walk, dtype=np.int64),
            delivered=delivered_flags,
            senders=np.array(senders, dtype=np.int64),
            attempts=np.array(attempts, dtype=np.int64),
            frame_ok=np.array(frame_oks, dtype=bool),
            parent_up=np.array(parent_up, dtype=bool),
            final_ack=final_ack,
            arq=enabled,
        )
