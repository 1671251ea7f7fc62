"""LinkQualityEstimator: EWMA convergence, ETX derivation, burst tracking.

The estimator is the shared per-link picture behind adaptive ARQ, ETX
repair and fault-aware rotation, so its numerics are pinned directly:
priors for unseen links, per-directed-link independence, convergence to a
Bernoulli rate, the De Couto ETX formula with clamping, and responsiveness
through Gilbert–Elliott style loss bursts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.linkstats import MAX_LOSS_FOR_ETX, LinkQualityEstimator


class TestValidation:
    def test_smoothing_bounds(self):
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(smoothing=0.0)
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(smoothing=1.5)
        LinkQualityEstimator(smoothing=1.0)  # inclusive upper bound

    def test_prior_bounds(self):
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(prior_loss=-0.1)
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(prior_loss=1.0)
        LinkQualityEstimator(prior_loss=0.0)


class TestEwma:
    def test_unseen_links_report_the_prior(self):
        est = LinkQualityEstimator(prior_loss=0.07)
        assert est.loss(1, 2) == pytest.approx(0.07)
        assert not est.has_estimate(1, 2)
        assert not est.link_observed(1, 2)
        assert est.num_links == 0

    def test_single_update_arithmetic(self):
        est = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        est.observe(1, 2, delivered=False)
        # (1 - 0.5) * 0.1 + 0.5 * 1.0
        assert est.loss(1, 2) == pytest.approx(0.55)
        est.observe(1, 2, delivered=True)
        assert est.loss(1, 2) == pytest.approx(0.275)
        assert est.observations == 2

    def test_directions_are_independent(self):
        est = LinkQualityEstimator()
        for _ in range(30):
            est.observe(1, 2, delivered=False)
        assert est.loss(1, 2) > 0.9
        assert est.loss(2, 1) == pytest.approx(est.prior_loss)
        assert est.has_estimate(1, 2)
        assert not est.has_estimate(2, 1)
        # Either direction makes the undirected link count as observed.
        assert est.link_observed(2, 1)
        assert est.num_links == 1

    def test_numpy_ids_key_the_same_link(self):
        est = LinkQualityEstimator()
        est.observe(np.int64(3), np.int64(7), delivered=False)
        est.observe(3, 7, delivered=False)
        assert est.num_links == 1
        assert est.loss(np.int64(3), 7) == est.loss(3, 7) > est.prior_loss
        assert list(est._loss) == [(3, 7)]
        # An id too narrow for the key fails loudly instead of wrapping.
        with pytest.raises(OverflowError):
            est.observe(np.int32(3), 7, delivered=True)

    def test_converges_to_bernoulli_rate(self):
        rng = np.random.default_rng(13)
        est = LinkQualityEstimator(smoothing=0.05)
        rate = 0.3
        for _ in range(2000):
            est.observe(4, 0, delivered=bool(rng.random() >= rate))
        assert est.loss(4, 0) == pytest.approx(rate, abs=0.1)


class TestObserveBatch:
    """``observe_hops`` folds a batch of samples like the scalar recurrence.

    Pinned values, input forms and the mix of scalar and batched updates
    on one table (``TestObserveHops`` fuzzes whole convergecasts).
    """

    def test_pinned_regression_values(self):
        est = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        # Hop 1 -> 2 takes two attempts (lost, delivered); hop 2 -> 1 one.
        est.observe_hops(
            np.array([1, 2]),
            np.array([2, 1]),
            attempts=np.array([2, 1]),
            frame_ok=np.array([False, True, False]),
        )
        # link (1,2): 0.1 -> 0.55 -> 0.275; link (2,1): 0.1 -> 0.55.
        assert est.loss(1, 2) == 0.275
        assert est.loss(2, 1) == 0.55
        assert est.observations == 3
        assert est.num_links == 2

    def test_matches_scalar_replay_bit_for_bit(self):
        """Scalar and batched updates interleave on one table.

        Scalar inserts land between rows a batch has indexed, so the batch
        lookups must see every insert; the table must equal a purely
        scalar replay, value for value.
        """
        rng = np.random.default_rng(77)
        scalar = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
        mixed = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
        for _ in range(20):
            senders = rng.permutation(40)[:12]
            receivers = rng.integers(40, 48, size=12)
            for child, parent in zip(senders.tolist(), receivers.tolist()):
                scalar.observe(child, parent, True)
            mixed.observe_hops(senders, receivers)
            a, b = (int(v) for v in rng.integers(0, 48, size=2))
            ok = bool(rng.random() < 0.5)
            scalar.observe(a, b, ok)
            mixed.observe(a, b, ok)
        assert list(scalar._loss.items()) == list(mixed._loss.items())
        assert scalar.observations == mixed.observations

    def test_accepts_numpy_arrays(self):
        lists = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        arrays = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        lists.observe_hops([4, 5], [0, 0])
        arrays.observe_hops(np.array([4, 5]), np.array([0, 0]))
        # 0.1 -> 0.05 on both links, whatever the input form.
        assert lists._loss == arrays._loss == {(4, 0): 0.05, (5, 0): 0.05}
        assert lists.observations == arrays.observations == 2

    def test_empty_batch_is_a_no_op(self):
        est = LinkQualityEstimator()
        est.observe_hops(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert est.observations == 0
        assert est.num_links == 0

    def test_adaptive_arq_budgets_from_batched_feedback(self):
        """Pinned budgets: the policy reads batched feedback like scalar."""
        from repro.faults import AdaptiveArqPolicy

        scalar_policy = AdaptiveArqPolicy(
            max_retries=5, target_delivery=0.99, smoothing=0.5, prior_loss=0.05
        )
        batched_policy = AdaptiveArqPolicy(
            max_retries=5, target_delivery=0.99, smoothing=0.5, prior_loss=0.05
        )
        outcomes = [False, False, True, False, False, False]
        for ok in outcomes:
            scalar_policy.observe(3, 0, ok)
        batched_policy.estimator.observe_hops(
            np.array([3]),
            np.array([0]),
            attempts=np.array([6]),
            frame_ok=np.array(outcomes),
        )
        # Loss after the burst: 0.05 -> .525 -> .7625 -> .38125 -> .690625
        # -> .8453125 -> .92265625; ceil(log(.01)/log(p)) = 57, clamped to
        # the max_retries+1 = 6 attempt budget.
        assert batched_policy.estimator.loss(3, 0) == 0.92265625
        assert scalar_policy.estimator.loss(3, 0) == 0.92265625
        assert batched_policy.attempts_for(3, 0) == 6
        # A quiet link decays back to a single attempt, halving per sample.
        budgets = []
        for _ in range(8):
            scalar_policy.observe(3, 0, True)
            budgets.append(scalar_policy.attempts_for(3, 0))
        batched_policy.estimator.observe_hops(
            np.array([3]), np.array([0]), attempts=np.array([8]),
            frame_ok=np.ones(8, dtype=bool),
        )
        assert budgets == [6, 4, 3, 2, 2, 2, 1, 1]
        assert batched_policy.estimator.loss(3, 0) == 0.92265625 / 2**8
        assert batched_policy.attempts_for(3, 0) == 1


class TestEtx:
    def test_formula_from_both_directions(self):
        est = LinkQualityEstimator(smoothing=1.0, prior_loss=0.0)
        # smoothing=1 pins the estimate to the last sample exactly; mix
        # computed EWMA values in via a second estimator below.
        est.observe(1, 2, delivered=True)
        est.observe(2, 1, delivered=True)
        assert est.etx(1, 2) == pytest.approx(1.0)

        mixed = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        mixed.observe(1, 2, delivered=False)  # p_up  = 0.55
        p_up, p_down = 0.55, 0.1  # downlink unseen: the prior
        assert mixed.etx(1, 2) == pytest.approx(
            1.0 / ((1.0 - p_up) * (1.0 - p_down))
        )
        # ETX is direction-sensitive: 2 -> 1 swaps the roles.
        assert mixed.etx(2, 1) == pytest.approx(
            1.0 / ((1.0 - p_down) * (1.0 - p_up))
        )

    def test_black_link_is_clamped_finite(self):
        est = LinkQualityEstimator(smoothing=1.0)
        est.observe(1, 2, delivered=False)  # loss estimate exactly 1.0
        assert est.loss(1, 2) == pytest.approx(1.0)
        expected = 1.0 / (
            (1.0 - MAX_LOSS_FOR_ETX) * (1.0 - est.prior_loss)
        )
        assert est.etx(1, 2) == pytest.approx(expected)
        assert np.isfinite(est.etx(1, 2))

    def test_unseen_link_scores_the_prior_constant(self):
        est = LinkQualityEstimator(prior_loss=0.05)
        assert est.etx(7, 8) == pytest.approx(1.0 / (0.95 * 0.95))

    def test_batched_etx_and_observed_match_scalar_bit_for_bit(self):
        rng = np.random.default_rng(3)
        est = LinkQualityEstimator(smoothing=0.3, prior_loss=0.07)
        for _ in range(3000):
            a, b = (int(v) for v in rng.integers(0, 40, size=2))
            # Black links included, so the clamp is exercised too.
            est.observe(a, b, delivered=bool(rng.random() < 0.4))
        senders = rng.integers(0, 50, size=500).tolist()
        receivers = rng.integers(0, 50, size=500).tolist()
        expected = np.array([est.etx(a, b) for a, b in zip(senders, receivers)])
        assert est.etx_many(senders, receivers).tobytes() == expected.tobytes()
        assert est.observed_many(senders, receivers).tolist() == [
            est.link_observed(a, b) for a, b in zip(senders, receivers)
        ]


class TestBurstTracking:
    """The estimator must ramp inside a loss burst and decay after it."""

    def test_deterministic_burst_ramp_and_decay(self):
        est = LinkQualityEstimator(smoothing=0.25)
        for _ in range(30):  # long quiet stretch
            est.observe(3, 0, delivered=True)
        assert est.loss(3, 0) < 0.01
        for _ in range(10):  # a Gilbert–Elliott style black burst
            est.observe(3, 0, delivered=False)
        assert est.loss(3, 0) > 0.9  # ramped within the burst
        for _ in range(10):  # burst over
            est.observe(3, 0, delivered=True)
        assert est.loss(3, 0) < 0.1  # decayed back within a few rounds

    def test_tracks_gilbert_elliott_chain_states(self):
        """Sampling a two-state Markov chain, the estimate separates states.

        The mean estimate while the chain sits in the bad state must be
        well above the mean estimate in the good state — the property the
        adaptive retry budget and ETX repair both rely on.
        """
        rng = np.random.default_rng(42)
        est = LinkQualityEstimator(smoothing=0.25)
        p_enter, p_exit = 0.05, 0.2
        loss_good, loss_bad = 0.02, 0.95
        bad = False
        good_estimates, bad_estimates = [], []
        for _ in range(3000):
            bad = (rng.random() < p_enter) if not bad else (
                rng.random() >= p_exit
            )
            loss = loss_bad if bad else loss_good
            est.observe(5, 0, delivered=bool(rng.random() >= loss))
            (bad_estimates if bad else good_estimates).append(est.loss(5, 0))
        assert np.mean(bad_estimates) > 0.5
        assert np.mean(good_estimates) < 0.25
        assert np.mean(bad_estimates) > np.mean(good_estimates) + 0.3


class TestObserveHops:
    """One convergecast's samples, folded as arrays == scalar ``observe``."""

    @staticmethod
    def random_hops(rng, hop_count, arq):
        senders = rng.permutation(np.arange(1, 60))[:hop_count]
        receivers = rng.integers(60, 70, size=hop_count)
        attempts = rng.integers(1, 4 if arq else 2, size=hop_count)
        parent_up = rng.random(hop_count) > 0.2
        frame_ok = rng.random(int(attempts.sum())) > 0.4
        offsets = np.concatenate(([0], np.cumsum(attempts)[:-1]))
        for hop in np.flatnonzero(~parent_up):
            frame_ok[offsets[hop]:offsets[hop] + attempts[hop]] = False
        final_ack = (rng.random(hop_count) > 0.3).tolist()
        return senders, receivers, attempts, frame_ok, parent_up, final_ack

    @staticmethod
    def scalar_replay(est, senders, receivers, attempts, frame_ok, parent_up,
                      final_ack, arq):
        position = 0
        for hop, (child, parent) in enumerate(zip(senders, receivers)):
            oks = frame_ok[position:position + attempts[hop]].tolist()
            position += attempts[hop]
            if parent_up[hop]:
                for ok in oks:
                    est.observe(int(child), int(parent), ok)
            acked = sum(oks) if arq else 0
            for k in range(acked):
                last = k == acked - 1
                est.observe(int(parent), int(child), last and final_ack[hop])

    @pytest.mark.parametrize("arq", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_replay_bit_for_bit(self, seed, arq):
        rng = np.random.default_rng(seed)
        scalar = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
        batched = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
        for _ in range(3):  # later rounds revisit links seen earlier
            hops = self.random_hops(rng, 25, arq)
            self.scalar_replay(scalar, *hops, arq)
            senders, receivers, attempts, frame_ok, parent_up, final_ack = hops
            batched.observe_hops(
                senders,
                receivers,
                attempts=attempts,
                frame_ok=frame_ok,
                parent_up=parent_up,
                final_ack=final_ack,
                arq=arq,
            )
            assert list(scalar._loss.items()) == list(batched._loss.items())
            assert scalar.observations == batched.observations

    def test_defaults_are_one_delivered_attempt(self):
        scalar = LinkQualityEstimator()
        batched = LinkQualityEstimator()
        for child, parent in ((3, 1), (4, 1), (1, 0)):
            scalar.observe(child, parent, True)
        batched.observe_hops(np.array([3, 4, 1]), np.array([1, 1, 0]))
        assert list(scalar._loss.items()) == list(batched._loss.items())
        batched.observe_hops(np.array([], dtype=np.int64), np.array([]))
        assert batched.observations == 3
