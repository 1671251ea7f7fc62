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

    def test_converges_to_bernoulli_rate(self):
        rng = np.random.default_rng(13)
        est = LinkQualityEstimator(smoothing=0.05)
        rate = 0.3
        for _ in range(2000):
            est.observe(4, 0, delivered=bool(rng.random() >= rate))
        assert est.loss(4, 0) == pytest.approx(rate, abs=0.1)


class TestObserveBatch:
    """Batched feedback must be a literal ordered replay of ``observe``.

    The vectorized faulty convergecast defers its per-hop channel outcomes
    and folds them in one ``observe_batch`` call per phase; these pinned
    regression values guarantee the batch path never drifts from the
    scalar EWMA recurrence (order, insertion order, counters included).
    """

    def test_pinned_regression_values(self):
        est = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        est.observe_batch([1, 1, 2], [2, 2, 1], [False, True, False])
        # link (1,2): 0.1 -> 0.55 -> 0.275; link (2,1): 0.1 -> 0.55.
        assert est.loss(1, 2) == 0.275
        assert est.loss(2, 1) == 0.55
        assert est.observations == 3

    def test_matches_scalar_replay_bit_for_bit(self):
        rng = np.random.default_rng(77)
        senders = rng.integers(0, 6, size=200).tolist()
        receivers = rng.integers(6, 12, size=200).tolist()
        outcomes = (rng.random(200) < 0.6).tolist()

        scalar = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
        for s, r, ok in zip(senders, receivers, outcomes):
            scalar.observe(s, r, ok)
        batched = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
        batched.observe_batch(senders, receivers, outcomes)

        # Values, insertion order and the sample counter all identical —
        # `==` on floats, no approx: the recurrence must be the same code
        # path arithmetic, not merely close.
        assert list(scalar._loss.items()) == list(batched._loss.items())
        assert scalar.observations == batched.observations

    def test_accepts_numpy_arrays(self):
        est = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        est.observe_batch(
            np.array([4, 4]), np.array([0, 0]), np.array([False, False])
        )
        # 0.1 -> 0.55 -> 0.775
        assert est.loss(4, 0) == 0.775
        assert est.observations == 2

    def test_empty_batch_is_a_no_op(self):
        est = LinkQualityEstimator()
        est.observe_batch([], [], [])
        assert est.observations == 0
        assert est.num_links == 0

    def test_adaptive_arq_budgets_from_batched_feedback(self):
        """Pinned budgets: batched outcomes drive the same retry counts."""
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
        batched_policy.observe_batch([3] * 6, [0] * 6, outcomes)

        assert scalar_policy.estimator.loss(3, 0) == batched_policy.estimator.loss(
            3, 0
        )
        # Loss after the burst: 0.05 -> .525 -> .7625 -> .38125 -> .690625
        # -> .8453125 -> .92265625; ceil(log(.01)/log(p)) = 57, clamped to
        # the max_retries+1 = 6 attempt budget.
        assert batched_policy.estimator.loss(3, 0) == 0.92265625
        assert scalar_policy.attempts_for(3, 0) == 6
        assert batched_policy.attempts_for(3, 0) == 6
        # A quiet link decays back to a single attempt under both paths.
        batched_policy.observe_batch([3] * 8, [0] * 8, [True] * 8)
        for _ in range(8):
            scalar_policy.observe(3, 0, True)
        assert scalar_policy.attempts_for(3, 0) == batched_policy.attempts_for(3, 0)


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
