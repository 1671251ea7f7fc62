"""Unit tests for the simulation runner."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.pos import POS
from repro.baselines.tag import TAG
from repro.core.base import ContinuousQuantileAlgorithm
from repro.errors import ProtocolError
from repro.faults.experiment import FaultDriver
from repro.faults.plan import FaultPlan
from repro.sim.runner import SimulationRunner
from repro.types import QuerySpec, RoundOutcome


def static_provider(values: np.ndarray):
    return lambda _round: values


class BrokenAlgorithm(ContinuousQuantileAlgorithm):
    """Returns a wrong quantile to exercise the oracle check."""

    name = "BROKEN"

    def initialize(self, net, values) -> RoundOutcome:
        return RoundOutcome(quantile=-999)

    def update(self, net, values) -> RoundOutcome:
        return RoundOutcome(quantile=-999)


class FailingTAG(TAG):
    """TAG whose round-2 update raises, as a protocol bug would."""

    updates = 0

    def update(self, net, values) -> RoundOutcome:
        self.updates += 1
        if self.updates == 2:
            raise ProtocolError("protocol bug in round 2")
        return super().update(net, values)


class DriftingTAG(TAG):
    """TAG that answers wrong in round 1, then raises in round 2."""

    updates = 0

    def update(self, net, values) -> RoundOutcome:
        self.updates += 1
        if self.updates == 2:
            raise ProtocolError("later crash")
        outcome = super().update(net, values)
        return replace(outcome, quantile=outcome.quantile + 1)


class TestSimulationRunner:
    def test_runs_and_records_rounds(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0)
        result = runner.run(TAG(QuerySpec(r_max=100)), static_provider(values), 5)
        assert result.num_rounds == 5
        assert result.all_exact
        assert result.quantile_series == [30] * 5
        assert result.algorithm == "TAG"

    def test_oracle_check_catches_wrong_answers(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0, check=True)
        with pytest.raises(ProtocolError):
            runner.run(BrokenAlgorithm(QuerySpec()), static_provider(values), 1)

    def test_oracle_check_fails_in_the_first_wrong_round(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0, check=True)
        with pytest.raises(ProtocolError, match="round 1: computed 31"):
            runner.run(DriftingTAG(QuerySpec(r_max=100)), static_provider(values), 5)

    def test_driver_scores_a_wrong_answer_with_both_rank_metrics(self, small_tree):
        """An absent answer below k = 3: insertion rank error 2, rank error 3."""
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        driver = FaultDriver(
            BrokenAlgorithm,
            QuerySpec(),
            small_tree,
            SimpleNamespace(values=static_provider(values)),
            FaultPlan(),
            repair=False,
        )
        reports = driver.run(2)
        assert driver.rank_errors == [2, 2]
        assert [report.stats.rank_error for report in reports] == [3, 3]

    def test_check_disabled_records_mismatch(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0, check=False)
        result = runner.run(BrokenAlgorithm(QuerySpec()), static_provider(values), 1)
        assert not result.all_exact
        assert result.rounds[0].rank_error_value == abs(-999 - 30)

    def test_per_round_counters_are_differences(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0)
        result = runner.run(TAG(QuerySpec(r_max=100)), static_provider(values), 3)
        # TAG sends the same traffic every round (after dissemination).
        assert result.rounds[1].messages_sent == result.rounds[2].messages_sent
        assert result.rounds[1].values_sent == result.rounds[2].values_sent
        assert result.rounds[1].values_sent > 0

    def test_lifetime_and_energy_positive(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0)
        result = runner.run(POS(QuerySpec(r_max=100)), static_provider(values), 4)
        assert result.max_mean_round_energy_j > 0
        assert 0 < result.lifetime_rounds < float("inf")
        assert result.totals is not None and result.totals.energy > 0

    def test_zero_rounds_rejected(self, small_tree):
        runner = SimulationRunner(small_tree, radio_range=35.0)
        with pytest.raises(ProtocolError):
            runner.run(TAG(QuerySpec()), static_provider(np.zeros(8)), 0)

    def test_refinement_totals_aggregate(self, small_tree, rng):
        rounds = {}
        for t in range(6):
            base = rng.integers(0, 1000, size=8)
            rounds[t] = base
        runner = SimulationRunner(small_tree, radio_range=35.0)
        result = runner.run(
            POS(QuerySpec(r_max=1000)), lambda t: rounds[t], 6
        )
        assert result.total_refinements == sum(
            r.outcome.refinements for r in result.rounds
        )

    def test_protocol_error_propagates_under_the_empty_plan(self, small_tree):
        """Nothing is injected, so a protocol failure is a bug: no re-init."""
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0)
        with pytest.raises(ProtocolError, match="protocol bug in round 2"):
            runner.run(FailingTAG(QuerySpec(r_max=100)), static_provider(values), 5)

    def test_drives_the_given_instance_reading_values_once_per_round(
        self, small_tree
    ):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        calls: list[int] = []

        def provider(round_index):
            calls.append(round_index)
            return values

        algorithm = TAG(QuerySpec(r_max=100))
        driven = []
        update = algorithm.update
        algorithm.update = lambda net, v: driven.append(1) or update(net, v)
        result = SimulationRunner(small_tree, radio_range=35.0).run(
            algorithm, provider, 4
        )
        assert calls == [0, 1, 2, 3]
        assert len(driven) == 3
        assert result.quantile_series == [30] * 4
