"""Array folds of the paper's payloads against the per-object reference.

``tests/test_vectorized.py`` runs each payload class through every decide
variant on one fixed tree.  This module fuzzes the folds on seeded random
trees and payload mixes chosen to hit the exactness edges of
:class:`~repro.sim.vectorized.ArrayFold`: duplicates at the prune boundary,
``keep_largest``, ``keep`` at least the subtree size, leaves holding more
than ``keep`` values (pruned only where merged), zero-delta leaf entries,
mixed ``hint_values`` and absent hints.  It also pins the operand rules
the per-object fold has: a lone contribution reaches the root untouched,
and operands ``merged_with`` refuses are refused by the array fold too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.payloads import (
    BucketDeltaPayload,
    HistogramPayload,
    ValidationPayload,
    ValueSetPayload,
    one_hot_histograms,
)
from repro.errors import ProtocolError
from repro.faults import ArqPolicy, FaultPlan
from repro.faults.network import FaultyTreeNetwork
from repro.faults.plan import IndependentLoss, ScheduledOutages
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import TreeNetwork

from tests.engine_reference import ReferenceFaultyTreeNetwork, ReferenceTreeNetwork
from tests.test_fault_sampling import states_equal
from tests.test_vectorized import (
    RADIO_RANGE,
    CountPayload,
    assert_networks_identical,
    random_tree,
    typed_fields,
)


def _value_sets(rng, vertices):
    keep = int(rng.choice([1, 2, 3, 50]))  # 50: at least any subtree here
    largest = bool(rng.integers(2))
    contributions = {}
    for v in vertices:
        width = int(rng.choice([1, 1, 2, 6]))  # 6 > keep for most keeps
        values = tuple(sorted(rng.integers(0, 5, width).tolist()))  # ties
        contributions[v] = ValueSetPayload(
            values=values, keep=keep, keep_largest=largest
        )
    return contributions


def _validation(rng, vertices):
    contributions = {}
    for v in vertices:
        hinted = bool(rng.integers(2))
        low = int(rng.integers(-20, 20))
        contributions[v] = ValidationPayload(
            into_lt=int(rng.integers(2)),
            outof_lt=int(rng.integers(2)),
            into_gt=int(rng.integers(2)),
            outof_gt=int(rng.integers(2)),
            hint_min=low if hinted else None,
            hint_max=low + int(rng.integers(3)) if hinted else None,
            hint_values=int(rng.integers(1, 3)),
            values=tuple(sorted(rng.integers(0, 4, rng.integers(0, 3)).tolist())),
        )
    return contributions


def _histograms(rng, vertices):
    width = int(rng.integers(2, 9))
    compressed = bool(rng.integers(2))
    one_hot = one_hot_histograms(width, compressed)
    contributions = {}
    for v in vertices:
        if rng.integers(3):
            contributions[v] = one_hot[int(rng.integers(width))]
        else:
            counts = tuple(rng.integers(0, 3, width).tolist())
            contributions[v] = HistogramPayload(counts, compressed=compressed)
    return contributions


def _bucket_deltas(rng, vertices):
    contributions = {}
    for v in vertices:
        keys = {
            (int(rng.integers(-1, 2)), int(rng.integers(0, 4)))
            for _ in range(int(rng.integers(1, 4)))
        }
        # Deltas of -1, 0 and +1: zero entries travel until merged.
        contributions[v] = BucketDeltaPayload(
            deltas=tuple(
                sorted((key, int(rng.integers(-1, 2))) for key in keys)
            )
        )
    return contributions


BUILDERS = {
    "value-set": _value_sets,
    "validation": _validation,
    "histogram": _histograms,
    "bucket-delta": _bucket_deltas,
}


def _network(core: str, tree, faulty: bool, seed: int):
    ledger = EnergyLedger(
        num_vertices=tree.num_vertices,
        root=tree.root,
        model=EnergyModel(),
        radio_range=RADIO_RANGE,
    )
    if not faulty:
        cls = ReferenceTreeNetwork if core == "object" else TreeNetwork
        return cls(tree, ledger)
    internal = [v for v in tree.sensor_nodes if tree.children[v]]
    plan = FaultPlan(
        loss=IndependentLoss(0.2),
        outages=ScheduledOutages({1: ((internal[0], 2),)}),
        rng=np.random.default_rng(seed),
    )
    cls = ReferenceFaultyTreeNetwork if core == "object" else FaultyTreeNetwork
    return cls(tree, ledger, plan=plan, arq=ArqPolicy(max_retries=2))


def _fuzz_run(core: str, kind: str, seed: int, faulty: bool):
    rng = np.random.default_rng(seed)
    tree = random_tree(int(rng.integers(8, 60)), seed=seed)
    net = _network(core, tree, faulty, seed)
    answers = []
    for r in range(4):
        if faulty:
            net.begin_faults_round(r)
        net.ledger.begin_round()
        pool = list(tree.sensor_nodes) + [tree.root]
        chosen = rng.choice(pool, int(rng.integers(1, len(pool) + 1)), replace=False)
        answer = net.convergecast(BUILDERS[kind](rng, sorted(chosen.tolist())))
        answers.append(typed_fields(answer))
        net.ledger.end_round()
    return net, answers


class TestFoldFuzz:
    @pytest.mark.parametrize("faulty", [False, True], ids=["reliable", "lossy"])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, kind, seed, faulty):
        net_o, ans_o = _fuzz_run("object", kind, seed, faulty)
        net_v, ans_v = _fuzz_run("vector", kind, seed, faulty)
        assert ans_o == ans_v
        assert_networks_identical(net_o, net_v)
        if faulty:
            for counter in (
                "lost_transmissions",
                "retransmissions",
                "acks_sent",
                "lost_acks",
            ):
                assert getattr(net_o, counter) == getattr(net_v, counter), counter
            assert states_equal(
                net_o.plan.rng.bit_generator.state,
                net_v.plan.rng.bit_generator.state,
            )


EMPTY = {
    "value-set": lambda: ValueSetPayload(values=(), keep=2),
    "validation": lambda: ValidationPayload(),
    "histogram": lambda: HistogramPayload((0, 0, 0)),
    "bucket-delta": lambda: BucketDeltaPayload(deltas=()),
}


class TestNothingLeftAfterIntake:
    """Every contribution down or empty: no fold runs and the answer is None.

    Reachable in a run: without repair (or before repair detaches a node)
    the participating sensors still list down vertices, so a refinement
    or histogram convergecast whose in-band sensors are all down leaves
    intake with nothing.
    """

    def _run(self, core: str, build):
        tree = random_tree(30, seed=11)
        contributors = [v for v in tree.sensor_nodes if tree.is_leaf(v)][:6]
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        plan = FaultPlan(
            loss=IndependentLoss(0.2),
            outages=ScheduledOutages({0: tuple((v, 1) for v in contributors)}),
            rng=np.random.default_rng(5),
        )
        cls = ReferenceFaultyTreeNetwork if core == "object" else FaultyTreeNetwork
        net = cls(tree, ledger, plan=plan, arq=ArqPolicy(max_retries=2))
        net.begin_faults_round(0)
        net.ledger.begin_round()
        answer = net.convergecast(build(contributors))
        net.ledger.end_round()
        return net, answer

    def _check(self, build):
        net_o, ans_o = self._run("object", build)
        net_v, ans_v = self._run("vector", build)
        assert ans_o is None and ans_v is None
        assert_networks_identical(net_o, net_v)
        assert not net_v.collection_log[-1].delivered
        assert states_equal(
            net_o.plan.rng.bit_generator.state,
            net_v.plan.rng.bit_generator.state,
        )

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_every_contributor_down(self, kind):
        self._check(
            lambda vertices: BUILDERS[kind](np.random.default_rng(1), vertices)
        )

    def test_every_uniform_contributor_down(self):
        self._check(lambda vertices: {v: CountPayload(1) for v in vertices})

    @pytest.mark.parametrize("kind", sorted(EMPTY))
    def test_every_contribution_empty(self, kind):
        net = _network("vector", random_tree(20, seed=2), False, 0)
        leaves = [v for v in net.tree.sensor_nodes if net.tree.is_leaf(v)]
        assert net.convergecast({v: EMPTY[kind]() for v in leaves}) is None
        assert net.collection_log[-1].expected == 0


class TestOperandRules:
    def net(self, n: int = 12):
        return _network("vector", random_tree(n, seed=3), False, 0)

    def test_lone_contribution_reaches_root_untouched(self):
        net = self.net()
        leaf = next(v for v in net.tree.sensor_nodes if net.tree.is_leaf(v))
        # More values than keep, unsorted: only a merge would prune or sort.
        payload = ValueSetPayload(values=(5, 1, 3), keep=1)
        assert net.convergecast({leaf: payload}) is payload

    def test_mixed_compression_rejected(self):
        net = self.net()
        a, b = net.tree.sensor_nodes[:2]
        for first in (True, False):
            contributions = {
                a: HistogramPayload((1, 0), compressed=first),
                b: HistogramPayload((0, 1), compressed=not first),
            }
            with pytest.raises(ProtocolError, match="compressed"):
                net.convergecast(contributions)

    def test_width_mismatch_rejected(self):
        net = self.net()
        a, b = net.tree.sensor_nodes[:2]
        with pytest.raises(ProtocolError, match="size mismatch"):
            net.convergecast(
                {a: HistogramPayload((1, 0)), b: HistogramPayload((0, 1, 0))}
            )

    def test_mixed_pruning_rejected(self):
        net = self.net()
        a, b = net.tree.sensor_nodes[:2]
        with pytest.raises(ProtocolError, match="different pruning"):
            net.convergecast(
                {
                    a: ValueSetPayload((1,), keep=2),
                    b: ValueSetPayload((2,), keep=2, keep_largest=True),
                }
            )
