"""The array repair pass against the scalar reference, bit for bit.

``tests/repair_reference.py`` keeps the per-vertex walk the repair pass
used to run.  Every test here runs one scenario twice — the production
:class:`~repro.faults.repair.TreeRepair` and the reference — and requires
identical repair records, repair stats, ``phase_bits``, trees, watchdog
targets and ledgers (every float and integer counter).

Two hand-placed deployments pin the adoption-order subtleties a random
scenario hits only by chance: a failed orphan re-probed once a
neighbouring subtree reconnects, and a nested orphan whose depth (and so
its turn) changes when its ancestor adopts.  The seeded fuzz then sweeps
size, transient rate, permanent churn, parent metric, heal patience,
rotation and a root kill through the full fault driver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticWorkload
from repro.experiments.config import default_algorithms
from repro.faults import ArqPolicy, FaultDriver, FaultPlan, TreeRepair
from repro.faults.network import FaultyTreeNetwork
from repro.faults.plan import (
    CompositeChurn,
    IndependentLoss,
    RandomChurn,
    RandomOutages,
    ScheduledChurn,
    ScheduledOutages,
)
from repro.faults.repair import _WorkingTree
from repro.network.routing import build_routing_tree
from repro.network.topology import build_physical_graph, connected_random_graph
from repro.network.tree import tree_from_parents
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.types import QuerySpec

from tests.repair_reference import ReferenceTreeRepair

LEDGER_ARRAYS = (
    "energy",
    "_round_energy",
    "messages_sent",
    "messages_received",
    "bits_sent",
    "bits_received",
    "values_sent",
)


def assert_ledgers_identical(a: EnergyLedger, b: EnergyLedger) -> None:
    for name in LEDGER_ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name
    assert len(a.round_energy_history) == len(b.round_energy_history)
    for left, right in zip(a.round_energy_history, b.round_energy_history):
        assert left.tobytes() == right.tobytes()


def assert_watchdogs_identical(a, b) -> None:
    assert a.tree == b.tree
    assert a._branch == b._branch
    assert a._baseline_branches == b._baseline_branches
    assert a._baseline_coverage == b._baseline_coverage
    assert a._streak == b._streak
    assert a.triggered == b.triggered


def assert_repairs_identical(a: TreeRepair, b: TreeRepair) -> None:
    assert a.stats == b.stats
    assert a.detached == b.detached
    assert a._parked == b._parked
    assert a.net.phase_bits == b.net.phase_bits
    assert a.net.tree == b.net.tree
    assert a.net.tree.link_distance == b.net.tree.link_distance
    assert_ledgers_identical(a.net.ledger, b.net.ledger)


# -- hand-placed adoption-order scenarios ------------------------------------

RANGE = 10.0


def reattach_both(positions, parents, down, metric="nearest"):
    """Run one ``_reattach_orphans`` pass per implementation."""
    positions = np.asarray(positions, dtype=float)
    graph = build_physical_graph(positions, RANGE)
    tree = tree_from_parents(0, list(parents), positions)
    out = []
    for cls in (TreeRepair, ReferenceTreeRepair):
        plan = FaultPlan(outages=ScheduledOutages({1: [(v, 2) for v in down]}))
        ledger = EnergyLedger(tree.num_vertices, 0, EnergyModel(), RANGE)
        net = FaultyTreeNetwork(tree, ledger, plan=plan)
        repair = cls(graph, net, parent_metric=metric)
        plan.begin_round(tree, 0)
        plan.begin_round(tree, 1)
        ledger.begin_round()
        reattached = repair._reattach_orphans()
        ledger.end_round()
        out.append((reattached, repair))
    (moves, repair), (ref_moves, ref_repair) = out
    assert moves == ref_moves
    assert_repairs_identical(repair, ref_repair)
    return moves, repair


@pytest.mark.parametrize("metric", ["nearest", "etx"])
def test_failed_orphan_reprobed_after_neighbouring_subtree_reconnects(metric):
    # Orphans 3 (depth 2) and 4 (depth 2) lose parents 1 and 2.  Vertex 3's
    # only up neighbour is 9, deep inside 4's cut subtree 4-7-8-9, so 3
    # fails first; 4 then adopts 5 and 3's re-probe finds 9.
    positions = [
        (0, 0), (9, 0), (0, 9), (18, 0), (0, 18),
        (-8, 14), (-8, 5), (8, 20), (15, 14), (18, 7),
    ]
    parents = [-1, 0, 0, 1, 2, 6, 0, 4, 7, 8]
    moves, repair = reattach_both(positions, parents, down=(1, 2), metric=metric)
    assert moves == [(4, 5), (3, 9)]
    assert repair.stats.probe_count == 3


@pytest.mark.parametrize("metric", ["nearest", "etx"])
def test_nested_orphan_moves_ahead_when_its_ancestor_adopts(metric):
    # Orphans by (depth, id): 2 at depth 2, 8 at depth 3, 4 at depth 4
    # (below down vertex 3, inside 2's subtree).  Vertex 2 adopts the
    # root directly, lifting 4 to depth 3 — ahead of 8 on the id tie.
    positions = [
        (0, 0), (5, 0), (8, 4), (14, 8), (20, 12),
        (16, 4), (-8, 0), (-14, 6), (-20, 10), (-15, 3),
    ]
    parents = [-1, 0, 1, 2, 3, 2, 0, 6, 7, 6]
    moves, _ = reattach_both(positions, parents, down=(1, 3, 7), metric=metric)
    assert moves == [(2, 0), (4, 5), (8, 9)]


def test_lockstep_path_costs_match_hop_by_hop_sums():
    # The ETX summation-order contract: every candidate's lockstep total
    # equals the reference walk's left-to-right sum bit for bit.
    rng = np.random.default_rng(5)
    graph = connected_random_graph(301, 35.0, rng, area_side=180.0)
    tree = build_routing_tree(graph, root=0)
    ledger = EnergyLedger(tree.num_vertices, 0, EnergyModel(), 35.0)
    net = FaultyTreeNetwork(tree, ledger)
    stats = net.link_stats
    for _ in range(4000):
        a, b = (int(v) for v in rng.integers(0, tree.num_vertices, size=2))
        stats.observe(a, b, delivered=bool(rng.random() < 0.7))
    reference = ReferenceTreeRepair(graph, net)
    down = np.zeros(tree.num_vertices, dtype=bool)
    work = _WorkingTree(tree, down, stats)
    parent = list(tree.parent)
    for orphan in (7, 150, 299):
        candidates = np.array(
            [v for v in range(tree.num_vertices) if v != orphan], dtype=np.int64
        )
        probe = stats.etx_many([orphan] * len(candidates), candidates.tolist())
        costs = work.path_costs(probe, candidates)
        expected = [
            reference._etx_path_cost(stats, parent, orphan, int(c))[0]
            for c in candidates
        ]
        assert costs.tobytes() == np.array(expected).tobytes()


# -- seeded differential fuzz through the fault driver -----------------------


@dataclass(frozen=True)
class Case:
    nodes: int
    transient: float
    churn: bool
    metric: str
    heal_patience: int
    rotate: bool
    root_kill: bool
    rounds: int
    seed: int


def fuzz_cases() -> list[Case]:
    small = (50, 80, 120, 200, 300, 400)
    cases = []
    axes = itertools.product(
        (0.02, 0.1, 0.3), (False, True), ("etx", "nearest"), (1, 3)
    )
    for index, (transient, churn, metric, patience) in enumerate(axes):
        cases.append(
            Case(
                nodes=small[index % len(small)],
                transient=transient,
                churn=churn,
                metric=metric,
                heal_patience=patience,
                rotate=index % 2 == 0,
                root_kill=index % 3 == 1,
                rounds=10,
                seed=1000 + index,
            )
        )
    # Larger deployments: where an O(n x orphans) slip would show.
    large = itertools.product((600, 1000, 2000), ("etx", "nearest"))
    for index, (nodes, metric) in enumerate(large):
        cases.append(
            Case(
                nodes=nodes,
                transient=0.02 if nodes == 2000 else 0.1,
                churn=index % 2 == 1,
                metric=metric,
                heal_patience=3 if index % 2 == 0 else 1,
                rotate=index % 3 != 2,
                root_kill=index % 2 == 0,
                rounds=6 if nodes == 2000 else 8,
                seed=2000 + index,
            )
        )
    return cases


CASES = fuzz_cases()
ALGORITHMS = ("IQ", "POS", "HBC", "LCLL-H", "TAG")
RADIO = 35.0
MEAN_DEGREE = 12.0


def build_driver(case: Case, algorithm: str, reference: bool) -> FaultDriver:
    rng = np.random.default_rng(case.seed)
    side = float(np.sqrt((case.nodes + 1) * np.pi * RADIO**2 / MEAN_DEGREE))
    graph = connected_random_graph(case.nodes + 1, RADIO, rng, area_side=side)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng)
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    churn = RandomChurn(0.01) if case.churn else None
    if case.root_kill:
        churn = CompositeChurn(churn, ScheduledChurn({case.rounds // 2: (0,)}))
    plan = FaultPlan(
        loss=IndependentLoss(0.05),
        churn=churn,
        outages=RandomOutages(case.transient, mean_downtime=3.0),
        rng=np.random.default_rng((case.seed, 7)),
    )
    driver = FaultDriver(
        default_algorithms()[algorithm],
        spec,
        tree,
        workload,
        plan,
        ArqPolicy(max_retries=2),
        graph=graph,
        radio_range=RADIO,
        repair_metric=case.metric,
        heal_patience=case.heal_patience,
        rotate_every=3 if case.rotate else 0,
        rotate_rng=np.random.default_rng((case.seed, 11)),
        failover_rng=np.random.default_rng((case.seed, 13)),
    )
    if reference:
        driver.repair = ReferenceTreeRepair(
            graph,
            driver.net,
            driver.watchdog,
            parent_metric=case.metric,
            heal_patience=case.heal_patience,
        )
    return driver


@pytest.mark.parametrize(
    "index", range(len(CASES)), ids=lambda i: f"case{i}-n{CASES[i].nodes}"
)
def test_array_pass_matches_scalar_reference(index):
    case = CASES[index]
    algorithm = ALGORITHMS[index % len(ALGORITHMS)]
    driver = build_driver(case, algorithm, reference=False)
    reference = build_driver(case, algorithm, reference=True)
    activity = 0
    for round_index in range(case.rounds):
        report = driver.step(round_index)
        expected = reference.step(round_index)
        assert report == expected, f"round {round_index}"
        if report is None:
            break
        assert_repairs_identical(driver.repair, reference.repair)
        assert_watchdogs_identical(driver.watchdog, reference.watchdog)
        if report.repair is not None:
            activity += len(report.repair.reattached) + len(report.repair.parked)
    assert driver.repair.stats.probe_count == reference.repair.stats.probe_count
    if case.transient >= 0.1:
        assert activity > 0  # the scenario really exercised repair
