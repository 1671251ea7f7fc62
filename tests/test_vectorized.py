"""Bit-for-bit equivalence of the engine pipeline and the per-hop reference.

Every test runs the same scenario twice — ``"object"`` (the per-vertex
walk in ``tests/engine_reference.py``) and ``"vector"`` (the production
intake -> decide -> fold -> account pipeline) — and asserts the ledgers,
logs, counters and answers are *identical*, floats included.  The scenarios sweep the same
axes the differential invariant harness covers: payload shape (mixed
sizes, empty, uniform, mixed-type), virtual vertices, energy-model
ablations, link loss (i.i.d. and bursty) with ARQ, churn and outages with
broadcast pruning, tree repair and rotation via the full fault driver.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.payloads import (
    BucketDeltaPayload,
    HistogramPayload,
    ValidationPayload,
    ValueSetPayload,
    one_hot_histograms,
)
from repro.errors import ProtocolError
from repro.experiments.config import default_algorithms
from repro.faults import AdaptiveArqPolicy, ArqPolicy, FaultDriver, FaultPlan
from repro.faults.network import FaultyTreeNetwork
from repro.faults.plan import (
    GilbertElliottLoss,
    IndependentLoss,
    RandomChurn,
    RandomOutages,
    ScheduledChurn,
    ScheduledOutages,
)
from repro.network.linkstats import LinkQualityEstimator
from repro.network.topology import build_physical_graph
from repro.network.tree import RoutingTree, tree_from_parents
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import Payload, TreeNetwork, UniformPayload
from repro.types import QuerySpec

from tests.engine_reference import (
    ReferenceFaultyTreeNetwork,
    ReferenceTreeNetwork,
    use_reference,
)
from tests.helpers import SequenceWorkload, assert_differential_invariant
from tests.test_fault_sampling import states_equal

RADIO_RANGE = 40.0


@dataclass(frozen=True)
class SizedPayload(Payload):
    """Merge-by-union payload whose size grows with its value count."""

    values: frozenset[int]

    def merged_with(self, other: "SizedPayload") -> "SizedPayload":
        return SizedPayload(self.values | other.values)

    def payload_bits(self) -> int:
        return 8 * len(self.values)

    def num_values(self) -> int:
        return len(self.values)

    def is_empty(self) -> bool:
        return not self.values


@dataclass(frozen=True)
class CountPayload(UniformPayload):
    """Fixed-size counter: the canonical UniformPayload."""

    count: int

    uniform_bits = 24

    def merged_with(self, other: "CountPayload") -> "CountPayload":
        return type(self)(self.count + other.count)

    def num_values(self) -> int:
        # Additive under merging, as the UniformPayload contract demands.
        return self.count

    def is_empty(self) -> bool:
        return self.count == 0

    @classmethod
    def vector_reduce(cls, payloads: Sequence["CountPayload"]) -> "CountPayload":
        return cls(sum(p.count for p in payloads))


@dataclass(frozen=True)
class OneReading(UniformPayload):
    """One reading per contributor: exercises the constant-intake path.

    ``uniform_leaf_values = 1`` plus the default ``is_empty`` lets the
    engine take contributor ids straight off the mapping keys
    without touching the payload objects.
    """

    value: int
    count: int = 1

    uniform_bits = 16
    uniform_leaf_values = 1

    def merged_with(self, other: "OneReading") -> "OneReading":
        return OneReading(
            max(self.value, other.value), self.count + other.count
        )

    def num_values(self) -> int:
        # Additive under merging, per the UniformPayload contract; each
        # contributed leaf carries exactly one (uniform_leaf_values).
        return self.count

    @classmethod
    def vector_reduce(cls, payloads: Sequence["OneReading"]) -> "OneReading":
        return cls(max(p.value for p in payloads), len(payloads))


def random_tree(n: int, seed: int = 5) -> RoutingTree:
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 30.0, size=(n, 2))
    positions[0] = (15.0, 15.0)
    parents = [-1] + [int(rng.integers(0, v)) for v in range(1, n)]
    return tree_from_parents(0, parents, positions)


def make_net(
    core: str,
    tree: RoutingTree,
    model: EnergyModel | None = None,
    virtual: frozenset[int] = frozenset(),
) -> TreeNetwork:
    ledger = EnergyLedger(
        num_vertices=tree.num_vertices,
        root=tree.root,
        model=model if model is not None else EnergyModel(),
        radio_range=RADIO_RANGE,
    )
    cls = ReferenceTreeNetwork if core == "object" else TreeNetwork
    return cls(tree, ledger, virtual_vertices=virtual)


def assert_ledgers_identical(a: EnergyLedger, b: EnergyLedger) -> None:
    """Bitwise equality of every ledger array, energy floats included."""
    assert np.array_equal(a.energy, b.energy), (
        f"energy differs by {np.abs(a.energy - b.energy).max()}"
    )
    for field in (
        "messages_sent",
        "messages_received",
        "bits_sent",
        "bits_received",
        "values_sent",
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert len(a.round_energy_history) == len(b.round_energy_history)
    for i, (ra, rb) in enumerate(
        zip(a.round_energy_history, b.round_energy_history)
    ):
        assert np.array_equal(ra, rb), f"round {i} energy differs"


def assert_networks_identical(a: TreeNetwork, b: TreeNetwork) -> None:
    assert_ledgers_identical(a.ledger, b.ledger)
    assert a.exchanges == b.exchanges
    assert a.phase_bits == b.phase_bits
    assert a.collection_log == b.collection_log


def sized_contributions(
    tree: RoutingTree, round_index: int
) -> dict[int, SizedPayload]:
    """Deterministic mixed-size contributions; some silent, some empty."""
    contributions: dict[int, SizedPayload] = {}
    for vertex in range(tree.num_vertices):
        if (vertex + round_index) % 5 == 0:
            continue  # silent vertex
        if (vertex + round_index) % 7 == 0:
            contributions[vertex] = SizedPayload(frozenset())  # empty
            continue
        width = 1 + (vertex + round_index) % 4
        contributions[vertex] = SizedPayload(
            frozenset(range(vertex, vertex + width))
        )
    return contributions


class TestLosslessEquivalence:
    def run_rounds(self, core: str, model: EnergyModel | None = None):
        tree = random_tree(60)
        net = make_net(core, tree, model=model)
        answers = []
        for r in range(6):
            net.ledger.begin_round()
            net.phase = ("initialization", "refinement")[r % 2]
            answers.append(net.convergecast(sized_contributions(tree, r)))
            net.broadcast(16 + 8 * r)
            net.ledger.end_round()
        return net, answers

    def test_object_payloads_identical_across_cores(self):
        object_net, object_answers = self.run_rounds("object")
        vector_net, vector_answers = self.run_rounds("vector")
        assert_networks_identical(object_net, vector_net)
        assert [a.values for a in object_answers] == [
            a.values for a in vector_answers
        ]

    def test_per_link_distance_and_idle_model(self):
        model = EnergyModel(per_link_distance=True, idle_cost_per_round=1e-6)
        object_net, object_answers = self.run_rounds("object", model=model)
        vector_net, vector_answers = self.run_rounds("vector", model=model)
        assert_networks_identical(object_net, vector_net)
        assert object_answers[-1].values == vector_answers[-1].values

    def test_uniform_payloads_identical_across_cores(self):
        tree = random_tree(80, seed=9)
        nets = {}
        for core in ("object", "vector"):
            net = make_net(core, tree)
            for r in range(5):
                contributions = {
                    v: CountPayload(1 + (v + r) % 3)
                    for v in tree.sensor_nodes
                    if (v + r) % 6 != 0
                }
                answer = net.convergecast(contributions)
                assert answer.count == sum(
                    p.count for p in contributions.values()
                )
            nets[core] = net
        assert_networks_identical(nets["object"], nets["vector"])

    def test_uniform_leaf_values_fast_intake_identical(self):
        tree = random_tree(70, seed=14)
        nets = {}
        for core in ("object", "vector"):
            net = make_net(core, tree)
            for r in range(4):
                contributions = {
                    v: OneReading(v * 7 + r)
                    for v in tree.sensor_nodes
                    if (v + r) % 5 != 0
                }
                answer = net.convergecast(contributions)
                assert answer.value == max(
                    p.value for p in contributions.values()
                )
            nets[core] = net
        assert_networks_identical(nets["object"], nets["vector"])

    def test_mixed_payload_types_fall_back_identically(self):
        """A subclass in the mix defeats the all-same-type check.

        ``WideCount`` merges fine with ``CountPayload`` but is a different
        class, so the engine must take the per-object fold — and still
        match the reference walk exactly.
        """

        class WideCount(CountPayload):
            pass

        tree = random_tree(40, seed=3)
        answers = {}
        nets = {}
        for core in ("object", "vector"):
            net = make_net(core, tree)
            contributions: dict[int, Payload] = {
                v: CountPayload(1) for v in tree.sensor_nodes
            }
            for v in sorted(contributions)[::3]:
                contributions[v] = WideCount(1)
            answers[core] = net.convergecast(contributions)
            nets[core] = net
        assert answers["object"].count == answers["vector"].count
        assert_networks_identical(nets["object"], nets["vector"])

    def test_empty_convergecast_identical(self):
        tree = random_tree(20, seed=1)
        nets = {}
        for core in ("object", "vector"):
            net = make_net(core, tree)
            assert net.convergecast({}) is None
            assert (
                net.convergecast(
                    {v: SizedPayload(frozenset()) for v in tree.sensor_nodes}
                )
                is None
            )
            assert net.phase_bits == {"other": 0}
            assert [rec.expected for rec in net.collection_log] == [0, 0]
            nets[core] = net
        assert_networks_identical(nets["object"], nets["vector"])

    def test_root_contribution_merged_without_radio(self):
        tree = random_tree(25, seed=2)
        for core in ("object", "vector"):
            net = make_net(core, tree)
            answer = net.convergecast({tree.root: CountPayload(5)})
            assert answer.count == 5
            assert net.ledger.totals().bits_sent == 0

    def test_virtual_vertices_identical_and_uncharged(self):
        tree = random_tree(30, seed=8)
        virtual = frozenset(
            v for v in tree.sensor_nodes if tree.is_leaf(v)
        )
        nets = {}
        for core in ("object", "vector"):
            net = make_net(core, tree, virtual=virtual)
            for r in range(4):
                net.convergecast(sized_contributions(tree, r))
                net.broadcast(32)
            assert all(net.ledger.energy[v] == 0.0 for v in virtual)
            # Uniform path exercises its own virtual masking.
            net.convergecast(
                {v: CountPayload(1) for v in tree.sensor_nodes}
            )
            nets[core] = net
        assert_networks_identical(nets["object"], nets["vector"])

    def test_broadcast_identical_including_zero_bits(self):
        tree = random_tree(50, seed=4)
        nets = {}
        for core in ("object", "vector"):
            net = make_net(core, tree)
            assert net.broadcast(0) == tree.num_vertices - 1
            assert net.broadcast(4096) == tree.num_vertices - 1
            with pytest.raises(ProtocolError):
                net.broadcast(-1)
            nets[core] = net
        assert_networks_identical(nets["object"], nets["vector"])

    def test_retarget_refreshes_vector_state(self):
        tree = random_tree(30, seed=6)
        rng = np.random.default_rng(17)
        positions = np.array(
            [(0.0, 0.0)] + rng.uniform(0.0, 10.0, size=(29, 2)).tolist()
        )
        reparented = tree_from_parents(
            0,
            [-1] + [int(rng.integers(0, v)) for v in range(1, 30)],
            positions=None,
        )
        nets = {}
        for core in ("object", "vector"):
            net = make_net(core, tree)
            net.convergecast(sized_contributions(tree, 0))
            net.retarget(reparented)
            net.convergecast(sized_contributions(reparented, 1))
            net.broadcast(64)
            nets[core] = net
        assert_networks_identical(nets["object"], nets["vector"])


class TestFaultyEquivalence:
    """Same fault schedule, same seeds, both cores: identical everything."""

    def faulty_net(self, core: str, tree: RoutingTree, plan: FaultPlan, arq):
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        cls = ReferenceFaultyTreeNetwork if core == "object" else FaultyTreeNetwork
        return cls(tree, ledger, plan=plan, arq=arq)

    def run_faulty(self, core: str, loss, churn=None, outages=None, retries=3):
        tree = random_tree(45, seed=12)
        plan = FaultPlan(
            loss=loss,
            churn=churn,
            outages=outages,
            rng=np.random.default_rng(424242),
        )
        net = self.faulty_net(
            core, tree, plan, ArqPolicy(max_retries=retries)
        )
        reached = []
        answers = []
        for r in range(8):
            net.begin_faults_round(r)
            net.ledger.begin_round()
            answers.append(net.convergecast(sized_contributions(tree, r)))
            reached.append(net.broadcast(24))
            net.ledger.end_round()
        return net, answers, reached

    @staticmethod
    def assert_fault_counters_equal(a: FaultyTreeNetwork, b: FaultyTreeNetwork):
        for field in (
            "lost_transmissions",
            "retransmissions",
            "acks_sent",
            "lost_acks",
        ):
            assert getattr(a, field) == getattr(b, field), field

    def test_independent_loss_with_arq(self):
        results = {
            core: self.run_faulty(core, IndependentLoss(0.2))
            for core in ("object", "vector")
        }
        net_o, ans_o, reach_o = results["object"]
        net_v, ans_v, reach_v = results["vector"]
        assert_networks_identical(net_o, net_v)
        self.assert_fault_counters_equal(net_o, net_v)
        assert reach_o == reach_v
        assert [a and a.values for a in ans_o] == [a and a.values for a in ans_v]
        assert net_o.lost_transmissions > 0  # the scenario actually bites

    def test_gilbert_elliott_loss_no_arq(self):
        results = {
            core: self.run_faulty(
                core, GilbertElliottLoss(0.3, 0.5, 0.02), retries=0
            )
            for core in ("object", "vector")
        }
        assert_networks_identical(results["object"][0], results["vector"][0])
        self.assert_fault_counters_equal(
            results["object"][0], results["vector"][0]
        )

    def test_churn_and_outages_prune_broadcasts_identically(self):
        churn = ScheduledChurn({3: (9,), 5: (14,)})
        outages = ScheduledOutages({2: ((7, 3), (11, 2)), 6: ((20, 2),)})
        results = {
            core: self.run_faulty(
                core, IndependentLoss(0.1), churn=churn, outages=outages
            )
            for core in ("object", "vector")
        }
        net_o, _, reach_o = results["object"]
        net_v, _, reach_v = results["vector"]
        assert_networks_identical(net_o, net_v)
        assert reach_o == reach_v
        # Churn really pruned some broadcast subtree at least once.
        assert min(reach_o) < net_o.tree.num_vertices - 1

    def test_full_driver_stack_identical(self):
        """Loss + churn + outages + ARQ + repair + rotation, end to end."""

        def run(core: str):
            rng = np.random.default_rng(11)
            n = 40
            positions = rng.uniform(0, 30, size=(n, 2))
            positions[0] = (15.0, 15.0)
            graph = build_physical_graph(positions, RADIO_RANGE)
            prng = np.random.default_rng(5)
            parents = [-1] + [int(prng.integers(0, v)) for v in range(1, n)]
            tree = tree_from_parents(0, parents, positions)
            vrng = np.random.default_rng(3)
            rounds = [
                vrng.integers(0, 128, size=n) for _ in range(12)
            ]
            plan = FaultPlan(
                loss=GilbertElliottLoss(0.25, 0.4, 0.02),
                churn=ScheduledChurn({6: (9,)}),
                outages=ScheduledOutages({3: ((7, 2),), 5: ((12, 2),)}),
                rng=np.random.default_rng(99),
            )
            driver = FaultDriver(
                default_algorithms()["POS"],
                QuerySpec(r_min=0, r_max=127),
                tree,
                SequenceWorkload(rounds),
                plan,
                ArqPolicy(max_retries=3),
                graph=graph,
                repair=True,
                radio_range=RADIO_RANGE,
                rotate_every=4,
                rotate_rng=np.random.default_rng(1),
            )
            if core == "object":
                use_reference(driver)
            reports = driver.run(len(rounds))
            return reports, driver.ledger, driver.net

        reports_o, ledger_o, net_o = run("object")
        reports_v, ledger_v, net_v = run("vector")
        assert isinstance(net_o, ReferenceFaultyTreeNetwork)
        assert not isinstance(net_v, ReferenceFaultyTreeNetwork)
        assert [r.answer for r in reports_o] == [r.answer for r in reports_v]
        assert [r.trustworthy for r in reports_o] == [
            r.trustworthy for r in reports_v
        ]
        assert_ledgers_identical(ledger_o, ledger_v)
        self.assert_fault_counters_equal(net_o, net_v)


# -- decide x fold: every pipeline variant against the reference walk ---------

#: Decide-stage variants: ``(plan kwargs factory, ARQ factory, own stats)``.
#: ``None`` as the plan factory means the reliable ``TreeNetwork``.
DECIDE_AXIS = {
    # Reliable radio: the array decide, no loop.
    "reliable": (None, None, False),
    # A plan that injects nothing, ARQ off: the array decide plus the
    # channel-sample replay.
    "empty-plan": (lambda: {}, lambda: ArqPolicy(), False),
    # Outages but no loss: hops to a down parent fail every attempt
    # without a draw; the generator is never touched by the loop.
    "down-parent": (lambda: {"outages": True}, lambda: ArqPolicy(max_retries=2), False),
    # I.i.d. loss: inline uniform blocks with the rewind-and-replay exit.
    "iid-inline": (
        lambda: {"loss": IndependentLoss(0.3), "outages": True},
        lambda: ArqPolicy(max_retries=2),
        False,
    ),
    # Gilbert-Elliott bursts: draws through batched_sampling.
    "burst": (
        lambda: {"loss": GilbertElliottLoss(0.2, 0.45, 0.03, 0.85), "outages": True},
        lambda: ArqPolicy(max_retries=2),
        False,
    ),
    # Per-link adaptive ARQ: budgets and feedback inline, shared estimator.
    "adaptive": (
        lambda: {"loss": IndependentLoss(0.25), "outages": True},
        lambda: AdaptiveArqPolicy(max_retries=4),
        False,
    ),
    # Adaptive ARQ next to a separate link table: the uplink samples go
    # to both, inline.
    "adaptive-own-stats": (
        lambda: {"loss": GilbertElliottLoss(0.2, 0.45, 0.03, 0.85), "outages": True},
        lambda: AdaptiveArqPolicy(max_retries=3),
        True,
    ),
}


def typed_fields(payload):
    """A payload as nested ``(type, value)`` pairs, element types included.

    ``None`` stays ``None``; dataclass payloads expand field by field and
    tuples element by element, so a ``numpy`` integer where the reference
    holds a Python ``int`` compares unequal.
    """
    if payload is None:
        return None
    if dataclasses.is_dataclass(payload):
        return (
            type(payload).__name__,
            tuple(
                (f.name, typed_fields(getattr(payload, f.name)))
                for f in dataclasses.fields(payload)
            ),
        )
    if isinstance(payload, (tuple, frozenset)):
        items = sorted(payload) if isinstance(payload, frozenset) else payload
        return (type(payload).__name__, tuple(map(typed_fields, items)))
    return (type(payload).__name__, payload)


def _value_sets(tree: RoutingTree, r: int) -> dict[int, ValueSetPayload]:
    """Pruned value sets: boundary ties, leaves over ``keep``, both ends."""
    keep_largest = bool(r % 2)
    contributions = {}
    for v in tree.sensor_nodes:
        if (v + r) % 5 == 0:
            continue
        width = 5 if v % 7 == 0 else 1  # more than keep: pruned only where merged
        values = tuple(sorted((v * 3 + r + i) % 9 for i in range(width)))
        contributions[v] = ValueSetPayload(
            values=values, keep=3, keep_largest=keep_largest
        )
    contributions[tree.root] = ValueSetPayload(
        values=(4, 4), keep=3, keep_largest=keep_largest
    )
    return contributions


def _validation(tree: RoutingTree, r: int) -> dict[int, ValidationPayload]:
    """Counters, present and absent hints, hint_values 1 and 2, values."""
    contributions = {}
    for v in tree.sensor_nodes:
        if (v + r) % 3 == 0:
            continue
        hinted = (v + r) % 4 != 1
        value = (v * 5 + r) % 17
        contributions[v] = ValidationPayload(
            into_lt=int(v % 2 == 0),
            outof_lt=int(v % 3 == 0),
            into_gt=int(v % 5 == 0),
            outof_gt=(v + r) % 2,
            hint_min=value if hinted else None,
            hint_max=value + 1 if hinted else None,
            hint_values=1 + (v + r) % 2,
            values=(value, value + r) if v % 4 == 0 else (),
        )
    contributions[tree.root] = ValidationPayload(into_lt=2, values=(1,))
    return contributions


def _histograms(tree: RoutingTree, r: int) -> dict[int, HistogramPayload]:
    """Shared one-hot histograms next to fresh multi-bucket ones."""
    one_hot = one_hot_histograms(6, compressed=bool(r % 2))
    contributions = {}
    for v in tree.sensor_nodes:
        if (v + r) % 6 == 0:
            continue
        if v % 5 == 0:
            counts = tuple((v + i * r) % 3 for i in range(6))
            if any(counts):
                contributions[v] = HistogramPayload(counts, compressed=bool(r % 2))
            continue
        contributions[v] = one_hot[(v + r) % 6]
    contributions[tree.root] = one_hot[0]
    return contributions


def _bucket_deltas(tree: RoutingTree, r: int) -> dict[int, BucketDeltaPayload]:
    """Moves between buckets and regions, zero-delta leaf entries."""
    contributions = {}
    for v in tree.sensor_nodes:
        if (v + r) % 4 == 0:
            continue
        old, new = (v + r) % 5, (v * 3 + r) % 5
        entries = {(0, old): -1, (0, new): 1} if old != new else {(0, old): 0}
        if v % 3 == 0:
            entries[(-1, v % 2)] = 1 - 2 * (r % 2)
        contributions[v] = BucketDeltaPayload(deltas=tuple(sorted(entries.items())))
    contributions[tree.root] = BucketDeltaPayload(deltas=(((0, 1), 1),))
    return contributions


#: The paper algorithms' payload classes (each with an array fold), as
#: fold variants of the decide x fold matrix; every builder also keys a
#: contribution by the root.
PAPER_PAYLOADS = {
    "value-set": _value_sets,
    "validation": _validation,
    "histogram": _histograms,
    "bucket-delta": _bucket_deltas,
}


class TestDecideFoldCombinations:
    """Each decide variant x each fold variant, bit for bit vs the reference.

    The tree carries virtual leaves, and the faulty variants take internal
    vertices down mid-run so some hops face a down parent.  Compared:
    ledger bytes, ``phase_bits``, ``collection_log``, answers, the ARQ
    counters, the link-quality table (values and insertion order) and the
    plan's final generator state.
    """

    ROUNDS = 8

    @staticmethod
    def contributions(fold: str, tree: RoutingTree, r: int):
        if fold == "object":
            return sized_contributions(tree, r)
        if fold in PAPER_PAYLOADS:
            return PAPER_PAYLOADS[fold](tree, r)
        if r % 2:
            # Counted intake: zero counts are empty and dropped.
            return {v: CountPayload((v + r) % 3) for v in tree.sensor_nodes}
        # Constant intake: uniform_leaf_values = 1, payloads never read.
        return {
            v: OneReading(v * 5 + r)
            for v in tree.sensor_nodes
            if (v + r) % 4 != 0
        }

    def run(self, core: str, decide: str, fold: str):
        tree = random_tree(60, seed=21)
        virtual = frozenset(
            v for v in tree.sensor_nodes if tree.is_leaf(v) and v % 3 == 0
        )
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        plan_kwargs, arq_factory, own_stats = DECIDE_AXIS[decide]
        if plan_kwargs is None:
            cls = ReferenceTreeNetwork if core == "object" else TreeNetwork
            net = cls(tree, ledger, virtual_vertices=virtual)
        else:
            kwargs = plan_kwargs()
            internal = [
                v for v in tree.sensor_nodes if tree.children[v]
            ]
            outages = (
                ScheduledOutages(
                    {1: ((internal[0], 2),), 3: ((internal[1], 1), (internal[2], 3))}
                )
                if kwargs.pop("outages", False)
                else None
            )
            plan = FaultPlan(
                outages=outages, rng=np.random.default_rng(4242), **kwargs
            )
            cls = (
                ReferenceFaultyTreeNetwork
                if core == "object"
                else FaultyTreeNetwork
            )
            net = cls(
                tree,
                ledger,
                plan=plan,
                arq=arq_factory(),
                virtual_vertices=virtual,
                link_stats=LinkQualityEstimator() if own_stats else None,
            )
        answers = []
        for r in range(self.ROUNDS):
            if plan_kwargs is not None:
                net.begin_faults_round(r)
            ledger.begin_round()
            net.phase = ("validation", "refinement")[r % 2]
            answer = net.convergecast(self.contributions(fold, tree, r))
            answers.append(typed_fields(answer))
            net.broadcast(40)
            ledger.end_round()
        return net, answers

    @pytest.mark.parametrize("fold", ["object", "uniform", *PAPER_PAYLOADS])
    @pytest.mark.parametrize("decide", sorted(DECIDE_AXIS))
    def test_combination(self, decide, fold):
        net_o, ans_o = self.run("object", decide, fold)
        net_v, ans_v = self.run("vector", decide, fold)
        for name in TestChargeLogBulkRecording.LEDGER_ARRAYS:
            assert (
                getattr(net_o.ledger, name).tobytes()
                == getattr(net_v.ledger, name).tobytes()
            ), name
        assert_networks_identical(net_o, net_v)
        assert ans_o == ans_v
        if not isinstance(net_o, FaultyTreeNetwork):
            return
        TestFaultyEquivalence.assert_fault_counters_equal(net_o, net_v)
        assert list(net_o.link_stats._loss.items()) == list(
            net_v.link_stats._loss.items()
        )
        assert net_o.link_stats.observations == net_v.link_stats.observations
        if net_o.arq.per_link_budget:
            assert list(net_o.arq.estimator._loss.items()) == list(
                net_v.arq.estimator._loss.items()
            )
        assert states_equal(
            net_o.plan.rng.bit_generator.state,
            net_v.plan.rng.bit_generator.state,
        )
        if net_o.plan.outages is not None:
            # Some hop really faced a down parent and failed without a draw.
            assert net_o.lost_transmissions > 0


LOSS_AXIS = {
    "lossless": lambda: None,
    "iid-low": lambda: IndependentLoss(0.05),
    "iid-high": lambda: IndependentLoss(0.25),
    "gilbert-elliott": lambda: GilbertElliottLoss(0.2, 0.45, 0.03, 0.85),
}


class TestFaultyEquivalenceMatrix:
    """Exhaustive loss × ARQ budget × churn × payload-shape sweep.

    Every cell runs both cores under random churn *and* outages (so the
    plan's RNG is consulted between convergecasts too) and asserts the
    complete observable state matches bit for bit: ledgers, answers,
    collection logs, fault counters, the link-quality EWMA table — values
    *and* insertion order — and the fault plan's final generator state.
    The payload axis covers both vectorized faulty walks: ``uniform``
    takes the array-fold fast path, ``generic`` the batched object walk.
    """

    def run_cell(self, core, loss_factory, retries, kind, adaptive=False):
        tree = random_tree(50, seed=18)
        plan = FaultPlan(
            loss=loss_factory(),
            churn=RandomChurn(0.015),
            outages=RandomOutages(0.04, mean_downtime=2.0),
            rng=np.random.default_rng(777),
        )
        arq = (
            AdaptiveArqPolicy(max_retries=max(retries, 1))
            if adaptive
            else ArqPolicy(max_retries=retries)
        )
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        cls = ReferenceFaultyTreeNetwork if core == "object" else FaultyTreeNetwork
        net = cls(tree, ledger, plan=plan, arq=arq)
        answers = []
        for r in range(10):
            net.begin_faults_round(r)
            net.ledger.begin_round()
            if kind == "uniform":
                contributions = {
                    v: OneReading(v * 3 + r)
                    for v in tree.sensor_nodes
                    if (v + r) % 6 != 0
                }
            else:
                contributions = sized_contributions(tree, r)
            answers.append(net.convergecast(contributions))
            net.broadcast(24)
            net.ledger.end_round()
        return net, answers

    @staticmethod
    def assert_cells_identical(net_o, ans_o, net_v, ans_v, kind):
        assert_networks_identical(net_o, net_v)
        TestFaultyEquivalence.assert_fault_counters_equal(net_o, net_v)
        if kind == "uniform":
            assert [a and (a.value, a.count) for a in ans_o] == [
                a and (a.value, a.count) for a in ans_v
            ]
        else:
            assert [a and a.values for a in ans_o] == [
                a and a.values for a in ans_v
            ]
        # The EWMA link table must agree in values AND insertion order —
        # repair/rotation iterate it, so order is observable behaviour.
        assert list(net_o.link_stats._loss.items()) == list(
            net_v.link_stats._loss.items()
        )
        assert net_o.link_stats.observations == net_v.link_stats.observations
        # Identical final RNG state proves both cores consumed the exact
        # same draw sequence (churn/outage draws included).
        assert states_equal(
            net_o.plan.rng.bit_generator.state,
            net_v.plan.rng.bit_generator.state,
        )

    @pytest.mark.parametrize("kind", ["uniform", "generic"])
    @pytest.mark.parametrize("retries", [0, 2])
    @pytest.mark.parametrize("loss_name", sorted(LOSS_AXIS))
    def test_matrix_cell(self, loss_name, retries, kind):
        loss_factory = LOSS_AXIS[loss_name]
        net_o, ans_o = self.run_cell("object", loss_factory, retries, kind)
        net_v, ans_v = self.run_cell("vector", loss_factory, retries, kind)
        self.assert_cells_identical(net_o, ans_o, net_v, ans_v, kind)

    @pytest.mark.parametrize("kind", ["uniform", "generic"])
    @pytest.mark.parametrize("loss_name", ["iid-high", "gilbert-elliott"])
    def test_adaptive_arq_cell(self, loss_name, kind):
        """Adaptive ARQ: learned budgets must evolve identically per core."""
        loss_factory = LOSS_AXIS[loss_name]
        net_o, ans_o = self.run_cell(
            "object", loss_factory, retries=4, kind=kind, adaptive=True
        )
        net_v, ans_v = self.run_cell(
            "vector", loss_factory, retries=4, kind=kind, adaptive=True
        )
        self.assert_cells_identical(net_o, ans_o, net_v, ans_v, kind)
        # And the budgets the policy would hand out next round agree.
        tree = net_o.tree
        for vertex in list(tree.sensor_nodes)[:10]:
            parent = tree.parent[vertex]
            assert net_o.arq.attempts_for(vertex, parent) == net_v.arq.attempts_for(
                vertex, parent
            )

    @pytest.mark.parametrize("repair", [False, True])
    @pytest.mark.parametrize("rotate_every", [0, 4])
    def test_driver_rotation_repair_matrix(self, rotate_every, repair):
        """Rotation × repair through the full driver, core-pinned."""

        def run(core: str):
            rng = np.random.default_rng(23)
            n = 36
            positions = rng.uniform(0, 30, size=(n, 2))
            positions[0] = (15.0, 15.0)
            graph = build_physical_graph(positions, RADIO_RANGE)
            prng = np.random.default_rng(8)
            parents = [-1] + [int(prng.integers(0, v)) for v in range(1, n)]
            tree = tree_from_parents(0, parents, positions)
            vrng = np.random.default_rng(6)
            rounds = [vrng.integers(0, 100, size=n) for _ in range(10)]
            plan = FaultPlan(
                loss=IndependentLoss(0.12),
                churn=RandomChurn(0.02),
                outages=RandomOutages(0.05),
                rng=np.random.default_rng(555),
            )
            driver = FaultDriver(
                default_algorithms()["POS"],
                QuerySpec(r_min=0, r_max=99),
                tree,
                SequenceWorkload(rounds),
                plan,
                ArqPolicy(max_retries=2),
                graph=graph,
                repair=repair,
                radio_range=RADIO_RANGE,
                rotate_every=rotate_every,
                rotate_rng=np.random.default_rng(2),
            )
            if core == "object":
                use_reference(driver)
            reports = driver.run(len(rounds))
            return reports, driver

        reports_o, driver_o = run("object")
        reports_v, driver_v = run("vector")
        assert [r.answer for r in reports_o] == [r.answer for r in reports_v]
        assert [r.trustworthy for r in reports_o] == [
            r.trustworthy for r in reports_v
        ]
        assert [sorted(r.participating) for r in reports_o] == [
            sorted(r.participating) for r in reports_v
        ]
        assert_ledgers_identical(driver_o.ledger, driver_v.ledger)
        TestFaultyEquivalence.assert_fault_counters_equal(
            driver_o.net, driver_v.net
        )
        assert states_equal(
            driver_o.net.plan.rng.bit_generator.state,
            driver_v.net.plan.rng.bit_generator.state,
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        loss_rate=st.floats(min_value=0.0, max_value=0.3),
        retries=st.integers(min_value=0, max_value=3),
    )
    def test_fuzz_differential_invariant_both_cores(
        self, seed, loss_rate, retries
    ):
        """The oracle invariant holds on both cores for fuzzed fault cells,
        and the cores agree with each other round by round."""
        rng = np.random.default_rng(seed)
        n = 24
        positions = rng.uniform(0, 25, size=(n, 2))
        positions[0] = (12.5, 12.5)
        graph = build_physical_graph(positions, RADIO_RANGE)
        prng = np.random.default_rng(seed + 1)
        parents = [-1] + [int(prng.integers(0, v)) for v in range(1, n)]
        tree = tree_from_parents(0, parents, positions)
        vrng = np.random.default_rng(seed + 2)
        rounds = [vrng.integers(0, 64, size=n) for _ in range(6)]
        factories = {"POS": default_algorithms()["POS"]}
        spec = QuerySpec(r_min=0, r_max=63)

        def plan_factory():
            return FaultPlan(
                loss=IndependentLoss(loss_rate),
                churn=RandomChurn(0.01),
                rng=np.random.default_rng(seed + 3),
            )

        per_core = {
            core: assert_differential_invariant(
                factories,
                graph,
                tree,
                rounds,
                spec,
                plan_factory,
                retries=retries,
                radio_range=RADIO_RANGE,
                min_trustworthy=0,
                core=core,
            )["POS"]
            for core in ("object", "vector")
        }
        assert [r.answer for r in per_core["object"]] == [
            r.answer for r in per_core["vector"]
        ]
        assert [r.trustworthy for r in per_core["object"]] == [
            r.trustworthy for r in per_core["vector"]
        ]

    def test_root_failover_identical_across_cores(self):
        """A mid-run root kill under loss + ARQ: both cores elect the same
        successor, charge the same hand-over traffic, and stay in lockstep
        through the re-rooted tail of the run."""

        def run(core: str):
            rng = np.random.default_rng(31)
            n = 30
            positions = rng.uniform(0, 28, size=(n, 2))
            positions[0] = (14.0, 14.0)
            graph = build_physical_graph(positions, RADIO_RANGE)
            prng = np.random.default_rng(9)
            parents = [-1] + [int(prng.integers(0, v)) for v in range(1, n)]
            tree = tree_from_parents(0, parents, positions)
            vrng = np.random.default_rng(13)
            rounds = [vrng.integers(0, 100, size=n) for _ in range(10)]
            plan = FaultPlan(
                loss=IndependentLoss(0.08),
                churn=ScheduledChurn({4: (0,)}),
                outages=RandomOutages(0.05),
                rng=np.random.default_rng(77),
            )
            driver = FaultDriver(
                default_algorithms()["POS"],
                QuerySpec(r_min=0, r_max=99),
                tree,
                SequenceWorkload(rounds),
                plan,
                ArqPolicy(max_retries=2),
                graph=graph,
                repair=True,
                radio_range=RADIO_RANGE,
                failover_rng=np.random.default_rng(19),
            )
            if core == "object":
                use_reference(driver)
            reports = driver.run(len(rounds))
            return reports, driver

        reports_o, driver_o = run("object")
        reports_v, driver_v = run("vector")
        assert driver_o.failover.events == driver_v.failover.events
        assert driver_o.failover.count == 1
        assert driver_o.net.tree.root == driver_v.net.tree.root != 0
        assert [r.answer for r in reports_o] == [r.answer for r in reports_v]
        assert [r.trustworthy for r in reports_o] == [
            r.trustworthy for r in reports_v
        ]
        assert [sorted(r.participating) for r in reports_o] == [
            sorted(r.participating) for r in reports_v
        ]
        assert_ledgers_identical(driver_o.ledger, driver_v.ledger)
        TestFaultyEquivalence.assert_fault_counters_equal(
            driver_o.net, driver_v.net
        )
        assert states_equal(
            driver_o.net.plan.rng.bit_generator.state,
            driver_v.net.plan.rng.bit_generator.state,
        )


class TestCoreSelection:
    """Production runs one pipeline; the object walk lives in the tests."""

    @staticmethod
    def scalar_charges_forbidden(ledger: EnergyLedger) -> EnergyLedger:
        def refuse(*args, **kwargs):
            raise AssertionError("production charged the ledger per hop")

        ledger.charge_send = refuse
        ledger.charge_recv = refuse
        return ledger

    def run_primitives(self, net: TreeNetwork) -> None:
        tree = net.tree
        net.convergecast(sized_contributions(tree, 0))
        net.convergecast({v: CountPayload(1) for v in tree.sensor_nodes})
        net.broadcast(32)

    def test_default_is_vector(self):
        tree = random_tree(10)
        for cls in (TreeNetwork, FaultyTreeNetwork):
            ledger = EnergyLedger(
                num_vertices=tree.num_vertices,
                root=tree.root,
                model=EnergyModel(),
                radio_range=RADIO_RANGE,
            )
            net = cls(tree, self.scalar_charges_forbidden(ledger))
            # Every primitive charges through one ordered batch.
            self.run_primitives(net)
            assert net.exchanges == 3

    def test_env_override(self, monkeypatch):
        # The old core switch is gone: setting it selects nothing.
        monkeypatch.setenv("REPRO_SIM_CORE", "object")
        self.test_default_is_vector()

    def test_invalid_core_rejected(self):
        tree = random_tree(10)
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        for cls in (TreeNetwork, FaultyTreeNetwork):
            with pytest.raises(TypeError):
                cls(tree, ledger, core="vector")
        with pytest.raises(TypeError):
            FaultDriver(
                default_algorithms()["POS"],
                QuerySpec(r_min=0, r_max=99),
                tree,
                SequenceWorkload([np.zeros(tree.num_vertices, dtype=np.int64)]),
                FaultPlan(),
                core="vector",
            )

    def test_faulty_network_keeps_vector_broadcast(self):
        tree = random_tree(10)
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        net = FaultyTreeNetwork(
            tree,
            self.scalar_charges_forbidden(ledger),
            plan=FaultPlan(
                churn=ScheduledChurn({1: (3,)}),
                outages=ScheduledOutages({1: ((5, 2),)}),
            ),
        )
        assert net._down_mask() is None  # nobody down: the unpruned flood
        net.begin_faults_round(1)
        # The down mask mirrors the plan's view vertex by vertex.
        assert net._down_mask().tolist() == [
            net.plan.is_down(v) for v in range(tree.num_vertices)
        ]
        net.broadcast(24)


class TestSubtreeSums:
    """``TreeArrays.subtree_sums`` equals summing over each subtree."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_explicit_subtrees(self, seed):
        from repro.network.tree import tree_reparented
        from repro.sim.vectorized import TreeArrays

        rng = np.random.default_rng(seed)
        tree = random_tree(80, seed=seed)
        # A repaired tree: traversal orders rebuilt by the reparenting.
        vertex = int(rng.integers(1, 80))
        below = set(tree.subtree_vertices(vertex))
        new_parent = next(v for v in range(80) if v not in below)
        for t in (tree, tree_reparented(tree, vertex, new_parent, 1.0)):
            values = rng.integers(0, 5, size=80)
            sums = TreeArrays(t).subtree_sums(values)
            expected = [
                int(values[list(t.subtree_vertices(v))].sum())
                for v in range(80)
            ]
            assert sums.tolist() == expected
            holds = TreeArrays(t).subtree_sums(values == 0)
            assert (holds > 0).tolist() == [
                bool((values[list(t.subtree_vertices(v))] == 0).any())
                for v in range(80)
            ]


def test_add_at_accumulates_in_array_order():
    """The ordering contract ``EnergyLedger.charge_batch`` relies on.

    ``np.add.at`` applies repeated indices sequentially, so interleaved
    send/recv joules reproduce the scalar ``+=`` sequence bit for bit.
    This pins the assumption against future numpy behaviour changes.
    """
    indices = np.array([0, 0, 0, 0, 0], dtype=np.int64)
    addends = np.array([1e-16, 1.0, 1.0, 1e-16, -1.0], dtype=np.float64)
    batched = np.zeros(1)
    np.add.at(batched, indices, addends)
    sequential = 0.0
    for value in addends:
        sequential += value
    assert batched[0] == sequential


class TestChargeLogBulkRecording:
    """``charge_send_many``/``charge_recv_many`` replay the scalar calls."""

    LEDGER_ARRAYS = (
        "energy",
        "_round_energy",
        "messages_sent",
        "messages_received",
        "bits_sent",
        "bits_received",
        "values_sent",
    )

    @staticmethod
    def script(rng, num_vertices):
        """A random mix of scalar and bulk charges with repeated vertices."""
        from repro.radio.message import MessageCost, ack_cost, message_bits

        costs = (
            ack_cost(),
            message_bits(96),
            message_bits(2000),
            MessageCost(messages=0, total_bits=16, payload_bits=16),
        )
        steps = []
        for _ in range(60):
            cost = costs[int(rng.integers(len(costs)))]
            kind = int(rng.integers(4))
            size = int(rng.integers(0, 6))
            # Few distinct vertices, so every vertex is charged many times
            # in interleaved scalar and bulk runs.
            vertices = rng.integers(0, num_vertices, size=size).tolist()
            distances = rng.uniform(1.0, 40.0, size=size).tolist()
            if kind == 0:
                steps.append(("send_many", vertices, cost, distances))
            elif kind == 1:
                steps.append(("recv_many", vertices, cost, None))
            elif kind == 2:
                steps.append(
                    ("send", vertices[:1] or [0], cost, distances[:1] or [5.0])
                )
            else:
                steps.append(("recv", vertices[:1] or [0], cost, None))
        return steps

    @staticmethod
    def replay_scalar(ledger, steps):
        for kind, vertices, cost, distances in steps:
            if kind.startswith("send"):
                for vertex, distance in zip(vertices, distances):
                    ledger.charge_send(vertex, cost, link_distance=distance)
            else:
                for vertex in vertices:
                    ledger.charge_recv(vertex, cost)

    @staticmethod
    def replay_log(log, steps):
        for kind, vertices, cost, distances in steps:
            if kind == "send_many":
                log.charge_send_many(
                    np.array(vertices, dtype=np.int64), cost, np.array(distances)
                )
            elif kind == "recv_many":
                log.charge_recv_many(vertices, cost)
            elif kind == "send":
                log.charge_send(vertices[0], cost, link_distance=distances[0])
            else:
                log.charge_recv(vertices[0], cost)

    @pytest.mark.parametrize("per_link", [False, True])
    @pytest.mark.parametrize("round_open", [True, False])
    def test_bulk_flush_matches_scalar_sequence(self, per_link, round_open):
        from repro.sim.vectorized import ChargeLog

        rng = np.random.default_rng(17 + per_link + 2 * round_open)
        steps = self.script(rng, num_vertices=5)
        model = EnergyModel(per_link_distance=per_link)
        scalar = EnergyLedger(6, 0, model, RADIO_RANGE)
        batched = EnergyLedger(6, 0, model, RADIO_RANGE)
        if round_open:
            scalar.begin_round()
            batched.begin_round()
        self.replay_scalar(scalar, steps)
        log = ChargeLog(batched)
        self.replay_log(log, steps)
        assert len(log) == sum(len(step[1]) for step in steps)
        log.flush()
        assert len(log) == 0
        for name in self.LEDGER_ARRAYS:
            expected = getattr(scalar, name).tobytes()
            assert getattr(batched, name).tobytes() == expected, name
        log.flush()  # an empty flush changes nothing
        assert scalar.energy.tobytes() == batched.energy.tobytes()
