"""The benchmark's four workloads, each a closed loop of rounds.

One caller steps the rounds back to back; the next round starts when the
previous one (and, on ``serve-dashboard``, the client's read batch) has
returned.  Every random draw comes from the run's ``--seed``: the program
only receives the generated graph, tree, measurement workload, fault plan
and query mix.

A workload is built by :meth:`Workload.setup` (timed as set-up) and run by
:meth:`Workload.run`, which times each round and then, outside the timed
region, checks every answer against the centralized oracle in
``repro.sim.oracle``.  The returned :class:`Rep` carries the round
latencies and a *fingerprint*: every simulated figure and program counter
of the repetition.  Simulated figures do not depend on host speed, so two
repetitions with one seed must produce identical fingerprints.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.constants import AREA_SIDE_M, DEFAULT_RADIO_RANGE_M
from repro.datasets.synthetic import SyntheticWorkload
from repro.errors import ProtocolError
from repro.experiments.config import PAPER_ALGORITHMS
from repro.faults.experiment import FaultDriver
from repro.faults.network import ArqPolicy
from repro.faults.plan import (
    FaultPlan,
    IndependentLoss,
    RandomOutages,
    ScheduledChurn,
)
from repro.network.geometry import random_positions
from repro.network.routing import build_routing_tree
from repro.network.topology import build_physical_graph
from repro.serving import (
    PRIMARY_LABEL,
    PRIMARY_TRACK,
    GroupByQuery,
    MultiQueryRunner,
    PhiQuery,
    QueryRegistry,
    RangeQuery,
    phi_label,
)
from repro.sim.oracle import exact_quantile, quantile_rank, rank_error
from repro.sim.runner import SimulationRunner
from repro.types import QuerySpec

#: Host time is this process's CPU time.  On a shared virtual machine the
#: wall clock also counts the time the process waits for a core, which
#: moved identical repetitions by up to a third; CPU time did not.
clock = time.process_time

#: The measurement source, captured before any tracing wrapper is
#: installed: the oracle side reads values through it, so checking adds
#: nothing to the ``datasets`` layer's traced time.
true_values = SyntheticWorkload.values


#: CPU seconds :func:`calibration_loop` takes at the reference speed.
CALIBRATION_REFERENCE_S = 0.035
#: Rounds between two calibrations on the round-stepped workloads.
BLOCK = 5


def calibration_loop() -> float:
    """CPU seconds of a fixed mix of interpreter and numpy work."""
    start = clock()
    total = 0
    for i in range(400_000):
        total += i * i
    values = np.arange(100_000, dtype=float)
    for _ in range(20):
        values = np.sort(values[::-1])
    return clock() - start


class Pacer:
    """Host speed, sampled by :func:`calibration_loop` between blocks of work.

    The shared machine this benchmark was tuned on ran the same work up to
    a third slower for seconds at a time.  CPU time measured between two
    calibrations is scaled by how much slower than the reference the
    calibrations ran; the program's own speed is left to show.
    """

    def __init__(self) -> None:
        self.marks: list[float] = []

    def mark(self) -> None:
        self.marks.append(calibration_loop())

    def restart(self) -> None:
        """Keep only the last calibration: it opens the next block."""
        self.marks = self.marks[-1:]

    def scale(self, block: int) -> float:
        """Factor from block ``block``'s CPU time to reference-speed time.

        Block ``block`` ran between calibrations ``block`` and ``block + 1``.
        """
        around = self.marks[block:block + 2] or self.marks[-1:]
        return CALIBRATION_REFERENCE_S / statistics.fmean(around)


@dataclass
class Hooks:
    """What tracing changes in a run: algorithm factories and round ids."""

    factory: Callable = lambda factory: factory
    mark_round: Callable[[int], None] = lambda round_index: None
    pacer: Pacer = field(default_factory=Pacer)


@dataclass
class Rep:
    """One repetition of a workload's fixed round sequence."""

    #: Host seconds per timed round, scaled to the reference speed.
    latencies: list[float] = field(default_factory=list)
    #: The same rounds' host seconds before scaling.
    raw_seconds: float = 0.0
    #: Operations (rounds and reads) attempted and failed.
    attempted: int = 0
    failed: int = 0
    #: Answers checked against the oracle, and how many met their contract.
    checked: int = 0
    ok: int = 0
    #: Host seconds spent in history reads, and how many were issued.
    read_seconds: float = 0.0
    reads: int = 0
    #: Simulated figures and program counters; identical for one seed.
    fingerprint: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


@dataclass
class Deployment:
    graph: object
    tree: object
    workload: SyntheticWorkload
    spec: QuerySpec


def deploy(rng: np.random.Generator, num_nodes: int) -> Deployment:
    """Uniform deployment with the sink at the field's centre.

    Positions are resampled until the radio graph is connected.  Placing
    the sink centrally keeps tree depth, and with it per-round cost, from
    swinging with where a random sink happened to land.
    """
    for _ in range(200):
        positions = random_positions(num_nodes + 1, rng)
        centre = int(np.argmin(((positions - AREA_SIDE_M / 2) ** 2).sum(axis=1)))
        positions[[0, centre]] = positions[[centre, 0]]
        graph = build_physical_graph(positions, DEFAULT_RADIO_RANGE_M)
        if graph.is_connected():
            tree = build_routing_tree(graph, root=0)
            workload = SyntheticWorkload(graph.positions, rng)
            spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
            return Deployment(graph, tree, workload, spec)
    raise RuntimeError(f"no connected deployment of {num_nodes} nodes")


def check_answer(algorithm, answer, values, members, phi) -> bool:
    """The oracle contract: exact answers equal it, others within eps*n."""
    population = values[list(members)]
    k = quantile_rank(len(population), phi)
    if algorithm.exact:
        return answer == exact_quantile(population, k)
    return rank_error(population, int(answer), k) <= algorithm.eps * len(population)


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def ledger_totals(ledgers) -> tuple[int, int]:
    totals = [ledger.totals() for ledger in ledgers]
    return (
        sum(t.messages_sent for t in totals),
        sum(t.bits_sent for t in totals),
    )


class Workload:
    name = ""
    #: Distinct part of every random draw of this workload.
    tag = 0
    #: Rounds in one repetition.
    rounds = 0
    #: Distinct deployments (and fault draws) a run cycles through, so
    #: one unlucky deployment cannot move a run's figures on its own.
    deployments = 1

    def setup(self, key: tuple[int, int], hooks: Hooks):
        """Build deployment number ``key[1]`` of seed ``key[0]``."""
        raise NotImplementedError

    def run(self, state, hooks: Hooks) -> Rep:
        raise NotImplementedError


# -- paper-clean --------------------------------------------------------------


class PaperClean(Workload):
    """The paper's Section 5 sweep: six algorithms, loss-free radio."""

    name = "paper-clean"
    tag = 1
    rounds = 40
    deployments = 4
    num_nodes = 2000

    def setup(self, key, hooks):
        deployment = deploy(np.random.default_rng((*key, self.tag)), self.num_nodes)
        runner = SimulationRunner(
            deployment.tree, DEFAULT_RADIO_RANGE_M, check=True
        )
        return deployment, runner

    def run(self, state, hooks):
        deployment, runner = state
        rep = Rep()
        rounds = self.rounds
        latencies = np.zeros(rounds)
        completed = rounds
        energy = hotspot = 0.0
        ledgers = []
        answers = []
        for block, (name, factory) in enumerate(PAPER_ALGORITHMS.items()):
            algorithm = hooks.factory(factory)(deployment.spec)
            stamps: list[float] = []

            def provider(round_index, stamps=stamps):
                hooks.mark_round(round_index)
                stamps.append(clock())
                return deployment.workload.values(round_index)

            try:
                result = runner.run(algorithm, provider, rounds)
            except ProtocolError as error:
                result = None
                rep.fail(f"{name}: {error}")
            stamps.append(clock())
            # Each algorithm's run is one block between calibrations.
            hooks.pacer.mark()
            if result is None:
                completed = min(completed, len(stamps) - 2)
                continue
            rep.raw_seconds += stamps[-1] - stamps[0]
            latencies += np.diff(stamps) * hooks.pacer.scale(block)
            energy += sum(r.total_energy_j for r in result.rounds)
            hotspot += result.max_mean_round_energy_j
            ledgers.append(result.totals)
            answers.append(tuple(result.quantile_series))
            sensors = list(deployment.tree.sensor_nodes)
            for record in result.rounds:
                values = true_values(deployment.workload, record.round_index)
                rep.checked += 1
                if check_answer(
                    algorithm, record.outcome.quantile, values, sensors,
                    deployment.spec.phi,
                ):
                    rep.ok += 1
                else:
                    rep.fail(f"{name} round {record.round_index}: wrong answer")
        rep.attempted = rounds
        rep.latencies = list(latencies[:completed])
        algorithms = len(PAPER_ALGORITHMS)
        rep.fingerprint = {
            "energy_mj_per_round": energy / rounds * 1e3,
            "hotspot_mj_per_round": hotspot / algorithms * 1e3,
            "trusted": rounds * algorithms,
            "reports": rounds * algorithms,
            "messages": sum(t.messages_sent for t in ledgers),
            "bits": sum(t.bits_sent for t in ledgers),
            "answers": digest(answers),
            "checked": rep.checked,
            "ok": rep.ok,
        }
        return rep


# -- fault workloads ------------------------------------------------------------


class FaultWorkload(Workload):
    """Fault drivers stepped in lockstep, one round of each per round."""

    num_nodes = 2000

    def drivers(self, key, deployment, hooks) -> list[FaultDriver]:
        raise NotImplementedError

    def setup(self, key, hooks):
        deployment = deploy(np.random.default_rng((*key, self.tag)), self.num_nodes)
        return deployment, self.drivers(key, deployment, hooks)

    def run(self, state, hooks):
        deployment, drivers = state
        rep = Rep()
        reports = []
        raw = []
        for round_index in range(self.rounds):
            if round_index and round_index % BLOCK == 0:
                hooks.pacer.mark()
            hooks.mark_round(round_index)
            start = clock()
            try:
                step = [driver.step(round_index) for driver in drivers]
            except Exception as error:  # a round that raised is a failed op
                rep.attempted += 1
                rep.fail(f"round {round_index}: {type(error).__name__}: {error}")
                break
            raw.append(clock() - start)
            rep.attempted += 1
            values = true_values(deployment.workload, round_index)
            round_ok = True
            for driver, report in zip(drivers, step):
                reports.append(report)
                if report is None or not report.trustworthy:
                    continue
                rep.checked += 1
                if check_answer(
                    driver.algorithm, report.answer, values,
                    report.participating, deployment.spec.phi,
                ):
                    rep.ok += 1
                else:
                    round_ok = False
            if not round_ok:
                rep.fail(f"round {round_index}: trustworthy answer off the oracle")
        hooks.pacer.mark()
        rep.raw_seconds = sum(raw)
        rep.latencies = [
            latency * hooks.pacer.scale(index // BLOCK)
            for index, latency in enumerate(raw)
        ]
        rep.fingerprint = self.fingerprint(drivers, reports, rep)
        return rep

    def fingerprint(self, drivers, reports, rep) -> dict:
        nets = [driver.net for driver in drivers]
        records = [
            record
            for net in nets
            for record in net.collection_log
            if record.expected > 0
        ]
        retransmissions = sum(net.retransmissions for net in nets)
        lost = sum(net.lost_transmissions for net in nets)
        # With ARQ on, every data attempt is either lost or acknowledged.
        attempts = lost + sum(net.acks_sent for net in nets)
        repairs = [d.repair.stats for d in drivers if d.repair is not None]
        messages, bits = ledger_totals(d.ledger for d in drivers)
        live = [r for r in reports if r is not None]
        return {
            "energy_mj_per_round": sum(
                float(d.ledger.energy.sum()) for d in drivers
            ) / self.rounds * 1e3,
            "hotspot_mj_per_round": float(
                np.mean([d.ledger.max_mean_round_energy() for d in drivers])
            ) * 1e3,
            "trusted": sum(r.trustworthy for r in live),
            "reports": len(live),
            "messages": messages,
            "bits": bits,
            "retransmissions": retransmissions,
            "lost": lost,
            "data_hops": attempts - retransmissions,
            "delivered": sum(len(r.delivered) for r in records),
            "expected": sum(r.expected for r in records),
            "reattached": sum(s.reattach_count for s in repairs),
            "detached": sum(s.detach_count for s in repairs),
            "parked": sum(s.parked_rounds for s in repairs),
            "fallbacks": sum(s.fallback_count for s in repairs),
            "failovers": sum(d.failover.count for d in drivers),
            "rotations": sum(d.rotations for d in drivers),
            "reinits": sum(d.reinits for d in drivers),
            "protocol_failures": sum(d.failures for d in drivers),
            "watchdog_triggers": sum(d.watchdog.triggered for d in drivers),
            "answers": digest([(r.answer, r.trustworthy) for r in live]),
            "checked": rep.checked,
            "ok": rep.ok,
        }


class FaultLoss(FaultWorkload):
    """Six paper algorithms under 5% i.i.d. loss, ARQ 2, repair on."""

    name = "fault-loss"
    tag = 2
    rounds = 25
    deployments = 4

    def drivers(self, key, deployment, hooks):
        return [
            FaultDriver(
                hooks.factory(factory),
                deployment.spec,
                deployment.tree,
                deployment.workload,
                FaultPlan(
                    loss=IndependentLoss(0.05),
                    rng=np.random.default_rng((*key, self.tag, index)),
                ),
                ArqPolicy(max_retries=2),
                graph=deployment.graph,
                repair=True,
                radio_range=DEFAULT_RADIO_RANGE_M,
            )
            for index, factory in enumerate(PAPER_ALGORITHMS.values())
        ]


class FaultChurn(FaultWorkload):
    """One IQ driver under loss, transient outages, rotation and a root kill."""

    name = "fault-churn"
    tag = 3
    rounds = 25
    deployments = 5

    def drivers(self, key, deployment, hooks):
        plan = FaultPlan(
            loss=IndependentLoss(0.05),
            churn=ScheduledChurn({self.rounds // 2: (deployment.tree.root,)}),
            outages=RandomOutages(0.02, mean_downtime=3.0),
            rng=np.random.default_rng((*key, self.tag, 0)),
        )
        return [
            FaultDriver(
                hooks.factory(PAPER_ALGORITHMS["IQ"]),
                deployment.spec,
                deployment.tree,
                deployment.workload,
                plan,
                ArqPolicy(max_retries=2),
                graph=deployment.graph,
                repair=True,
                radio_range=DEFAULT_RADIO_RANGE_M,
                rotate_every=10,
                rotate_rng=np.random.default_rng((*key, self.tag, 1)),
                failover_rng=np.random.default_rng((*key, self.tag, 2)),
            )
        ]


# -- serve-dashboard ----------------------------------------------------------

#: Range-bucket edges of the dashboard's histogram queries.
HISTOGRAM_EDGES = (0, 200, 400, 600, 800)
DASHBOARD_EPS = 0.05
DASHBOARD_PHIS = (0.5, 0.9, 0.95, 0.99)
#: Phis a churned-in query picks from.
CHURN_PHIS = (0.25, 0.5, 0.75, 0.9)


def sector_of(vertex, position):
    """Region assigner for the group-by queries: 100 m x-stripes."""
    if position is None:
        return "s0"
    return f"s{int(position[0] // 100)}"


def dashboard_registry() -> QueryRegistry:
    """The 32-query dashboard mix of ``benchmarks/bench_multiquery.py``.

    24 phi subscriptions cycling p50/p90/p95/p99, four sector group-bys
    and four range buckets of a histogram, interleaved.  Kept here so the
    benchmark's workload cannot drift when the microbenchmarks change.
    """
    registry = QueryRegistry()
    group_index = range_index = phi_index = 0
    for slot in range(32):
        position = slot % 8
        if position == 5 and group_index < 4:
            registry.register(
                GroupByQuery(
                    f"sector{group_index}", assign=sector_of, eps=DASHBOARD_EPS
                )
            )
            group_index += 1
        elif position == 7 and range_index < 4:
            low = HISTOGRAM_EDGES[range_index]
            high = HISTOGRAM_EDGES[range_index + 1] - 1
            registry.register(
                RangeQuery(
                    f"bucket{range_index}", low=low, high=high, eps=DASHBOARD_EPS
                )
            )
            range_index += 1
        else:
            registry.register(
                PhiQuery(
                    f"phi{slot}",
                    phis=(DASHBOARD_PHIS[phi_index % 4],),
                    eps=DASHBOARD_EPS,
                )
            )
            phi_index += 1
    return registry


class ServeDashboard(Workload):
    """32 continuous queries behind one gate, query churn, history reads."""

    name = "serve-dashboard"
    tag = 4
    rounds = 20
    deployments = 6
    num_nodes = 1000
    churn_every = 5
    #: Times the client repeats its read pass per round (later passes hit
    #: the read cache, which absorption clears every round).
    read_passes = 2

    def setup(self, key, hooks):
        deployment = deploy(np.random.default_rng((*key, self.tag)), self.num_nodes)
        registry = dashboard_registry()
        runner = MultiQueryRunner(
            registry,
            deployment.spec,
            deployment.tree,
            deployment.workload,
            FaultPlan(),
            graph=deployment.graph,
        )
        churn_rng = np.random.default_rng((*key, self.tag, 1))
        return deployment, runner, churn_rng

    def run(self, state, hooks):
        deployment, runner, churn_rng = state
        rep = Rep()
        sensors = list(deployment.tree.sensor_nodes)
        positions = deployment.graph.positions
        regions: dict[str, list[int]] = {}
        for vertex in sensors:
            regions.setdefault(sector_of(vertex, positions[vertex]), []).append(vertex)
        queries = {q.name: q for q in runner.registry.queries}
        #: (query, label) -> [(round, value)] as the history absorbed them.
        absorbed: dict[tuple[str, str], list[tuple[int, float]]] = {}
        read_log = []
        raw, raw_reads = [], []
        for round_index in range(self.rounds):
            if round_index and round_index % BLOCK == 0:
                hooks.pacer.mark()
            hooks.mark_round(round_index)
            churned = None
            if round_index and round_index % self.churn_every == 0:
                names = [q.name for q in runner.registry.queries]
                victim = names[int(churn_rng.integers(len(names)))]
                phi = float(CHURN_PHIS[int(churn_rng.integers(len(CHURN_PHIS)))])
                churned = (
                    victim,
                    PhiQuery(f"churn{round_index}", phis=(phi,), eps=DASHBOARD_EPS),
                )
            batch = self.read_batch(absorbed, round_index)
            start = clock()
            try:
                if churned is not None:
                    runner.deregister(churned[0])
                    runner.register(churned[1])
                served = runner.step(round_index)
                step_done = clock()
                reads = [self.read(runner.history, *op) for op in batch]
            except Exception as error:  # a round that raised is a failed op
                rep.attempted += 1
                rep.fail(f"round {round_index}: {type(error).__name__}: {error}")
                break
            end = clock()
            raw.append(end - start)
            raw_reads.append(end - step_done)
            rep.reads += len(reads)
            rep.attempted += 1 + len(reads)
            if churned is not None:
                queries[churned[1].name] = churned[1]
            self.check_round(rep, runner, served, deployment, queries, regions)
            self.record(absorbed, served)
            for op, read in zip(batch, reads):
                expected = self.reference(absorbed, *op)
                if not np.isclose(read.value, expected, rtol=1e-9, atol=0.0):
                    rep.fail(f"round {round_index}: read {op} gave {read.value}")
            read_log.append(tuple(read.value for read in reads))
        hooks.pacer.mark()
        scales = [hooks.pacer.scale(index // BLOCK) for index in range(len(raw))]
        rep.raw_seconds = sum(raw)
        rep.latencies = [latency * scale for latency, scale in zip(raw, scales)]
        rep.read_seconds = sum(t * scale for t, scale in zip(raw_reads, scales))
        history = runner.history
        stats = history.cache_stats()
        driver = runner.driver
        messages, bits = ledger_totals([driver.ledger])
        reports = [served.report for served in runner.rounds]
        rep.fingerprint = {
            "energy_mj_per_round": float(driver.ledger.energy.sum())
            / self.rounds * 1e3,
            "hotspot_mj_per_round": driver.ledger.max_mean_round_energy() * 1e3,
            "trusted": sum(r.trustworthy for r in reports),
            "reports": len(reports),
            "messages": messages,
            "bits": bits,
            "refreshes": driver.algorithm.refreshes,
            "cache_hits": sum(s.hits for s in stats),
            "cache_misses": sum(s.misses for s in stats),
            "reinits": driver.reinits,
            "protocol_failures": driver.failures,
            "answers": digest(
                [
                    (a.query, a.trustworthy, tuple(i.value for i in a.items))
                    for served in runner.rounds
                    for a in served.answers
                ]
            ),
            "reads": digest(read_log),
            "checked": rep.checked,
            "ok": rep.ok,
        }
        return rep

    # The read client ----------------------------------------------------------

    def read_batch(self, absorbed, round_index):
        """The client's reads for this round: queries that already have data."""
        one_pass = []
        labels: dict[str, str] = {}
        for query, label in absorbed:
            labels.setdefault(query, label)
        for query, label in labels.items():
            first = absorbed[(query, label)][0][0]
            one_pass += [
                ("latest", query, label),
                ("window", query, label, 8, 0.5),
                ("window", query, label, 32, 0.9),
                ("decayed", query, label, 4.0),
                ("at_round", query, label, max(first, round_index - 1)),
                ("at_round", query, label, max(first, round_index - 10)),
            ]
        return one_pass * self.read_passes

    @staticmethod
    def read(history, op, query, label, *args):
        if op == "latest":
            return history.latest(query, label)
        if op == "window":
            n, phi = args
            return history.window(query, n, label, phi=phi)
        if op == "decayed":
            return history.decayed(query, args[0], label)
        return history.at_round(query, args[0], label)

    @staticmethod
    def reference(absorbed, op, query, label, *args) -> float:
        """What a read must return, from the values the history absorbed."""
        series = absorbed[(query, label)]
        if op == "latest":
            return series[-1][1]
        if op == "window":
            n, phi = args
            return float(np.quantile([v for _, v in series[-n:]], phi))
        if op == "decayed":
            rounds = np.array([r for r, _ in series], dtype=float)
            values = np.array([v for _, v in series])
            weights = np.exp2(-(rounds[-1] - rounds) / args[0])
            return float(np.sum(weights * values) / np.sum(weights))
        return [v for r, v in series if r <= args[0]][-1]

    @staticmethod
    def record(absorbed, served) -> None:
        """Mirror what the history store absorbs from one served round."""
        report = served.report
        if not report.degraded and report.answer is not None:
            absorbed.setdefault((PRIMARY_TRACK, PRIMARY_LABEL), []).append(
                (report.round_index, float(report.answer))
            )
        for answer in served.answers:
            if answer.reason == "degraded":
                continue
            for item in answer.items:
                if item.value is not None:
                    absorbed.setdefault((answer.query, item.label), []).append(
                        (report.round_index, float(item.value))
                    )

    @staticmethod
    def check_round(rep, runner, served, deployment, queries, regions):
        """Trustworthy answers against the oracle over the live population."""
        report = served.report
        if not report.trustworthy:
            return
        values = true_values(deployment.workload, report.round_index)
        participating = list(report.participating)
        live = set(participating)
        bad = []
        rep.checked += 1
        if check_answer(
            runner.driver.algorithm, report.answer, values, participating,
            deployment.spec.phi,
        ):
            rep.ok += 1
        else:
            bad.append("primary")
        for answer in served.answers:
            if not answer.trustworthy:
                continue
            query = queries[answer.query]
            for item in answer.items:
                if item.value is None:
                    continue
                rep.checked += 1
                if isinstance(query, RangeQuery):
                    scope = values[participating]
                    truth = float(
                        np.mean((scope >= query.low) & (scope <= query.high))
                    )
                    good = abs(item.value - truth) <= query.eps
                else:
                    members = participating
                    label = item.label
                    if isinstance(query, GroupByQuery):
                        region, label = label.split(":")
                        members = [v for v in regions[region] if v in live]
                    phi = next(p for p in query.phis if phi_label(p) == label)
                    scope = values[members]
                    k = quantile_rank(len(scope), phi)
                    error = rank_error(scope, int(item.value), k)
                    good = error <= query.eps * len(scope)
                if good:
                    rep.ok += 1
                else:
                    bad.append(f"{answer.query}/{item.label}")
        if bad:
            rep.fail(f"round {report.round_index}: off budget: {', '.join(bad[:3])}")


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperClean(), FaultLoss(), FaultChurn(), ServeDashboard())
}
