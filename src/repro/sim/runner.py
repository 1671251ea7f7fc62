"""Round-driven simulation of one algorithm over one deployment.

The runner runs the one round loop, :class:`~repro.faults.experiment.
FaultDriver`, on an empty fault plan, turns its round reports into a
:class:`RunResult` and (optionally) asserts every answer against the
centralized oracle — all algorithms in this package are exact, so any
deviation is an implementation bug and fails fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ProtocolError
from repro.network.tree import RoutingTree
from repro.radio.energy import EnergyModel
from repro.radio.ledger import TrafficCounters
from repro.types import RoundStats

if TYPE_CHECKING:  # imported lazily to avoid a core <-> sim import cycle
    from repro.core.base import ContinuousQuantileAlgorithm

#: Maps a round index to per-vertex measurements (root entry ignored).
ValuesProvider = Callable[[int], np.ndarray]


@dataclass
class RunResult:
    """Everything measured over one simulation run."""

    algorithm: str
    rounds: list[RoundStats] = field(default_factory=list)
    max_mean_round_energy_j: float = 0.0
    lifetime_rounds: float = float("inf")
    totals: TrafficCounters | None = None
    #: On-air bits attributed to each protocol phase over the whole run
    #: (initialization / validation / refinement / filter / collection).
    phase_bits: dict[str, int] = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        """Number of completed rounds, initialization included."""
        return len(self.rounds)

    @property
    def total_refinements(self) -> int:
        """Refinement exchanges summed over all rounds."""
        return sum(record.outcome.refinements for record in self.rounds)

    @property
    def quantile_series(self) -> list[int]:
        """The reported quantile of every round."""
        return [record.outcome.quantile for record in self.rounds]

    @property
    def all_exact(self) -> bool:
        """True when every round matched the centralized oracle."""
        return all(record.exact for record in self.rounds)

    @property
    def mean_rank_error(self) -> float:
        """Mean per-round rank error (0 for exact algorithms)."""
        return sum(r.rank_error for r in self.rounds) / len(self.rounds)

    @property
    def max_rank_error(self) -> int:
        """Worst per-round rank error over the run."""
        return max(r.rank_error for r in self.rounds)


class SimulationRunner:
    """Drives a continuous quantile algorithm over a fixed routing tree.

    Args:
        tree: the deployment's routing tree.
        radio_range: nominal radio range for the energy model [m].
        energy_model: radio cost parameters.
        check: assert each round's answer against the oracle (default on;
            benchmarks may disable it to measure pure protocol cost).
    """

    def __init__(
        self,
        tree: RoutingTree,
        radio_range: float,
        energy_model: EnergyModel | None = None,
        check: bool = True,
    ) -> None:
        self.tree = tree
        self.radio_range = radio_range
        self.energy_model = energy_model or EnergyModel()
        self.check = check

    def run(
        self,
        algorithm: "ContinuousQuantileAlgorithm",
        values_provider: ValuesProvider,
        num_rounds: int,
    ) -> RunResult:
        """Execute ``num_rounds`` rounds (round 0 is the initialization)."""
        return run_fault_free(
            algorithm, self.tree, values_provider, num_rounds, self.check,
            radio_range=self.radio_range, energy_model=self.energy_model,
        )


def run_fault_free(
    algorithm: "ContinuousQuantileAlgorithm",
    tree: RoutingTree,
    values_provider: ValuesProvider,
    num_rounds: int,
    check: bool,
    **driver_kwargs,
) -> RunResult:
    """Run ``algorithm`` itself on a ``FaultDriver`` with an empty plan.

    ``values_provider`` is read once per round; ``driver_kwargs`` go to the
    driver.  With ``check``, an exact algorithm's answer that misses the
    oracle raises :class:`~repro.errors.ProtocolError` in its round.
    """
    from repro.faults.experiment import FaultDriver
    from repro.faults.plan import FaultPlan

    if num_rounds < 1:
        raise ProtocolError(f"num_rounds must be >= 1, got {num_rounds}")
    driver = FaultDriver(
        lambda spec: algorithm,
        algorithm.spec,
        tree,
        SimpleNamespace(values=values_provider),
        FaultPlan(),
        repair=False,
        **driver_kwargs,
    )
    rounds = []
    for round_index in range(num_rounds):
        stats = driver.step(round_index).stats
        if check and algorithm.exact and stats.outcome.quantile != stats.true_quantile:
            raise ProtocolError(
                f"{algorithm.name} round {round_index}: computed "
                f"{stats.outcome.quantile} but the exact quantile is "
                f"{stats.true_quantile}"
            )
        rounds.append(stats)
    ledger = driver.ledger
    return RunResult(
        algorithm=algorithm.name,
        rounds=rounds,
        max_mean_round_energy_j=ledger.max_mean_round_energy(),
        lifetime_rounds=ledger.steady_state_lifetime(),
        totals=ledger.totals(),
        phase_bits=dict(driver.net.phase_bits),
    )
