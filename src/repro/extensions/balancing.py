"""Hotspot load balancing by routing-tree rotation.

The paper's cost model "generally aims at reducing the sending energy of
hotspot nodes" (Section 4.1), and its lifetime metric dies with the first
exhausted battery.  On a fixed shortest-path tree, the same few vertices
near the root forward everything, round after round.  But a random
deployment usually admits *many* min-hop trees: every vertex with several
equal-depth neighbours can re-parent freely.

This extension periodically re-samples a randomized min-hop tree
(:func:`repro.network.routing.build_randomized_routing_tree`).  Crucially,
the continuous algorithms' state is *value-domain* (filters, counters,
bands — nothing refers to the tree), so rotation needs no protocol
re-initialization: nodes merely adopt a new parent, which their MAC layer
renegotiates locally.  The per-node battery drain spreads over all hotspot
candidates, and the first battery dies later.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ContinuousQuantileAlgorithm
from repro.errors import ConfigurationError
from repro.network.routing import build_randomized_routing_tree
from repro.network.topology import PhysicalGraph
from repro.radio.energy import EnergyModel
from repro.sim.runner import RunResult, ValuesProvider, run_fault_free


class RotatingTreeRunner:
    """A simulation runner that re-samples the routing tree periodically.

    It is the fault driver's rotation (``rotate_every``) on an empty
    plan, with uniform parent picks (``repair_metric="nearest"``).

    Args:
        graph: the physical deployment (fixed).
        radio_range: nominal radio range [m].
        rebuild_every: rounds between tree rotations (0 = never rotate,
            which reproduces the plain :class:`~repro.sim.SimulationRunner`).
        rng: randomness for the tie-broken parent choices.
        energy_model: radio cost parameters.
        check: oracle-verify every round.
    """

    def __init__(
        self,
        graph: PhysicalGraph,
        radio_range: float,
        rng: np.random.Generator,
        rebuild_every: int = 10,
        root: int = 0,
        energy_model: EnergyModel | None = None,
        check: bool = True,
    ) -> None:
        if rebuild_every < 0:
            raise ConfigurationError(
                f"rebuild_every must be >= 0, got {rebuild_every}"
            )
        self.graph = graph
        self.radio_range = radio_range
        self.rebuild_every = rebuild_every
        self.root = root
        self.rng = rng
        self.energy_model = energy_model or EnergyModel()
        self.check = check

    def run(
        self,
        algorithm: ContinuousQuantileAlgorithm,
        values_provider: ValuesProvider,
        num_rounds: int,
    ) -> RunResult:
        """Execute ``num_rounds`` rounds, rotating the tree on schedule."""
        tree = build_randomized_routing_tree(self.graph, self.rng, self.root)
        return run_fault_free(
            algorithm, tree, values_provider, num_rounds, self.check,
            graph=self.graph, radio_range=self.radio_range,
            energy_model=self.energy_model, repair_metric="nearest",
            rotate_every=self.rebuild_every, rotate_rng=self.rng,
        )
