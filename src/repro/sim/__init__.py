"""Round-based WSN simulation engine."""

from repro.sim.engine import Payload, TreeNetwork, UniformPayload
from repro.sim.oracle import exact_quantile, quantile_rank
from repro.sim.runner import RunResult, SimulationRunner

__all__ = [
    "Payload",
    "RunResult",
    "SimulationRunner",
    "TreeNetwork",
    "UniformPayload",
    "exact_quantile",
    "quantile_rank",
]
