"""Golden table for the rotating runner on a loss-free radio.

The six paper algorithms run on one seeded 150-node deployment while
:class:`~repro.extensions.balancing.RotatingTreeRunner` re-samples the
routing tree every 5 rounds.  Every figure the run produces is printed at
full float precision and diffed against ``tests/golden/rotation_clean.txt``:
the quantile series, per-round messages and traversals, ledger totals,
phase bits, hotspot energy and lifetime.

Regenerate (only when a change is meant to move these figures)::

    PYTHONPATH=src python tests/test_rotation_golden.py > tests/golden/rotation_clean.txt
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.datasets.synthetic import SyntheticWorkload
from repro.experiments.config import PAPER_ALGORITHMS
from repro.extensions.balancing import RotatingTreeRunner
from repro.network.topology import connected_random_graph
from repro.types import QuerySpec

GOLDEN = Path(__file__).parent / "golden" / "rotation_clean.txt"
NODES = 150
ROUNDS = 20
REBUILD_EVERY = 5
SEED = 2014


def rotation_table() -> str:
    rng = np.random.default_rng(SEED)
    graph = connected_random_graph(NODES + 1, 35.0, rng)
    workload = SyntheticWorkload(graph.positions, rng, period=ROUNDS)
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    lines = [
        f"rotation every {REBUILD_EVERY} rounds: {NODES} nodes, "
        f"{ROUNDS} rounds, seed {SEED}"
    ]
    for name, factory in PAPER_ALGORITHMS.items():
        runner = RotatingTreeRunner(
            graph,
            35.0,
            np.random.default_rng((SEED, 1)),
            rebuild_every=REBUILD_EVERY,
        )
        result = runner.run(factory(spec), workload.values, ROUNDS)
        totals = result.totals
        lines += [
            f"[{name}] exact={result.all_exact}",
            f"  quantiles {result.quantile_series}",
            f"  messages {[r.messages_sent for r in result.rounds]}",
            f"  values {[r.values_sent for r in result.rounds]}",
            f"  exchanges {[r.exchanges for r in result.rounds]}",
            f"  totals messages={totals.messages_sent} bits={totals.bits_sent} "
            f"values={totals.values_sent} energy={totals.energy!r}",
            f"  phase_bits {sorted(result.phase_bits.items())}",
            f"  hotspot_j={result.max_mean_round_energy_j!r} "
            f"lifetime={result.lifetime_rounds!r}",
        ]
    return "\n".join(lines) + "\n"


def test_rotation_matches_golden():
    assert rotation_table() == GOLDEN.read_text()


if __name__ == "__main__":
    print(rotation_table(), end="")
