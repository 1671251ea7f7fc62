"""Linear-scan reference for the q-digest queries (test-only).

These are the scans :class:`repro.sketch.qdigest.QDigest` ran before its
queries read a prefix-sum index: ``rank_bounds`` walks every stored entry
and ``quantile`` sorts the entries on every call.  They are kept here,
outside the package, as the differential baseline —
``tests/test_sketch_qdigest.py`` requires the indexed queries to return the
same integers over random merge trees.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sketch import QDigest


def node_range(digest: QDigest, node: int) -> tuple[int, int]:
    """Inclusive leaf-index range ``[a, b]`` covered by ``node``."""
    depth = node.bit_length() - 1
    span = 1 << (digest.levels - depth)
    first = (node - (1 << depth)) * span
    return first, first + span - 1


def rank_bounds(digest: QDigest, x: int) -> tuple[int, int]:
    """Sound bounds ``(lo, hi)`` on ``#{values < x}`` by a full entry scan."""
    if x <= digest.r_min:
        return 0, 0
    if x > digest.r_max:
        return digest.n, digest.n
    boundary = x - digest.r_min  # leaf index split
    lo = hi = 0
    for node, count in digest.entries:
        a, b = node_range(digest, node)
        # Padding leaves beyond the universe never hold measurements, so
        # a range reaching into the padding effectively ends at r_max.
        b = min(b, digest.universe_size - 1)
        if b < boundary:
            lo += count
            hi += count
        elif a < boundary:
            hi += count
    return lo, hi


def quantile(digest: QDigest, k: int) -> int:
    """The ``k``-th smallest value by scanning entries in range-max order."""
    if not 1 <= k <= digest.n:
        raise ConfigurationError(f"rank {k} out of range for {digest.n} values")
    ordered = sorted(
        digest.entries, key=lambda item: (node_range(digest, item[0])[1], item[0])
    )
    cumulative = 0
    result = digest.r_min
    for node, count in ordered:
        cumulative += count
        result = digest.r_min + node_range(digest, node)[1]
        if cumulative >= k:
            break
    return min(result, digest.r_max)


def random_merge_tree(
    rng: np.random.Generator,
    values: np.ndarray,
    eps: float,
    r_min: int,
    r_max: int,
) -> list[QDigest]:
    """Every digest of one random merge tree over ``values``, root last.

    Leaves summarize random chunks of one to three values; pairs are then
    merged in a random order, like a convergecast of arbitrary shape.
    """
    pool: list[QDigest] = []
    start = 0
    while start < len(values):
        stop = start + int(rng.integers(1, 4))
        pool.append(
            QDigest.from_values(values[start:stop].tolist(), eps, r_min, r_max)
        )
        start = stop
    built = list(pool)
    while len(pool) > 1:
        left = pool.pop(int(rng.integers(len(pool))))
        right = pool.pop(int(rng.integers(len(pool))))
        merged = left.merged(right)
        pool.insert(int(rng.integers(len(pool) + 1)), merged)
        built.append(merged)
    return built


class ScanDigest:
    """A digest whose queries run the reference scans.

    Exposes what the serving decoders read (``n``, the universe bounds,
    ``rank_bounds``, ``quantile``), so ``grid.value_bounds`` and the gate's
    exemption band can be driven by the scans and compared with the
    indexed digest.
    """

    def __init__(self, digest: QDigest) -> None:
        self.digest = digest
        self.n = digest.n
        self.r_min = digest.r_min
        self.r_max = digest.r_max

    def rank_bounds(self, x: int) -> tuple[int, int]:
        return rank_bounds(self.digest, x)

    def quantile(self, k: int) -> int:
        return quantile(self.digest, k)
