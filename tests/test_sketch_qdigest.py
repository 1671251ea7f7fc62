"""Property-based tests for the q-digest sketch (repro/sketch/qdigest.py).

The q-digest's guarantee is *deterministic*: rank error at most
``eps * n`` for any input multiset and — crucially for a convergecast —
for **any** merge tree.  Hypothesis drives both the multisets and the
merge shapes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.sim.oracle import rank_error
from repro.sketch import QDigest
from tests import qdigest_reference as reference

R_MIN, R_MAX = 0, 127

multisets = st.lists(st.integers(R_MIN, R_MAX), min_size=1, max_size=200)
eps_values = st.sampled_from([0.02, 0.05, 0.1, 0.3])


def measured_rank_error(values: list[int], digest: QDigest, k: int) -> int:
    """The true rank distance of ``digest.quantile(k)`` from rank ``k``."""
    return rank_error(np.asarray(values), digest.quantile(k), k)


def merge_in_random_shape(
    values: list[int], eps: float, data: st.DataObject
) -> QDigest:
    """Build per-value digests, then fold them in a data-driven tree shape."""
    pool = [
        QDigest.from_values((v,), eps, R_MIN, R_MAX) for v in values
    ]
    while len(pool) > 1:
        i = data.draw(st.integers(0, len(pool) - 2))
        left = pool.pop(i)
        right = pool.pop(i)
        pool.insert(data.draw(st.integers(0, len(pool))), left.merged(right))
    return pool[0]


class TestQDigestProperties:
    @given(multisets, eps_values, st.floats(0.01, 0.99))
    def test_rank_error_within_eps_n(self, values, eps, phi):
        digest = QDigest.from_values(values, eps, R_MIN, R_MAX)
        n = len(values)
        k = max(1, int(np.floor(phi * n)))
        assert measured_rank_error(values, digest, k) <= eps * n

    @settings(deadline=None)
    @given(multisets, eps_values, st.data())
    def test_merge_any_shape_keeps_guarantee(self, values, eps, data):
        digest = merge_in_random_shape(values, eps, data)
        n = len(values)
        assert digest.n == n
        assert digest.internal_counts_bounded()
        for k in {1, max(1, n // 2), n}:
            assert measured_rank_error(values, digest, k) <= eps * n

    @given(multisets, eps_values, st.integers(R_MIN, R_MAX + 1))
    def test_rank_bounds_sound_and_tight(self, values, eps, x):
        digest = QDigest.from_values(values, eps, R_MIN, R_MAX)
        lo, hi = digest.rank_bounds(x)
        true_rank = sum(1 for v in values if v < x)
        assert lo <= true_rank <= hi
        assert hi - lo <= eps * len(values)

    @given(st.lists(st.integers(R_MIN, R_MAX), min_size=1, max_size=60),
           st.data())
    def test_lossless_regime_merges_exactly(self, values, data):
        """With ``n < kappa`` the threshold is 0: the digest is an exact
        sparse histogram and merging is exactly associative, so any two
        merge shapes produce identical digests."""
        eps = 0.05  # kappa = ceil(7 / 0.05) = 140 > max_size
        one = merge_in_random_shape(values, eps, data)
        other = QDigest.from_values(values, eps, R_MIN, R_MAX)
        assert one == other
        assert one.n // one.kappa == 0

    @given(multisets, eps_values)
    def test_payload_bits_honest(self, values, eps):
        digest = QDigest.from_values(values, eps, R_MIN, R_MAX)
        assert digest.payload_bits() > 0
        assert digest.num_entries() <= len(values)
        empty = QDigest.empty(eps, R_MIN, R_MAX)
        assert empty.payload_bits() == 0
        # Merging with the empty digest changes nothing semantically.
        assert empty.merged(digest).n == digest.n


class TestQDigestValidation:
    def test_rejects_bad_eps(self):
        with pytest.raises(ConfigurationError):
            QDigest.empty(0.0, R_MIN, R_MAX)
        with pytest.raises(ConfigurationError):
            QDigest.empty(1.0, R_MIN, R_MAX)

    def test_rejects_empty_universe(self):
        with pytest.raises(ConfigurationError):
            QDigest.empty(0.1, 5, 4)

    def test_rejects_out_of_universe_values(self):
        with pytest.raises(ConfigurationError):
            QDigest.from_values([R_MAX + 1], 0.1, R_MIN, R_MAX)

    def test_rejects_mismatched_merge(self):
        a = QDigest.from_values([1], 0.1, R_MIN, R_MAX)
        b = QDigest.from_values([1], 0.2, R_MIN, R_MAX)
        with pytest.raises(ProtocolError):
            a.merged(b)

    def test_quantile_rank_out_of_range(self):
        digest = QDigest.from_values([1, 2, 3], 0.1, R_MIN, R_MAX)
        with pytest.raises(ConfigurationError):
            digest.quantile(0)
        with pytest.raises(ConfigurationError):
            digest.quantile(4)


#: ``(r_min, r_max)`` universes for the index fuzz: power-of-two and padded
#: sizes, negative ``r_min``, a one-value universe and the serving default.
FUZZ_UNIVERSES = [(0, 127), (0, 1023), (-50, 49), (-7, -7), (3, 12), (-600, 700)]


def edge_points(digest: QDigest) -> list[int]:
    """Query points at, below and above both universe edges."""
    r_min, r_max = digest.r_min, digest.r_max
    return sorted(
        {r_min - 5, r_min - 1, r_min, r_min + 1, r_max - 1, r_max, r_max + 1, r_max + 5}
    )


def assert_matches_reference(digest: QDigest, points) -> None:
    for x in points:
        assert digest.rank_bounds(x) == reference.rank_bounds(digest, x), x
    for k in range(1, digest.n + 1):
        assert digest.quantile(k) == reference.quantile(digest, k), k


class TestIndexMatchesScan:
    """The indexed queries return the linear scan's integers exactly."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("regime", ["lossless", "compressing"])
    @pytest.mark.parametrize("universe", FUZZ_UNIVERSES)
    def test_random_merge_trees(self, universe, regime, seed):
        r_min, r_max = universe
        rng = np.random.default_rng([seed, r_max - r_min, len(regime)])
        if regime == "lossless":
            eps, n = 0.01, int(rng.integers(1, 60))
        else:
            eps, n = float(rng.choice([0.2, 0.3, 0.5])), int(rng.integers(60, 300))
        # Half the values cluster, so compression builds internal nodes.
        centre = int(rng.integers(r_min, r_max + 1))
        values = np.clip(
            np.where(
                rng.random(n) < 0.5,
                centre + rng.integers(-3, 4, n),
                rng.integers(r_min, r_max + 1, n),
            ),
            r_min,
            r_max,
        )
        built = reference.random_merge_tree(rng, values, eps, r_min, r_max)
        root = built[-1]
        assert root.n == n
        leaf_base = 1 << root.levels
        internal = any(node < leaf_base for node, _ in root.entries)
        if regime == "lossless":
            assert root.n // root.kappa == 0 and not internal
        else:
            assert root.n // root.kappa >= 1
            if r_min < r_max:
                assert internal
        # Exhaustive over the universe at the root, edges plus random
        # points for a sample of the intermediate digests.
        assert_matches_reference(root, range(r_min - 2, r_max + 3))
        for i in rng.choice(len(built) - 1, size=min(12, len(built) - 1), replace=False):
            digest = built[int(i)]
            points = edge_points(digest) + rng.integers(r_min, r_max + 2, 8).tolist()
            assert_matches_reference(digest, points)

    @pytest.mark.parametrize("universe", FUZZ_UNIVERSES)
    def test_empty_digest(self, universe):
        digest = QDigest.empty(0.1, *universe)
        for x in edge_points(digest):
            assert digest.rank_bounds(x) == reference.rank_bounds(digest, x) == (0, 0)
        with pytest.raises(ConfigurationError):
            digest.quantile(1)

    def test_index_is_not_a_field(self):
        """Querying builds the index without touching equality or size."""
        values = list(range(0, 128, 3)) * 4
        digest = QDigest.from_values(values, 0.3, R_MIN, R_MAX)
        twin = QDigest.from_values(values, 0.3, R_MIN, R_MAX)
        bits = digest.payload_bits()
        assert "_index" not in vars(digest)
        digest.quantile(digest.n // 2)
        assert "_index" in vars(digest)
        assert digest == twin and hash(digest) == hash(twin)
        assert digest.payload_bits() == bits
        assert digest.merged(twin) == twin.merged(twin)
