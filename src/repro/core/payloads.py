"""Payload types shared by the quantile algorithms.

Every payload implements :class:`repro.sim.Payload` so the engine can merge
it in-network and account its size.  Sizes follow Table 1 / Section 5.1.4:
16-bit measurements and counters, 8-bit bucket identifiers.

Each class also has an array fold (``fold_arrays``): the engine folds a
whole convergecast of it through :class:`~repro.sim.vectorized.ArrayFold`
one tree level at a time instead of merging object by object, with the
same hop sizes and root payload as ``merged_with``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.constants import (
    BUCKET_COUNT_BITS,
    BUCKET_ID_BITS,
    COUNTER_BITS,
    VALUE_BITS,
)
from repro.errors import ProtocolError
from repro.sim.engine import Payload
from repro.sim.vectorized import ArrayFold


def merge_sorted(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Merge two ascending tuples into one ascending tuple."""
    if not a:
        return b
    if not b:
        return a
    merged: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] <= b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged)


@dataclass(frozen=True)
class ValidationPayload(Payload):
    """POS-style validation message (Section 3.2), optionally with IQ's A.

    Counters describe filter-interval transitions of node values between two
    consecutive rounds; intermediate vertices merge them by addition.  The
    hint fields carry the smallest/largest *current* value among nodes that
    changed state — the root derives refinement bounds from them.

    ``hint_values`` controls accounting: POS transmits both extreme values
    (2 values), while HBC and IQ transmit only the maximum absolute
    difference to the old quantile (1 value, Section 5.1.6).  The semantics
    here always track both extremes; the root applies the symmetric
    (one-value) interpretation itself when configured to.

    ``values`` is IQ's multiset ``A`` (ascending); empty for POS and HBC.
    """

    into_lt: int = 0
    outof_lt: int = 0
    into_gt: int = 0
    outof_gt: int = 0
    hint_min: int | None = None
    hint_max: int | None = None
    hint_values: int = 2
    values: tuple[int, ...] = ()

    def merged_with(self, other: "ValidationPayload") -> "ValidationPayload":
        return ValidationPayload(
            into_lt=self.into_lt + other.into_lt,
            outof_lt=self.outof_lt + other.outof_lt,
            into_gt=self.into_gt + other.into_gt,
            outof_gt=self.outof_gt + other.outof_gt,
            hint_min=_opt_min(self.hint_min, other.hint_min),
            hint_max=_opt_max(self.hint_max, other.hint_max),
            hint_values=max(self.hint_values, other.hint_values),
            values=merge_sorted(self.values, other.values),
        )

    def payload_bits(self) -> int:
        hint_bits = self.hint_values * VALUE_BITS if self.has_hint else 0
        return 4 * COUNTER_BITS + hint_bits + len(self.values) * VALUE_BITS

    def num_values(self) -> int:
        return len(self.values)

    def is_empty(self) -> bool:
        return (
            self.into_lt == 0
            and self.outof_lt == 0
            and self.into_gt == 0
            and self.outof_gt == 0
            and not self.values
            and not self.has_hint
        )

    @property
    def has_hint(self) -> bool:
        """True when at least one node contributed a hint value."""
        return self.hint_min is not None

    @classmethod
    def fold_arrays(
        cls, payloads: Sequence["ValidationPayload"], fold: ArrayFold
    ) -> tuple["ValidationPayload | None", np.ndarray, np.ndarray]:
        m = len(payloads)
        lows, has_min = _hint_column([p.hint_min for p in payloads])
        highs, has_max = _hint_column([p.hint_max for p in payloads])
        # Counters and hint_values, one row per payload.
        rows = np.array(
            list(map(_VALIDATION_COLUMNS, payloads)), dtype=np.int64
        ).reshape(m, 5)
        totals = fold.sums(
            np.column_stack([rows[:, :4], has_min, has_max])
        )
        hint_values = fold.maxima(rows[:, 4])
        lows = fold.minima(lows, has_min)
        highs = fold.maxima(highs, has_max)
        runs = [p.values for p in payloads]
        counts = np.fromiter(map(len, runs), dtype=np.int64, count=m)
        sizes, root_values = fold.multiset(_flatten(runs, counts), counts)
        has_hint = totals[:, 4] > 0
        bits = (
            4 * COUNTER_BITS
            + np.where(has_hint, hint_values, 0) * VALUE_BITS
            + sizes * VALUE_BITS
        )
        root = None
        if fold.merged_at_root:
            r = fold.root
            into_lt, outof_lt, into_gt, outof_gt, any_min, any_max = (
                totals[r].tolist()
            )
            root = cls(
                into_lt=into_lt,
                outof_lt=outof_lt,
                into_gt=into_gt,
                outof_gt=outof_gt,
                hint_min=int(lows[r]) if any_min else None,
                hint_max=int(highs[r]) if any_max else None,
                hint_values=int(hint_values[r]),
                values=tuple(root_values.tolist()),
            )
        return root, bits, sizes


_VALIDATION_COLUMNS = attrgetter(
    "into_lt", "outof_lt", "into_gt", "outof_gt", "hint_values"
)


@dataclass(frozen=True)
class ValueSetPayload(Payload):
    """A multiset of raw measurements, optionally pruned in-network.

    ``keep`` limits the set to the ``keep`` smallest (``keep_largest=False``)
    or largest values *while keeping ties of the boundary value* — IQ's
    refinement responses need the ties to handle duplicate measurements
    exactly (Section 4.2.2).  ``keep=None`` forwards everything (TAG-style
    direct value requests).
    """

    values: tuple[int, ...] = ()
    keep: int | None = None
    keep_largest: bool = False

    def __post_init__(self) -> None:
        keep = self.keep
        # The common cases (None, a plain int) cost one or two checks; a
        # bool is an int subclass but never a count.
        if keep is not None and (type(keep) is not int or keep <= 0):
            if (
                isinstance(keep, bool)
                or not isinstance(keep, numbers.Integral)
                or keep <= 0
            ):
                raise ProtocolError(
                    f"keep must be a positive integer or None, got {keep!r}"
                )

    def merged_with(self, other: "ValueSetPayload") -> "ValueSetPayload":
        if (self.keep, self.keep_largest) != (other.keep, other.keep_largest):
            raise ProtocolError("cannot merge value sets with different pruning")
        merged = merge_sorted(self.values, other.values)
        return replace(self, values=prune_with_ties(merged, self.keep, self.keep_largest))

    def payload_bits(self) -> int:
        return len(self.values) * VALUE_BITS

    def num_values(self) -> int:
        return len(self.values)

    def is_empty(self) -> bool:
        return not self.values

    @classmethod
    def fold_arrays(
        cls, payloads: Sequence["ValueSetPayload"], fold: ArrayFold
    ) -> tuple["ValueSetPayload | None", np.ndarray, np.ndarray]:
        pruning = set(map(_PRUNING, payloads))
        if len(pruning) > 1:
            raise ProtocolError("cannot merge value sets with different pruning")
        ((keep, keep_largest),) = pruning
        runs = [p.values for p in payloads]
        counts = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
        sizes, root_values = fold.multiset(
            _flatten(runs, counts), counts, keep, keep_largest
        )
        root = None
        if fold.merged_at_root:
            root = replace(payloads[0], values=tuple(root_values.tolist()))
        return root, sizes * VALUE_BITS, sizes


_PRUNING = attrgetter("keep", "keep_largest")


def prune_with_ties(
    ascending: tuple[int, ...], keep: int | None, keep_largest: bool
) -> tuple[int, ...]:
    """Prune an ascending tuple to ``keep`` extreme values, keeping ties.

    With ``keep_largest`` the result is the ``keep`` largest values plus any
    further duplicates of the ``keep``-th largest; symmetrically for the
    smallest.  ``keep=None`` returns the input unchanged.
    """
    if keep is None or len(ascending) <= keep:
        return ascending
    if keep <= 0:
        raise ProtocolError(f"keep must be positive, got {keep}")
    if keep_largest:
        boundary = ascending[-keep]
        start = len(ascending) - keep
        while start > 0 and ascending[start - 1] == boundary:
            start -= 1
        return ascending[start:]
    boundary = ascending[keep - 1]
    end = keep
    while end < len(ascending) and ascending[end] == boundary:
        end += 1
    return ascending[:end]


@dataclass(frozen=True)
class HistogramPayload(Payload):
    """Equi-width histogram over a refinement interval (Section 4.1).

    Counts are merged by element-wise addition.  The on-air size is the
    smaller of the dense encoding (``b`` counts) and the compressed encoding
    (``(id, count)`` pairs for non-empty buckets) — the compression proposed
    in [21] and enabled for HBC and LCLL.
    """

    counts: tuple[int, ...]
    compressed: bool = True

    def merged_with(self, other: "HistogramPayload") -> "HistogramPayload":
        if len(self.counts) != len(other.counts):
            raise ProtocolError(
                f"histogram size mismatch: {len(self.counts)} vs {len(other.counts)}"
            )
        if self.compressed != other.compressed:
            raise ProtocolError(
                "cannot merge compressed and dense histograms"
            )
        summed = tuple(a + b for a, b in zip(self.counts, other.counts))
        return HistogramPayload(counts=summed, compressed=self.compressed)

    def payload_bits(self) -> int:
        dense = len(self.counts) * BUCKET_COUNT_BITS
        if not self.compressed:
            return dense
        nonempty = sum(1 for count in self.counts if count)
        sparse = nonempty * (BUCKET_ID_BITS + BUCKET_COUNT_BITS)
        return min(dense, sparse)

    def is_empty(self) -> bool:
        return not any(self.counts)

    @classmethod
    def fold_arrays(
        cls, payloads: Sequence["HistogramPayload"], fold: ArrayFold
    ) -> tuple["HistogramPayload | None", np.ndarray, np.ndarray]:
        # Algorithms share one immutable payload per distinct histogram
        # (one_hot_histograms), so each distinct object is read once.
        row_of: dict[int, int] = {}
        rows = [row_of.setdefault(id(p), len(row_of)) for p in payloads]
        distinct = list({id(p): p for p in payloads}.values())
        width = len(distinct[0].counts)
        compressed = distinct[0].compressed
        for payload in distinct:
            if len(payload.counts) != width:
                raise ProtocolError(
                    f"histogram size mismatch: {width} vs {len(payload.counts)}"
                )
            if payload.compressed != compressed:
                raise ProtocolError(
                    "cannot merge compressed and dense histograms"
                )
        table = np.array(
            [payload.counts for payload in distinct], dtype=np.int64
        ).reshape(len(distinct), width)
        totals = fold.sums(table[rows])
        bits = np.full(len(totals), width * BUCKET_COUNT_BITS, dtype=np.int64)
        if compressed:
            sparse = np.count_nonzero(totals, axis=1) * (
                BUCKET_ID_BITS + BUCKET_COUNT_BITS
            )
            np.minimum(bits, sparse, out=bits)
        root = None
        if fold.merged_at_root:
            root = cls(
                counts=tuple(totals[fold.root].tolist()), compressed=compressed
            )
        return root, bits, np.zeros(len(totals), dtype=np.int64)


def one_hot_histograms(
    num_buckets: int, compressed: bool = True
) -> list[HistogramPayload]:
    """One shared one-hot histogram per bucket, indexed by bucket.

    Payloads are immutable, so every node reporting bucket ``b`` can send
    the same object; the array fold then reads each distinct histogram
    once.
    """
    return [
        HistogramPayload(
            counts=tuple(int(i == bucket) for i in range(num_buckets)),
            compressed=compressed,
        )
        for bucket in range(num_buckets)
    ]


@dataclass(frozen=True)
class BucketDeltaPayload(Payload):
    """LCLL's improved validation message: per-bucket count deltas.

    A node whose value moved between buckets sends two entries: ``-1`` for
    the bucket it left and ``+1`` for the bucket it entered (Section 5.1.6).
    Entries are keyed by ``(level, bucket_index)`` so the hierarchical
    variant can update several resolutions in one message.
    """

    deltas: tuple[tuple[tuple[int, int], int], ...] = ()

    def merged_with(self, other: "BucketDeltaPayload") -> "BucketDeltaPayload":
        combined: dict[tuple[int, int], int] = dict(self.deltas)
        for key, delta in other.deltas:
            combined[key] = combined.get(key, 0) + delta
        pruned = tuple(
            sorted((key, delta) for key, delta in combined.items() if delta != 0)
        )
        return BucketDeltaPayload(deltas=pruned)

    def payload_bits(self) -> int:
        return len(self.deltas) * (BUCKET_ID_BITS + BUCKET_COUNT_BITS)

    def is_empty(self) -> bool:
        return not self.deltas

    def as_dict(self) -> dict[tuple[int, int], int]:
        """The deltas as a plain dictionary."""
        return dict(self.deltas)

    @classmethod
    def fold_arrays(
        cls, payloads: Sequence["BucketDeltaPayload"], fold: ArrayFold
    ) -> tuple["BucketDeltaPayload | None", np.ndarray, np.ndarray]:
        runs = [p.deltas for p in payloads]
        counts = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
        m = int(counts.sum())
        keys, deltas = zip(*chain.from_iterable(runs)) if m else ((), ())
        keys = np.fromiter(
            chain.from_iterable(keys), dtype=np.int64, count=2 * m
        ).reshape(m, 2)
        sizes, (levels, buckets), deltas = fold.keyed_sums(
            (keys[:, 0], keys[:, 1]),
            np.fromiter(deltas, dtype=np.int64, count=m),
            counts,
        )
        root = None
        if fold.merged_at_root:
            root = cls(
                deltas=tuple(
                    ((level, bucket), delta)
                    for level, bucket, delta in zip(
                        levels.tolist(), buckets.tolist(), deltas.tolist()
                    )
                )
            )
        return (
            root,
            sizes * (BUCKET_ID_BITS + BUCKET_COUNT_BITS),
            np.zeros(len(sizes), dtype=np.int64),
        )


def _flatten(runs: list[tuple[int, ...]], counts: np.ndarray) -> np.ndarray:
    """The runs' values, concatenated, as one ``int64`` array."""
    return np.fromiter(
        chain.from_iterable(runs), dtype=np.int64, count=int(counts.sum())
    )


def _hint_column(hints: list[int | None]) -> tuple[np.ndarray, np.ndarray]:
    """Hints as ``int64`` (``None`` reads 0) and their presence mask."""
    present = np.array([hint is not None for hint in hints], dtype=bool)
    values = np.array(
        [0 if hint is None else hint for hint in hints], dtype=np.int64
    )
    return values, present


def _opt_min(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _opt_max(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)
