"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import percentile  # noqa: E402
from tracing import Span, Tracer, covered, has_ancestor, self_times  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- the percentile sample rule -------------------------------------------------


def test_p90_needs_ten_samples_above_it():
    assert percentile([float(i) for i in range(1, 101)], 90) == pytest.approx(90.1)
    with pytest.raises(ValueError, match="only 5 above"):
        percentile([float(i) for i in range(1, 51)], 90)


def test_ties_at_the_top_do_not_count_as_beyond():
    samples = [1.0] * 95 + [2.0] * 5 + [3.0] * 9
    with pytest.raises(ValueError):
        percentile(samples, 90)


def test_median_has_no_tail_requirement():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        Span("step", 0.0, 10.0, -1, 0),
        Span("repair", 1.0, 4.0, 0, 0),
        Span("convergecast", 5.0, 7.0, 0, 0),
        Span("reachable", 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    spans = [
        Span("parent", 0.0, 10.0, -1, 0),
        Span("a", 0.0, 2.0, 0, 0),
        Span("b", 1.0, 3.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(7.0)


# -- span nesting ---------------------------------------------------------------


def test_wrapped_calls_nest_and_carry_the_round():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    wrapped_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()

    tracer.round_id = 7
    tracer.wrap(outer, "outer")()
    names = [(s.name, s.parent, s.round_id) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("leaf", 0, 7), ("leaf", 0, 7)]
    assert tracer.spans[0].duration == 3.0
    assert self_times(tracer.spans) == [1.0, 1.0, 1.0]
    assert has_ancestor(tracer.spans, 2, "out")
    assert not has_ancestor(tracer.spans, 0, "out")


def test_same_name_reentry_opens_no_second_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Base:
        def work(self):
            clock.now += 1.0

    class Child(Base):
        def work(self):
            super().work()

    Base.work = tracer.wrap(Base.__dict__["work"], "net")
    Child.work = tracer.wrap(Child.__dict__["work"], "net")
    Child().work()
    assert [s.name for s in tracer.spans] == ["net"]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise RuntimeError("lost")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    assert tracer.innermost() is None
    assert len(tracer.spans) == 1


def test_span_name_can_follow_the_receiver():
    tracer = Tracer(FakeClock())
    wrapped = tracer.wrap(lambda net: None, lambda net: f"layer.{net}")
    wrapped("a")
    wrapped("b")
    assert [s.name for s in tracer.spans] == ["layer.a", "layer.b"]


def test_install_wraps_entry_points_and_uninstall_restores_them():
    from repro.faults.experiment import FaultDriver
    from repro.sim.engine import TreeNetwork

    from tracing import install, uninstall

    originals = (FaultDriver.__dict__["step"], TreeNetwork.__dict__["convergecast"])
    saved = install(Tracer())
    try:
        assert FaultDriver.__dict__["step"] is not originals[0]
        assert TreeNetwork.__dict__["convergecast"] is not originals[1]
    finally:
        uninstall(saved)
    restored = (FaultDriver.__dict__["step"], TreeNetwork.__dict__["convergecast"])
    assert restored == originals
