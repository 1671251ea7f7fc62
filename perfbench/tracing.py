"""Spans recorded around the program's layer entry points, from outside.

The benchmark never edits the program to trace it.  :func:`install` swaps
each public entry point listed by :func:`_layers` for a wrapper that opens
a :class:`Span` around the original call; :func:`uninstall` puts the
originals back.  The wrappers pass arguments and results through
untouched, so a traced run must simulate exactly what an untraced run
does (``measure.py`` checks this).

A span records its name, start, end, the span that was open when it
started (its parent) and the round it belongs to.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, or -1.
    parent: int
    round_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one process; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.round_id = -1
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.round_id))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    def innermost(self) -> str | None:
        """Name of the span currently open, if any."""
        return self.spans[self._open[-1]].name if self._open else None

    def wrap(self, fn: Callable, name: str | Callable[[object], str]) -> Callable:
        """``fn`` inside a span; ``name`` may be derived from the first arg.

        A call made while a span of the same name is already innermost
        (a subclass override calling ``super()``) opens no second span,
        so the layer's time is not counted twice.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args[0]) if callable(name) else name
            if self.innermost() == span_name:
                return fn(*args, **kwargs)
            index = self.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap_factory(self, factory: Callable) -> Callable:
        """A factory whose algorithms run ``initialize``/``update`` in spans."""

        def build(spec):
            algorithm = factory(spec)
            for method in ("initialize", "update"):
                bound = getattr(algorithm, method)
                setattr(algorithm, method, self.wrap(bound, f"algorithm.{method}"))
            return algorithm

        return build

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "round": span.round_id,
                        }
                    )
                    + "\n"
                )


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def has_ancestor(spans: list[Span], index: int, prefix: str) -> bool:
    """Whether a span encloses span ``index`` whose name starts with ``prefix``."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


def _network_span(primitive: str) -> Callable[[object], str]:
    """Name a convergecast/broadcast span after the network it ran on."""
    from repro.faults.network import FaultyTreeNetwork

    def name(net: object) -> str:
        layer = "faults.network" if isinstance(net, FaultyTreeNetwork) else "sim.engine"
        return f"{layer}.{primitive}"

    return name


def _layers() -> list[tuple[object, str, str | Callable[[object], str]]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    import repro.faults.experiment as experiment
    from repro.datasets.synthetic import SyntheticWorkload
    from repro.faults.failover import RootFailover
    from repro.faults.network import FaultyTreeNetwork
    from repro.faults.repair import TreeRepair
    from repro.faults.watchdog import RootWatchdog
    from repro.serving.algorithm import MultiQuerySketch
    from repro.serving.history import HistoryStore
    from repro.serving.registry import QueryRegistry
    from repro.serving.runner import MultiQueryRunner
    from repro.sim.engine import TreeNetwork

    return [
        (experiment.FaultDriver, "step", "driver.step"),
        (SyntheticWorkload, "values", "datasets.values"),
        (FaultyTreeNetwork, "begin_faults_round", "faults.plan.begin_round"),
        (TreeRepair, "repair_round", "faults.repair.repair_round"),
        (TreeRepair, "reachable_sensors", "faults.repair.reachable"),
        # FaultDriver reaches the tree builder through its module's global name.
        (experiment, "build_randomized_routing_tree", "network.build_tree"),
        (TreeNetwork, "retarget", "network.retarget"),
        (RootFailover, "maybe_failover", "faults.failover"),
        (RootWatchdog, "observe", "faults.watchdog"),
        (RootWatchdog, "retarget", "faults.watchdog"),
        (TreeNetwork, "convergecast", _network_span("convergecast")),
        (FaultyTreeNetwork, "convergecast", _network_span("convergecast")),
        (TreeNetwork, "broadcast", _network_span("broadcast")),
        (MultiQuerySketch, "update", "serving.gate.update"),
        (QueryRegistry, "answers", "serving.registry.answers"),
        (HistoryStore, "absorb_answers", "serving.history.absorb"),
        (HistoryStore, "absorb_report", "serving.history.absorb"),
        (HistoryStore, "latest", "serving.history.read"),
        (HistoryStore, "window", "serving.history.read"),
        (HistoryStore, "decayed", "serving.history.read"),
        (HistoryStore, "at_round", "serving.history.read"),
        (MultiQueryRunner, "step", "serving.runner.step"),
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer entry point; returns what :func:`uninstall` needs."""
    saved = []
    for owner, attribute, name in _layers():
        original = vars(owner).get(attribute)
        if original is None:
            if hasattr(owner, attribute):
                continue  # inherited: the base class's wrapper covers it
            raise AttributeError(f"{owner!r} has no entry point {attribute!r}")
        saved.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(original, name))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    """Restore the originals :func:`install` replaced, newest first."""
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)
