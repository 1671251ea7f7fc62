"""Measure one workload in this process and print its result line.

``run.py`` starts this script in a fresh child process per workload, so
set-up time and peak memory belong to that workload alone.

A run cycles through the workload's ``deployments`` distinct deployments
of one ``--seed``, one repetition of its fixed round sequence each, built
anew every time, until ``--seconds`` of wall time are used.  It makes at
least one repetition more than there are deployments, so some deployment
always runs twice: every repetition must reproduce, exactly, the
fingerprint of the first repetition of its deployment, or the run fails.

With ``--trace 1`` the first repetition runs untraced and every later one
runs with the layer wrappers of ``tracing.py`` installed, starting again
from the first deployment; so a traced repetition must reproduce the
untraced fingerprint, which shows that the wrappers change nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, has_ancestor, install, self_times, uninstall
from workloads import WORKLOADS, Hooks, Rep, clock

#: Round samples needed so that ten lie above the 90th percentile.
MIN_SAMPLES = 100
MIN_SETUPS = 3
#: Wall-time cap on the loop, well inside the benchmark's 180 s limit.
HARD_LIMIT_S = 140.0
TRACE_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "energy_mj_per_round": "mJ",
    "hotspot_mj_per_round": "mJ",
    "answer_ok_fraction": "ratio",
}


def percentile(samples: list[float], q: float, min_beyond: int = 10) -> float:
    """The q-th percentile (linear interpolation), if enough samples lie above.

    A percentile above the median is reported only when at least
    ``min_beyond`` samples exceed it; otherwise it would rest on a handful
    of rounds.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    beyond = sum(1 for sample in ordered if sample > value)
    if q > 50 and beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has only {beyond} above it"
        )
    return value


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Run:
    """Everything one invocation measured."""

    reps: list[Rep] = field(default_factory=list)
    #: Deployment index of each repetition.
    deployments: list[int] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    #: Reference-speed CPU seconds of every set-up made.
    setups: list[float] = field(default_factory=list)
    tracer: Tracer | None = None

    def samples(self, traced: bool | None = None) -> list[float]:
        return [
            latency
            for rep, on in zip(self.reps, self.traced)
            if traced is None or on == traced
            for latency in rep.latencies
        ]

    def first_of_each(self) -> list[Rep]:
        """The first repetition of every deployment, in deployment order."""
        first: dict[int, Rep] = {}
        for rep, index in zip(self.reps, self.deployments):
            first.setdefault(index, rep)
        return [first[index] for index in sorted(first)]

    def mismatches(self) -> list[str]:
        """Fingerprint keys on which a repetition differs from its first."""
        first: dict[int, Rep] = {}
        out = []
        for number, (rep, index) in enumerate(zip(self.reps, self.deployments)):
            reference = first.setdefault(index, rep).fingerprint
            out += [
                f"rep {number}: {key}"
                for key in sorted(reference.keys() | rep.fingerprint.keys())
                if rep.fingerprint.get(key) != reference.get(key)
            ]
        return out


def timed_setup(workload, key: tuple[int, int], hooks: Hooks):
    """Set up once between two calibrations; the state and its CPU seconds."""
    hooks.pacer.mark()
    start = clock()
    state = workload.setup(key, hooks)
    elapsed = clock() - start
    hooks.pacer.mark()
    return state, elapsed * hooks.pacer.scale(0)


def measure(workload, seed: int, seconds: float, trace: bool) -> Run:
    """Repeat the workload until ``seconds`` of wall time are used.

    The budget is wall time.  Everything reported is CPU time (``clock``)
    scaled to the reference speed by the pacer's calibrations.
    """
    run = Run(tracer=Tracer() if trace else None)
    count = workload.deployments
    saved = None
    start = time.perf_counter()
    try:
        while True:
            number = len(run.reps)
            is_traced = trace and number > 0
            index = (number - 1 if is_traced else number) % count
            hooks = Hooks()
            if is_traced:
                if saved is None:
                    saved = install(run.tracer)
                hooks = Hooks(
                    factory=run.tracer.wrap_factory,
                    mark_round=lambda i: setattr(run.tracer, "round_id", i),
                )
            gc.collect()
            rep_start = time.perf_counter()
            state, seconds_taken = timed_setup(workload, (seed, index), hooks)
            run.setups.append(seconds_taken)
            hooks.pacer.restart()
            run.reps.append(workload.run(state, hooks))
            run.deployments.append(index)
            run.traced.append(is_traced)
            del state
            now = time.perf_counter()
            enough = (
                len(run.reps) > count
                and len(run.samples(traced=trace)) >= MIN_SAMPLES
            )
            if enough and now - start + (now - rep_start) > seconds:
                break
            if now - start > HARD_LIMIT_S or run.reps[-1].failed:
                break
        while len(run.setups) < MIN_SETUPS:
            run.setups.append(timed_setup(workload, (seed, 0), Hooks())[1])
    finally:
        if saved is not None:
            uninstall(saved)
    return run


def end_to_end(run: Run) -> dict[str, float]:
    samples = run.samples()
    firsts = run.first_of_each()
    checked = sum(rep.checked for rep in firsts)
    return {
        "rounds_per_s": len(samples) / sum(samples),
        "round_ms_p50": percentile(samples, 50) * 1e3,
        "round_ms_p90": percentile(samples, 90) * 1e3,
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": peak_rss_mb(),
        "energy_mj_per_round": statistics.fmean(
            rep.fingerprint["energy_mj_per_round"] for rep in firsts
        ),
        "hotspot_mj_per_round": statistics.fmean(
            rep.fingerprint["hotspot_mj_per_round"] for rep in firsts
        ),
        "answer_ok_fraction": (
            sum(rep.ok for rep in firsts) / checked if checked else 1.0
        ),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Busy or self ms per traced round; counts per traced round."""
    spans = run.tracer.spans
    traced_reps = [rep for rep, on in zip(run.reps, run.traced) if on]
    rounds = len(run.samples(traced=True))
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, self_time in zip(spans, self_times(spans)):
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_time
    reads = [s.duration for s in spans if s.name == "serving.history.read"]
    in_algorithm = {
        primitive: sum(
            1
            for index, span in enumerate(spans)
            if span.name.endswith(primitive)
            and has_ancestor(spans, index, "algorithm.")
        )
        for primitive in (".convergecast", ".broadcast")
    }

    # Spans hold unscaled CPU time; bring them to the reference speed the
    # round latencies were scaled to.
    speed = sum(sum(rep.latencies) for rep in traced_reps) / sum(
        rep.raw_seconds for rep in traced_reps
    )

    def total(key: str) -> float:
        return sum(rep.fingerprint.get(key, 0) for rep in traced_reps)

    def ms(table: dict[str, float], *names: str) -> tuple[float, str]:
        busy_ms = sum(table.get(name, 0.0) for name in names) * 1e3
        return busy_ms * speed / rounds, "ms"

    def per_round(key: str) -> tuple[float, str]:
        return total(key) / rounds, "count"

    def ratio(numerator: str, *denominator: str) -> tuple[float, str]:
        base = sum(total(key) for key in denominator)
        return (total(numerator) / base if base else 0.0), "ratio"

    # Tracing overhead: the untraced first repetition against the traced
    # repetition of the same deployment that follows it.
    untraced, first_traced = run.reps[0], run.reps[1]
    overhead = sum(first_traced.latencies) / sum(untraced.latencies) - 1.0
    return {
        "driver.step_self_ms": ms(own, "driver.step"),
        "driver.trustworthy_fraction": ratio("trusted", "reports"),
        "datasets.values_ms": ms(busy, "datasets.values"),
        "faults.plan.begin_round_ms": ms(busy, "faults.plan.begin_round"),
        "faults.repair.repair_round_ms": ms(busy, "faults.repair.repair_round"),
        "faults.repair.reachable_ms": ms(busy, "faults.repair.reachable"),
        "faults.repair.reattached": per_round("reattached"),
        "faults.repair.detached": per_round("detached"),
        "faults.repair.parked": per_round("parked"),
        "faults.repair.fallbacks": per_round("fallbacks"),
        "network.rotate_ms": ms(busy, "network.build_tree", "network.retarget"),
        "network.rotations": per_round("rotations"),
        "faults.failover.ms": ms(busy, "faults.failover"),
        "faults.failover.count": per_round("failovers"),
        "faults.watchdog.ms": ms(busy, "faults.watchdog"),
        "faults.watchdog.reinit_requests": per_round("watchdog_triggers"),
        "algorithm.self_ms": ms(own, "algorithm.initialize", "algorithm.update"),
        "algorithm.convergecasts": (in_algorithm[".convergecast"] / rounds, "count"),
        "algorithm.broadcasts": (in_algorithm[".broadcast"] / rounds, "count"),
        "algorithm.reinits": per_round("reinits"),
        "algorithm.protocol_failures": per_round("protocol_failures"),
        "faults.network.convergecast_ms": ms(busy, "faults.network.convergecast"),
        "faults.network.broadcast_ms": ms(busy, "faults.network.broadcast"),
        "faults.network.retx_per_hop": ratio("retransmissions", "data_hops"),
        "faults.network.lost": per_round("lost"),
        "faults.network.coverage": ratio("delivered", "expected"),
        "sim.engine.convergecast_ms": ms(busy, "sim.engine.convergecast"),
        "sim.engine.broadcast_ms": ms(busy, "sim.engine.broadcast"),
        "radio.ledger.messages": per_round("messages"),
        "radio.ledger.bits": per_round("bits"),
        "serving.gate.self_ms": ms(own, "serving.gate.update"),
        "serving.gate.refresh_rounds": per_round("refreshes"),
        "serving.registry.answers_ms": ms(busy, "serving.registry.answers"),
        "serving.history.absorb_ms": ms(busy, "serving.history.absorb"),
        "serving.history.read_us_p50": (
            statistics.median(reads) * 1e6 * speed if reads else 0.0, "us"
        ),
        "serving.history.cache_hit_rate": ratio(
            "cache_hits", "cache_hits", "cache_misses"
        ),
        # Untraced: a span around every read would be part of its cost.
        "serving.history.reads_per_s": (
            untraced.reads / untraced.read_seconds if untraced.reads else 0.0,
            "1/s",
        ),
        "serving.runner.self_ms": ms(own, "serving.runner.step"),
        "trace.overhead_pct": (overhead * 100.0, "%"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(rep.attempted for rep in run.reps)
    failed = sum(rep.failed for rep in run.reps)
    drift = run.mismatches()
    errors = [error for rep in run.reps for error in rep.errors]
    errors += [f"fingerprint differs: {item}" for item in drift]
    correct = failed == 0 and not drift
    figures: dict[str, tuple[float, str]] = {}
    if args.trace:
        run.tracer.write(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        if correct:
            figures = per_layer(run)
    elif correct:
        figures = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(run).items()
        }
    print(
        f"# {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(run.reps)} reps over {workload.deployments} deployments x "
        f"{workload.rounds} rounds = {len(run.samples())} round samples, "
        f"{len(run.setups)} set-ups"
    )
    print(
        "#   per-rep round p50 [ms]: "
        + " ".join(f"{statistics.median(r.latencies) * 1e3:.1f}" for r in run.reps)
        + "; set-ups [s]: "
        + " ".join(f"{setup:.3f}" for setup in run.setups)
    )
    for name, (value, unit) in figures.items():
        print(f"#   {name:34s} {value:14.6g} {unit}")
    for error in errors[:10]:
        print(f"# ERROR {error}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
