"""End-to-end round benchmark of the quantile simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fault-churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is measured by ``measure.py`` in a fresh child process, one
after another, so set-up time and peak RSS belong to that workload alone.
This process only starts the children, waits for each and relays its
output; the last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-clean", "fault-loss", "fault-churn", "serve-dashboard")
#: A child that runs longer than this is killed; the benchmark must end
#: within 180 s.
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One process, no helper threads: numeric libraries stay single-threaded
    # and string hashing is fixed, so set iteration order cannot vary.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """Run one workload in a child; relay its report, return its result."""
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"# {workload}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        for line in lines[-1:]:
            print(line)
        print(f"# {workload}: exit code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_child(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        print(f"# {name}: {json.dumps(result)}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": figure
                    for name, result in results.items()
                    for metric, figure in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
