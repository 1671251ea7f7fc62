"""The perf trajectory: ``emit_perf`` records and the ``check_perf`` gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks import common
from benchmarks.check_perf import (
    MalformedRecord,
    check,
    load_record,
    main,
    metric_kind,
    numeric_leaves,
)


@pytest.fixture
def perf_dirs(tmp_path, monkeypatch):
    """Redirect emit_perf's two output locations into a temp tree."""
    results = tmp_path / "results"
    root = tmp_path / "root"
    results.mkdir()
    root.mkdir()
    monkeypatch.setattr(common, "RESULTS_DIR", results)
    monkeypatch.setattr(common, "REPO_ROOT", root)
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    return results, root


class TestEmitPerf:
    def test_schema_round_trip_and_both_copies(self, perf_dirs):
        results, root = perf_dirs
        payload = {"sizes": {"300": {"vector_rounds_per_sec": 123.5}}}
        path = common.emit_perf("unit", payload)
        assert path == results / "BENCH_unit.json"
        record = json.loads(path.read_text())
        # The repo-root copy is byte-identical: the committed trajectory.
        assert (root / "BENCH_unit.json").read_text() == path.read_text()
        assert record["sizes"]["300"]["vector_rounds_per_sec"] == 123.5
        # emit_perf stamps the environment the record was measured in.
        assert record["scale"] == 0.05
        assert record["peak_rss_kb"] > 0
        # The caller's payload object is not mutated.
        assert "scale" not in payload

    def test_explicit_fields_not_overwritten(self, perf_dirs):
        results, _ = perf_dirs
        common.emit_perf("unit", {"scale": 1.0, "peak_rss_kb": 7})
        record = json.loads((results / "BENCH_unit.json").read_text())
        assert record["scale"] == 1.0
        assert record["peak_rss_kb"] == 7


def write_record(directory: Path, name: str, record) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(record))
    return path


def sample_record(rps: float = 100.0, rss: int = 50_000, scale: float = 0.05):
    return {
        "scale": scale,
        "peak_rss_kb": rss,
        "sizes": {
            "3000": {
                "vector_convergecast_rounds_per_sec": rps,
                "speedup": 10.0,
                "peak_rss_kb": rss,
            }
        },
    }


class TestNumericLeaves:
    def test_nested_walk(self):
        leaves = numeric_leaves(
            {"a": {"b": [1, {"c": 2.5}]}, "d": True, "e": "text", "f": 0}
        )
        assert leaves == {"a.b[0]": 1.0, "a.b[1].c": 2.5, "f": 0.0}

    def test_metric_kinds(self):
        assert metric_kind("sizes.3000.vector_convergecast_rounds_per_sec") == (
            "throughput"
        )
        assert metric_kind("rounds_per_sec") == "throughput"
        assert metric_kind("windows.32.cached_reads_per_sec") == "throughput"
        assert metric_kind("reads_per_sec") == "throughput"
        assert metric_kind("sizes.300.peak_rss_kb") == "rss"
        assert metric_kind("sizes.300.speedup") is None
        assert metric_kind("scale") is None


class TestCheckPerf:
    def test_identical_records_pass(self, tmp_path, capsys):
        write_record(tmp_path / "fresh", "engine", sample_record())
        write_record(tmp_path / "base", "engine", sample_record())
        assert check(tmp_path / "fresh", tmp_path / "base") == 0
        assert "perf gate: OK" in capsys.readouterr().out

    def test_small_slowdown_within_tolerance_passes(self, tmp_path):
        write_record(tmp_path / "fresh", "engine", sample_record(rps=80.0))
        write_record(tmp_path / "base", "engine", sample_record(rps=100.0))
        assert check(tmp_path / "fresh", tmp_path / "base") == 0

    def test_regression_beyond_tolerance_fails(self, tmp_path, capsys):
        write_record(tmp_path / "fresh", "engine", sample_record(rps=70.0))
        write_record(tmp_path / "base", "engine", sample_record(rps=100.0))
        assert check(tmp_path / "fresh", tmp_path / "base") == 1
        assert "regressed" in capsys.readouterr().out

    def test_exact_threshold_passes(self, tmp_path):
        write_record(tmp_path / "fresh", "engine", sample_record(rps=75.0))
        write_record(tmp_path / "base", "engine", sample_record(rps=100.0))
        assert check(tmp_path / "fresh", tmp_path / "base") == 0

    def test_rss_growth_beyond_tolerance_fails(self, tmp_path, capsys):
        write_record(tmp_path / "fresh", "engine", sample_record(rss=61_000))
        write_record(tmp_path / "base", "engine", sample_record(rss=50_000))
        assert check(tmp_path / "fresh", tmp_path / "base") == 1
        assert "grew" in capsys.readouterr().out

    def test_rss_growth_within_tolerance_passes(self, tmp_path):
        write_record(tmp_path / "fresh", "engine", sample_record(rss=59_000))
        write_record(tmp_path / "base", "engine", sample_record(rss=50_000))
        assert check(tmp_path / "fresh", tmp_path / "base") == 0

    def test_missing_baseline_warns_and_passes(self, tmp_path, capsys):
        # A *genuinely new* benchmark: no baseline, no committed repo-root
        # trajectory record either.
        write_record(tmp_path / "fresh", "engine", sample_record())
        (tmp_path / "base").mkdir()
        assert (
            check(tmp_path / "fresh", tmp_path / "base", repo_root=tmp_path)
            == 0
        )
        assert "no committed baseline" in capsys.readouterr().out

    def test_missing_baseline_with_committed_root_record_fails(
        self, tmp_path, capsys
    ):
        # The repo root already holds a BENCH record that differs from the
        # fresh one — it was committed by an earlier PR, so the missing
        # baseline is a silent gate bypass, not a new benchmark.
        write_record(tmp_path / "fresh", "engine", sample_record())
        (tmp_path / "base").mkdir()
        write_record(tmp_path, "engine", sample_record(rps=90.0))
        assert (
            check(tmp_path / "fresh", tmp_path / "base", repo_root=tmp_path)
            == 1
        )
        out = capsys.readouterr().out
        assert "silently pass" in out and "FAIL" in out

    def test_missing_baseline_with_identical_root_record_passes(
        self, tmp_path, capsys
    ):
        # Byte-identical root copy: emit_perf wrote both in this very run,
        # so the benchmark really is new — warn-and-pass.
        write_record(tmp_path / "fresh", "engine", sample_record())
        (tmp_path / "base").mkdir()
        (tmp_path / "BENCH_engine.json").write_text(
            (tmp_path / "fresh" / "BENCH_engine.json").read_text()
        )
        assert (
            check(tmp_path / "fresh", tmp_path / "base", repo_root=tmp_path)
            == 0
        )
        assert "no committed baseline" in capsys.readouterr().out

    def test_repo_root_flag_reaches_the_bypass_check(self, tmp_path):
        write_record(tmp_path / "fresh", "engine", sample_record())
        (tmp_path / "base").mkdir()
        write_record(tmp_path, "engine", sample_record(rps=90.0))
        assert main(
            [
                "--fresh", str(tmp_path / "fresh"),
                "--baselines", str(tmp_path / "base"),
                "--repo-root", str(tmp_path),
            ]
        ) == 1

    def test_no_fresh_records_fails(self, tmp_path, capsys):
        (tmp_path / "fresh").mkdir()
        assert check(tmp_path / "fresh", tmp_path / "base") == 1
        assert "no fresh" in capsys.readouterr().out

    def test_scale_mismatch_skips_comparison(self, tmp_path, capsys):
        write_record(tmp_path / "fresh", "engine", sample_record(rps=1.0))
        write_record(
            tmp_path / "base", "engine", sample_record(rps=100.0, scale=0.15)
        )
        assert check(tmp_path / "fresh", tmp_path / "base") == 0
        assert "scale mismatch" in capsys.readouterr().out

    def test_malformed_fresh_record_hard_fails(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / "BENCH_engine.json").write_text("{not json")
        write_record(tmp_path / "base", "engine", sample_record())
        with pytest.raises(MalformedRecord):
            check(fresh, tmp_path / "base")
        # Through the CLI the failure is an exit code, not a traceback.
        assert main(["--fresh", str(fresh), "--baselines", str(tmp_path / "base")]) == 1

    def test_malformed_baseline_hard_fails(self, tmp_path):
        write_record(tmp_path / "fresh", "engine", sample_record())
        base = tmp_path / "base"
        base.mkdir()
        (base / "BENCH_engine.json").write_text('["not", "an", "object"]')
        assert main(
            ["--fresh", str(tmp_path / "fresh"), "--baselines", str(base)]
        ) == 1

    def test_update_refreshes_baselines(self, tmp_path):
        write_record(tmp_path / "fresh", "engine", sample_record(rps=250.0))
        write_record(tmp_path / "base", "engine", sample_record(rps=100.0))
        assert check(tmp_path / "fresh", tmp_path / "base", update=True) == 0
        refreshed = load_record(tmp_path / "base" / "BENCH_engine.json")
        assert (
            refreshed["sizes"]["3000"]["vector_convergecast_rounds_per_sec"]
            == 250.0
        )
        # And the refreshed baseline gates cleanly against itself.
        assert check(tmp_path / "fresh", tmp_path / "base") == 0

    def test_update_refuses_malformed_record(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / "BENCH_engine.json").write_text("{not json")
        with pytest.raises(MalformedRecord):
            check(fresh, tmp_path / "base", update=True)
        assert not (tmp_path / "base" / "BENCH_engine.json").exists()

    def test_custom_thresholds(self, tmp_path):
        write_record(tmp_path / "fresh", "engine", sample_record(rps=94.0))
        write_record(tmp_path / "base", "engine", sample_record(rps=100.0))
        assert (
            check(tmp_path / "fresh", tmp_path / "base", max_slowdown=0.05)
            == 1
        )


def scaled_leaves(record, kind: str, factor: float):
    """A copy of ``record`` with every ``kind`` metric multiplied by ``factor``."""
    if isinstance(record, dict):
        return {
            key: (
                value * factor
                if metric_kind(str(key)) == kind
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
                else scaled_leaves(value, kind, factor)
            )
            for key, value in record.items()
        }
    if isinstance(record, list):
        return [scaled_leaves(value, kind, factor) for value in record]
    return record


BASELINES = sorted(
    (Path(__file__).parent.parent / "benchmarks" / "baselines").glob("BENCH_*.json")
)


class TestGateSelfTest:
    """The gate, run on records derived from the committed baselines, must
    still catch a 2x slowdown and a 50% memory growth at its thresholds."""

    @pytest.mark.parametrize("baseline", BASELINES, ids=lambda p: p.stem)
    def test_half_throughput_fails(self, tmp_path, baseline, capsys):
        record = load_record(baseline)
        write_record(tmp_path / "base", "gate", record)
        write_record(
            tmp_path / "fresh", "gate", scaled_leaves(record, "throughput", 0.5)
        )
        argv = ["--fresh", str(tmp_path / "fresh"), "--baselines",
                str(tmp_path / "base"), "--repo-root", str(tmp_path)]
        assert main(argv) == 1
        assert "regressed" in capsys.readouterr().out

    @pytest.mark.parametrize("baseline", BASELINES, ids=lambda p: p.stem)
    def test_rss_plus_half_fails(self, tmp_path, baseline, capsys):
        record = load_record(baseline)
        write_record(tmp_path / "base", "gate", record)
        write_record(tmp_path / "fresh", "gate", scaled_leaves(record, "rss", 1.5))
        argv = ["--fresh", str(tmp_path / "fresh"), "--baselines",
                str(tmp_path / "base"), "--repo-root", str(tmp_path)]
        assert main(argv) == 1
        assert "grew" in capsys.readouterr().out

    @pytest.mark.parametrize("baseline", BASELINES, ids=lambda p: p.stem)
    def test_unchanged_record_passes(self, tmp_path, baseline):
        record = load_record(baseline)
        write_record(tmp_path / "base", "gate", record)
        write_record(tmp_path / "fresh", "gate", record)
        argv = ["--fresh", str(tmp_path / "fresh"), "--baselines",
                str(tmp_path / "base"), "--repo-root", str(tmp_path)]
        assert main(argv) == 0

    def test_baselines_carry_gated_metrics(self):
        assert len(BASELINES) == 4
        for baseline in BASELINES:
            kinds = {metric_kind(p) for p in numeric_leaves(load_record(baseline))}
            assert {"throughput", "rss"} <= kinds, baseline.name
