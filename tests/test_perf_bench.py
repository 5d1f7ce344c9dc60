"""Tests for the perf harness and regression gate (``repro bench``)."""

import json

import pytest

from repro.perf.gate import (DEFAULT_TOLERANCE, check_regression,
                             find_baseline, load_bench_file, run_gate)
from repro.perf.harness import (BENCH_SCHEMA_VERSION, CURRENT_BENCH_ID,
                                METRIC_DIRECTIONS, bench_file_name,
                                write_bench)


def make_payload(bench_id=CURRENT_BENCH_ID, **overrides):
    metrics = {
        "ci_smoke_cells_per_sec": 100.0,
        "litmus_tests_per_sec": 400.0,
        "fuzz_smoke_cells_per_sec": 300.0,
        "warm_cache_overhead_sec": 0.002,
    }
    metrics.update(overrides)
    return {"schema": BENCH_SCHEMA_VERSION, "bench_id": bench_id,
            "metrics": metrics}


# ------------------------------------------------------------ check_regression

def test_identical_payloads_pass():
    result = check_regression(make_payload(), make_payload())
    assert result.passed
    assert result.regressions == []
    assert len(result.comparisons) == len(METRIC_DIRECTIONS)


def test_throughput_drop_within_tolerance_passes():
    current = make_payload(ci_smoke_cells_per_sec=80.0)  # -20% < 35%
    result = check_regression(current, make_payload(), tolerance=0.35)
    assert result.passed


def test_throughput_drop_beyond_tolerance_fails():
    current = make_payload(ci_smoke_cells_per_sec=60.0)  # -40% > 35%
    result = check_regression(current, make_payload(), tolerance=0.35)
    assert not result.passed
    assert any("ci_smoke_cells_per_sec" in r for r in result.regressions)


def test_overhead_growth_within_tolerance_passes():
    current = make_payload(warm_cache_overhead_sec=0.0025)  # +25% < 35%
    result = check_regression(current, make_payload(), tolerance=0.35)
    assert result.passed


def test_overhead_growth_beyond_tolerance_fails():
    current = make_payload(warm_cache_overhead_sec=0.004)  # +100%
    result = check_regression(current, make_payload(), tolerance=0.35)
    assert not result.passed
    assert any("warm_cache_overhead_sec" in r for r in result.regressions)


def test_improvements_always_pass():
    current = make_payload(ci_smoke_cells_per_sec=500.0,
                           warm_cache_overhead_sec=0.0001)
    result = check_regression(current, make_payload(), tolerance=0.0)
    assert result.passed


def test_metric_on_one_side_warns_but_does_not_fail():
    current = make_payload()
    current["metrics"]["brand_new_metric"] = 1.0
    baseline = make_payload()
    del baseline["metrics"]["litmus_tests_per_sec"]
    result = check_regression(current, baseline)
    assert result.passed
    assert any("brand_new_metric" in w for w in result.warnings)
    assert any("litmus_tests_per_sec" in w for w in result.warnings)


def test_out_of_range_tolerance_rejected():
    with pytest.raises(ValueError):
        check_regression(make_payload(), make_payload(), tolerance=1.0)
    with pytest.raises(ValueError):
        check_regression(make_payload(), make_payload(), tolerance=-0.1)


# ------------------------------------------------- baselines & the full gate

def test_missing_baseline_is_a_pass_and_first_write_establishes_it(tmp_path):
    payload = make_payload()
    result = run_gate(payload, tmp_path)
    assert result.passed
    assert result.baseline_path is None
    assert any("first run" in line for line in result.comparisons)

    written = write_bench(payload, tmp_path)
    assert tmp_path / bench_file_name(CURRENT_BENCH_ID) in written
    baseline = tmp_path / "benchmarks" / "results" / \
        f"bench_{CURRENT_BENCH_ID}.json"
    assert baseline in written and baseline.exists()


def test_write_bench_never_silently_moves_the_baseline(tmp_path):
    write_bench(make_payload(ci_smoke_cells_per_sec=100.0), tmp_path)
    write_bench(make_payload(ci_smoke_cells_per_sec=999.0), tmp_path)

    baseline = tmp_path / "benchmarks" / "results" / \
        f"bench_{CURRENT_BENCH_ID}.json"
    kept = json.loads(baseline.read_text())
    assert kept["metrics"]["ci_smoke_cells_per_sec"] == 100.0  # first wins

    write_bench(make_payload(ci_smoke_cells_per_sec=999.0), tmp_path,
                update_baseline=True)
    moved = json.loads(baseline.read_text())
    assert moved["metrics"]["ci_smoke_cells_per_sec"] == 999.0


def test_gate_compares_against_committed_baseline_of_same_id(tmp_path):
    # CI re-measures bench_id N in a checkout that committed bench_N.json:
    # the gate must judge against that committed number.
    write_bench(make_payload(ci_smoke_cells_per_sec=100.0), tmp_path)
    (tmp_path / bench_file_name(CURRENT_BENCH_ID)).unlink()  # fresh checkout

    slow = make_payload(ci_smoke_cells_per_sec=10.0)
    result = run_gate(slow, tmp_path, tolerance=0.35)
    assert not result.passed
    assert result.baseline_path is not None
    assert result.baseline_path.name == f"bench_{CURRENT_BENCH_ID}.json"


def test_prior_root_bench_file_preferred_over_older_baseline(tmp_path):
    old = make_payload(bench_id=CURRENT_BENCH_ID - 2)
    (tmp_path / "benchmarks" / "results").mkdir(parents=True)
    (tmp_path / "benchmarks" / "results" /
     f"bench_{CURRENT_BENCH_ID - 2}.json").write_text(json.dumps(old))
    prior = make_payload(bench_id=CURRENT_BENCH_ID - 1)
    (tmp_path / bench_file_name(CURRENT_BENCH_ID - 1)).write_text(
        json.dumps(prior))

    found = find_baseline(tmp_path, CURRENT_BENCH_ID)
    assert found is not None
    assert found[0].name == bench_file_name(CURRENT_BENCH_ID - 1)


def test_malformed_bench_file_skipped_with_warning(tmp_path):
    (tmp_path / bench_file_name(CURRENT_BENCH_ID - 1)).write_text("{not json")
    valid = make_payload(bench_id=CURRENT_BENCH_ID - 2)
    (tmp_path / bench_file_name(CURRENT_BENCH_ID - 2)).write_text(
        json.dumps(valid))

    warnings = []
    found = find_baseline(tmp_path, CURRENT_BENCH_ID, warnings)
    assert found is not None
    assert found[0].name == bench_file_name(CURRENT_BENCH_ID - 2)
    assert any(bench_file_name(CURRENT_BENCH_ID - 1) in w for w in warnings)


def test_stale_schema_bench_file_skipped(tmp_path):
    stale = make_payload(bench_id=CURRENT_BENCH_ID - 1)
    stale["schema"] = BENCH_SCHEMA_VERSION + 1
    path = tmp_path / bench_file_name(CURRENT_BENCH_ID - 1)
    path.write_text(json.dumps(stale))

    warnings = []
    assert load_bench_file(path, warnings) is None
    assert any("schema" in w for w in warnings)
    assert find_baseline(tmp_path, CURRENT_BENCH_ID, []) is None


def test_bench_file_without_metrics_rejected(tmp_path):
    empty = {"schema": BENCH_SCHEMA_VERSION, "bench_id": 3, "metrics": {}}
    path = tmp_path / "BENCH_3.json"
    path.write_text(json.dumps(empty))
    warnings = []
    assert load_bench_file(path, warnings) is None
    assert any("no metrics" in w for w in warnings)


# ----------------------------------------------------------------- CLI wiring

def test_cli_bench_measures_gates_and_writes(tmp_path, capsys, monkeypatch):
    import repro.perf.harness as harness
    from repro.cli import main

    code = main(["bench", "--check", "--repeats", "1",
                 "--root", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "gate: PASS" in out
    assert (tmp_path / bench_file_name(CURRENT_BENCH_ID)).exists()
    baseline = tmp_path / "benchmarks" / "results" / \
        f"bench_{CURRENT_BENCH_ID}.json"
    assert baseline.exists()
    payload = json.loads(
        (tmp_path / bench_file_name(CURRENT_BENCH_ID)).read_text())
    assert payload["schema"] == BENCH_SCHEMA_VERSION
    assert set(METRIC_DIRECTIONS) <= set(payload["metrics"])

    # The gate is exercised on replayed payloads rather than a second
    # wall-clock measurement, so machine noise cannot decide the verdict.
    def replay(metrics):
        return lambda **_kwargs: {**payload, "metrics": metrics}

    # A replay of the measured run gates against the baseline it seeded.
    monkeypatch.setattr(harness, "run_bench", replay(payload["metrics"]))
    code = main(["bench", "--check", "--repeats", "1",
                 "--root", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "comparing against" in out
    assert "gate: PASS" in out

    # Twice the warm-cache overhead is a regression that names the metric.
    slower = dict(payload["metrics"])
    slower["warm_cache_overhead_sec"] *= 2
    monkeypatch.setattr(harness, "run_bench", replay(slower))
    code = main(["bench", "--check", "--repeats", "1",
                 "--root", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "warm_cache_overhead_sec regressed" in captured.err
    assert "gate: PASS" not in captured.out


def test_cli_bench_default_tolerance_resolved():
    from repro.cli import build_parser

    args = build_parser().parse_args(["bench"])
    assert args.tolerance is None  # resolved to DEFAULT_TOLERANCE in main()
    assert DEFAULT_TOLERANCE == 0.35
