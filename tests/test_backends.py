"""Tests for sharded execution and the shard pipeline.

Two properties are load-bearing:

* **Placement neutrality** — a sharded run of a cell list must produce
  byte-identical ``SystemStats`` payloads to an unsharded one; the shard
  is an execution-placement decision, never a results decision.  A cell
  that fails validation never discards its siblings' cached results.
* **Coordinator-free sharding** — the cell→shard assignment is a pure
  function of the content-addressed cache key, so N independent ``shard
  run`` invocations cover every cell exactly once and their result
  directories merge back into a cache that serves an unsharded run with
  zero new simulations.  The end-to-end pipeline is verified against the
  pre-refactor goldens in ``tests/goldens/``.
"""

import json
from pathlib import Path

import pytest

from _helpers import make_tiny_config
from repro.analysis.parallel import MatrixExecutor, ResultCache, cell_key
from repro.analysis.shard import (merge_results, missing_cells, plan_sweep,
                                  resolve_shard, shard_of_key)
from repro.analysis.sweeps import SweepSpec
from repro.cli import main
from repro.sim.config import SystemConfig

GOLDEN_DIR = Path(__file__).parent / "goldens"

PROTOCOLS = ["MESI", "TSO-CC-4-12-3"]
WORKLOADS = ["fft", "intruder"]
SCALE = 0.2
CELLS = [(p, w) for p in PROTOCOLS for w in WORKLOADS]


@pytest.fixture(autouse=True)
def _clean_shard_env(monkeypatch):
    """Shard coordinates from the environment must not leak into (or out
    of) tests."""
    monkeypatch.delenv("REPRO_SHARD", raising=False)


def canonical(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


def tiny_sweep(**overrides) -> SweepSpec:
    base = dict(
        name="tiny-shard-sweep",
        description="shard determinism fixture",
        protocols=tuple(PROTOCOLS),
        workloads=tuple(WORKLOADS),
        cores=(2,),
        scales=(SCALE,),
        metrics=("cycles", "flits"),
    )
    base.update(overrides)
    return SweepSpec(**base)


# ------------------------------------------------------------------ coordinates

def test_resolve_shard_flags_env_and_errors(monkeypatch):
    assert resolve_shard() is None
    assert resolve_shard(2, 5) == (2, 5)
    monkeypatch.setenv("REPRO_SHARD", "0/3")
    assert resolve_shard() == (0, 3)
    monkeypatch.setenv("REPRO_SHARD", "junk")
    with pytest.raises(ValueError, match="REPRO_SHARD"):
        resolve_shard()
    with pytest.raises(ValueError, match="together"):
        resolve_shard(1, None)
    with pytest.raises(ValueError, match="outside"):
        resolve_shard(4, 4)
    with pytest.raises(ValueError, match=">= 1"):
        resolve_shard(0, 0)


# ------------------------------------------------------------------ execution

def test_batched_failure_keeps_sibling_cells_cached(tmp_path, monkeypatch):
    """One invalid cell must not discard its siblings: inline (``jobs=1``)
    and on the process pool (``jobs=2``), every valid cell is simulated
    and cached before the validation error is raised."""
    import repro.analysis.parallel as parallel
    from repro.analysis.parallel import WorkloadValidationError

    real = parallel.simulate_cell

    def failing(config, protocol, workload_name, scale, max_cycles):
        if workload_name == "intruder" and protocol == "MESI":
            raise WorkloadValidationError("injected failure")
        return real(config, protocol, workload_name, scale, max_cycles)

    # Pool workers are forked, so they inherit the patched simulate_cell.
    monkeypatch.setattr(parallel, "simulate_cell", failing)
    for jobs in (1, 2):
        root = tmp_path / f"jobs-{jobs}"
        executor = MatrixExecutor(make_tiny_config(), scale=SCALE, jobs=jobs,
                                  cache=ResultCache(root))
        with pytest.raises(WorkloadValidationError, match="injected"):
            executor.run_cells(CELLS)
        # The three valid siblings of the failing cell were cached anyway.
        assert executor.simulations_run == len(CELLS) - 1, jobs
        assert sum(1 for _ in root.glob("*/*.json")) == len(CELLS) - 1, jobs


def test_sharded_union_matches_local_without_cache():
    """Shards partition the cell list even with the cache disabled (keys
    are computed on the fly) and reproduce local payloads byte-for-byte."""
    config = make_tiny_config()
    reference = MatrixExecutor(config, scale=SCALE, jobs=1).run_cells(CELLS)
    seen = {}
    for index in range(3):
        executor = MatrixExecutor(config, scale=SCALE, jobs=1,
                                  shard=(index, 3))
        results = executor.run_cells(CELLS)
        assert not set(results) & set(seen), "shards must be disjoint"
        seen.update(results)
    assert sorted(seen) == sorted(CELLS)
    for cell in CELLS:
        assert canonical(seen[cell]) == canonical(reference[cell])


def test_executor_run_cell_reports_shard_misses():
    config = make_tiny_config()
    key = cell_key(config, "MESI", "fft", SCALE, 200_000_000)
    other = (shard_of_key(key, 2) + 1) % 2
    executor = MatrixExecutor(config, scale=SCALE, jobs=1,
                              shard=(other, 2))
    with pytest.raises(KeyError, match="sharded"):
        executor.run_cell("fft", "MESI")
    # run_matrix needs every cell, so a sharded executor must explain the
    # hole rather than surface a bare KeyError.
    with pytest.raises(KeyError, match="sharded"):
        executor.run_matrix(["MESI"], ["fft"])


# ------------------------------------------------------------------ planning

def test_shard_of_key_is_pure_and_in_range():
    key = "ab" * 32
    assert shard_of_key(key, 4) == shard_of_key(key, 4) == int(key, 16) % 4
    for count in (1, 2, 7):
        assert 0 <= shard_of_key(key, count) < count
    with pytest.raises(ValueError):
        shard_of_key(key, 0)


def test_plan_is_disjoint_complete_and_deterministic():
    spec = tiny_sweep(cores=(2, 4), scales=(0.2, 0.3))
    plan = plan_sweep(spec, shard_count=4)
    assert plan.shard_count == 4
    assert len(plan.cells) == spec.num_cells
    # Disjoint cover: every cell appears in exactly one shard.
    by_shard = [plan.shard_cells(i) for i in range(4)]
    assert sum(len(cells) for cells in by_shard) == spec.num_cells
    assert sum(plan.shard_sizes()) == spec.num_cells
    flattened = [cell for cells in by_shard for cell in cells]
    assert sorted(c.key for c in flattened) == sorted(c.key for c in plan.cells)
    assert len({c.key for c in plan.cells}) == spec.num_cells
    # Deterministic: a recomputed plan is identical (no coordinator needed).
    assert plan_sweep(spec, shard_count=4) == plan
    # The assignment is per-key, so the executor-side filter agrees with
    # the planner for every cell.
    for cell in plan.cells:
        assert cell.shard == shard_of_key(cell.key, 4)


def test_plan_keys_match_result_cache_keys():
    spec = tiny_sweep()
    cache = ResultCache(Path("/nonexistent"), enabled=False)
    plan = plan_sweep(spec, shard_count=2)
    for cell in plan.cells:
        expected = cache.key(SystemConfig().scaled(num_cores=cell.cores),
                             cell.protocol, cell.workload, cell.scale,
                             spec.max_cycles)
        assert cell.key == expected


# ------------------------------------------------------------------ merge

def test_merge_reports_duplicates_and_invalid_entries(tmp_path):
    config = make_tiny_config()
    source = ResultCache(tmp_path / "source")
    MatrixExecutor(config, scale=SCALE, jobs=1,
                   cache=source).run_cells(CELLS[:2])
    # A corrupt entry and a stale-schema entry must be counted, not merged.
    bad_dir = tmp_path / "source" / "zz"
    bad_dir.mkdir()
    (bad_dir / ("f" * 64 + ".json")).write_text("{ not json", encoding="utf-8")
    (bad_dir / ("e" * 64 + ".json")).write_text('{"schema": -1}',
                                                encoding="utf-8")

    dest = ResultCache(tmp_path / "dest")
    report = merge_results([tmp_path / "source"], dest)
    assert (report.merged, report.already_present, report.invalid) == (2, 0, 2)
    again = merge_results([tmp_path / "source"], dest)
    assert (again.merged, again.already_present, again.invalid) == (0, 2, 2)


# ----------------------------------------------------- end-to-end vs goldens

GOLDEN_SPEC = SweepSpec(
    name="golden-shard-check",
    description="sharded pipeline must reproduce the pre-refactor goldens",
    protocols=("MESI", "TSO-CC-4-12-3"),
    workloads=("fft",),
    cores=(4,),
    scales=(0.5,),
    max_cycles=50_000_000,
)

GOLDEN_FILES = {
    ("MESI", "fft"): "mesi_fft.json",
    ("TSO-CC-4-12-3", "fft"): "tso_cc_4_12_3_fft.json",
}


def test_shard_run_merge_reproduces_unsharded_run_and_goldens(tmp_path):
    """The acceptance pipeline: run every shard independently, merge the
    shard result directories, and the merged cache must (a) cover the sweep
    completely, (b) serve an unsharded run with zero new simulations, and
    (c) hold payloads byte-identical to the pre-refactor goldens."""
    shard_count = 3
    plan = plan_sweep(GOLDEN_SPEC, shard_count)
    assert sum(plan.shard_sizes()) == GOLDEN_SPEC.num_cells

    shard_dirs = []
    executed = 0
    for index in range(shard_count):
        shard_dir = tmp_path / f"shard-{index}"
        result = GOLDEN_SPEC.run(jobs=1, cache=ResultCache(shard_dir),
                                 shard=(index, shard_count))
        assert result.simulations_run == len(plan.shard_cells(index))
        assert result.complete == (len(plan.shard_cells(index))
                                   == GOLDEN_SPEC.num_cells)
        executed += result.simulations_run
        shard_dirs.append(shard_dir)
    assert executed == GOLDEN_SPEC.num_cells

    merged = ResultCache(tmp_path / "merged")
    assert missing_cells(GOLDEN_SPEC, merged)       # nothing there yet
    report = merge_results(shard_dirs, merged)
    assert report.merged == GOLDEN_SPEC.num_cells
    assert report.invalid == 0
    assert missing_cells(GOLDEN_SPEC, merged) == []  # (a) complete cover

    unsharded = GOLDEN_SPEC.run(jobs=1, cache=merged)
    assert unsharded.simulations_run == 0            # (b) all from cache
    assert unsharded.complete

    for (protocol, workload), golden in GOLDEN_FILES.items():
        stats = unsharded.stats[(protocol, workload, 4, 0.5)]
        expected = json.loads((GOLDEN_DIR / golden).read_text(encoding="utf-8"))
        assert json.dumps(stats.to_dict(), sort_keys=True) == \
            json.dumps(expected, sort_keys=True), (protocol, workload)  # (c)


def test_partial_sweep_result_refuses_mix_aggregation(tmp_path):
    spec = tiny_sweep(workloads=("fft",))
    # Hash assignment is not balanced; find a (count, index) that yields a
    # strict subset of the cells.
    index = shard_count = None
    for count in range(2, 6):
        plan = plan_sweep(spec, count)
        partial = [i for i in range(count)
                   if 0 < len(plan.shard_cells(i)) < spec.num_cells]
        if partial:
            index, shard_count = partial[0], count
            break
    assert index is not None, "no partial shard found for the fixture spec"
    result = spec.run(jobs=1, shard=(index, shard_count))
    assert not result.complete
    with pytest.raises(ValueError, match="partial"):
        result.rows()
    # Tabulation silently falls back to the per-cell grain.
    table = result.tabulate()
    assert "workload" in table


# ------------------------------------------------------------------ CLI

def test_cli_shard_plan_prints_disjoint_assignment(capsys):
    code = main(["shard", "plan", "ci-smoke", "--shard-count", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep ci-smoke: 8 cells over 4 shards" in out
    sizes = next(line for line in out.splitlines()
                 if line.startswith("cells per shard: "))
    counts = [int(item.split(":")[1])
              for item in sizes[len("cells per shard: "):].split(", ")]
    assert len(counts) == 4 and sum(counts) == 8  # ci-smoke: full cover


def test_cli_shard_plan_needs_a_count(capsys):
    assert main(["shard", "plan", "ci-smoke"]) == 2
    assert "--shard-count" in capsys.readouterr().err


def test_cli_shard_plan_unknown_sweep(capsys):
    assert main(["shard", "plan", "not-a-sweep", "--shard-count", "2"]) == 2


def test_cli_shard_plan_and_run_reject_unregistered_protocols(capsys):
    """A --protocols typo must fail at plan time — not emit manifests whose
    shard jobs can only crash later — and exit 2 from shard run too."""
    assert main(["shard", "plan", "ci-smoke", "--shard-count", "2",
                 "--protocols", "BOGUS"]) == 2
    assert "BOGUS" in capsys.readouterr().err
    assert main(["shard", "run", "ci-smoke", "--shard-index", "0",
                 "--shard-count", "2", "--protocols", "BOGUS",
                 "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "BOGUS" in err and "Traceback" not in err


def test_cli_shard_run_and_merge_round_trip(tmp_path, capsys):
    """CLI pipeline over a two-cell subset: every shard runs, the merge
    completes the sweep, and an incomplete merge exits non-zero."""
    overrides = ["--protocols", "MESI,TSO-CC-4-12-3", "--workloads", "fft",
                 "--cores", "2", "--scales", "0.2"]
    shard_dirs = [str(tmp_path / f"shard-{i}") for i in range(2)]
    for index in range(2):
        code = main(["shard", "run", "ci-smoke", "--shard-index", str(index),
                     "--shard-count", "2", "--jobs", "1",
                     "--cache-dir", shard_dirs[index]] + overrides)
        assert code == 0
        assert "shard {}/2".format(index) in capsys.readouterr().out

    counts = [sum(1 for _ in Path(d).glob("*/*.json")) for d in shard_dirs]
    assert sum(counts) == 2  # every cell ran in exactly one shard

    # Merging only the first shard must be reported as incomplete (unless
    # that shard happened to own both cells) ...
    merged = str(tmp_path / "merged")
    first_only = main(["shard", "merge", "ci-smoke", "--from", shard_dirs[0],
                       "--cache-dir", merged] + overrides)
    output = capsys.readouterr()
    if counts[0] < 2:
        assert first_only == 1
        assert "INCOMPLETE" in output.err
    else:
        assert first_only == 0

    # ... and merging every shard always completes the sweep.
    all_cells = main(["shard", "merge", "ci-smoke", "--from", shard_dirs[0],
                      "--from", shard_dirs[1], "--cache-dir", merged]
                     + overrides)
    output = capsys.readouterr()
    assert all_cells == 0
    assert "complete" in output.out

    # The merged cache serves the unsharded sweep with zero simulations.
    code = main(["sweep", "ci-smoke", "--jobs", "1", "--cache-dir", merged]
                + overrides)
    assert code == 0
    assert "0 simulated" in capsys.readouterr().out


def test_cli_shard_run_requires_coordinates(capsys):
    assert main(["shard", "run", "ci-smoke", "--jobs", "1"]) == 2
    assert "shard" in capsys.readouterr().err


def test_cli_sweep_accepts_shard_flags(tmp_path, capsys):
    code = main(["sweep", "ci-smoke", "--protocols", "MESI,TSO-CC-4-12-3",
                 "--workloads", "fft", "--shard-index", "0",
                 "--shard-count", "2", "--jobs", "1",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "of 2 cells executed" in out


def test_cli_sweep_rejects_half_specified_shard(capsys):
    assert main(["sweep", "ci-smoke", "--shard-index", "0",
                 "--no-cache"]) == 2
    assert "together" in capsys.readouterr().err


def test_cli_figure_refuses_sharded_execution(monkeypatch, capsys):
    """Figures need every cell; a sharded figure run must be refused up
    front with a clean message, not crash mid-matrix."""
    monkeypatch.setenv("REPRO_SHARD", "0/2")
    code = main(["figure", "3", "--workloads", "fft", "--cores", "2",
                 "--scale", "0.2", "--protocols", "MESI,TSO-CC-4-basic",
                 "--no-cache"])
    assert code == 2
    err = capsys.readouterr().err
    assert "REPRO_SHARD" in err and "Traceback" not in err


def test_cli_shard_merge_rejects_bad_overrides_before_merging(tmp_path, capsys):
    dest = tmp_path / "dest"
    code = main(["shard", "merge", "ci-smoke", "--from", str(tmp_path),
                 "--cache-dir", str(dest), "--cores", "abc"])
    assert code == 2
    assert not dest.exists()  # nothing was merged before the failure


def test_cli_shard_plan_rejects_nonpositive_count(capsys):
    assert main(["shard", "plan", "ci-smoke", "--shard-count", "0"]) == 2
    assert ">= 1" in capsys.readouterr().err


def test_cli_sweep_rejects_malformed_axis_overrides(capsys):
    assert main(["sweep", "ci-smoke", "--cores", "abc", "--no-cache"]) == 2
    assert "abc" in capsys.readouterr().err


def test_merge_replaces_corrupt_destination_entries(tmp_path):
    config = make_tiny_config()
    source = ResultCache(tmp_path / "source")
    MatrixExecutor(config, scale=SCALE, jobs=1,
                   cache=source).run_cells(CELLS[:1])
    key_path = next((tmp_path / "source").glob("*/*.json"))
    dest = ResultCache(tmp_path / "dest")
    corrupt = dest.path(key_path.stem)
    corrupt.parent.mkdir(parents=True)
    corrupt.write_text("{ truncated", encoding="utf-8")

    assert merge_results([tmp_path / "source"], dest).merged == 1
    assert _stats_schema() == json.loads(
        corrupt.read_text(encoding="utf-8"))["schema"]  # replaced, valid


def _stats_schema():
    from repro.sim.stats import STATS_SCHEMA_VERSION
    return STATS_SCHEMA_VERSION


def test_missing_cells_treats_corrupt_entries_as_missing(tmp_path):
    spec = tiny_sweep(workloads=("fft",))
    cache = ResultCache(tmp_path)
    plan = plan_sweep(spec, 1)
    assert len(missing_cells(spec, cache)) == spec.num_cells
    # A present-but-corrupt entry must still count as missing.
    bad = cache.path(plan.cells[0].key)
    bad.parent.mkdir(parents=True)
    bad.write_text("{ truncated", encoding="utf-8")
    assert len(missing_cells(spec, cache)) == spec.num_cells


def test_merge_fails_loudly_on_unwritable_destination(tmp_path, capsys):
    config = make_tiny_config()
    source = ResultCache(tmp_path / "source")
    MatrixExecutor(config, scale=SCALE, jobs=1,
                   cache=source).run_cells(CELLS[:1])
    # API level: a disabled destination is rejected outright ...
    with pytest.raises(ValueError, match="disabled"):
        merge_results([tmp_path / "source"],
                      ResultCache(tmp_path / "dest", enabled=False))
    # ... and a destination that cannot be written (here: a file in the
    # way) fails the merge instead of reporting entries as merged.
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory", encoding="utf-8")
    code = main(["shard", "merge", "--from", str(tmp_path / "source"),
                 "--cache-dir", str(blocked)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_cli_run_sharded_prints_skipped_cells(capsys):
    config = SystemConfig().scaled(num_cores=2)
    key = cell_key(config, "MESI", "fft", 0.2, 200_000_000)
    other = (shard_of_key(key, 2) + 1) % 2
    code = main(["run", "fft", "--protocol", "MESI", "--cores", "2",
                 "--scale", "0.2", "--no-cache",
                 "--shard-index", str(other), "--shard-count", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "skipped by shard backend: MESI" in out
