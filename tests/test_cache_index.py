"""Unit tests for the cache tree scan, the hit signal, GC policies and
the ``repro cache`` CLI.

The tree is the only cache state: these tests pin what a scan reads from
entry files (kind, size, created = mtime, last hit = max(atime, mtime)),
the atime touch of a hit, the LRU/age/kind eviction policies, and the CLI
exit-code contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

import repro.analysis.parallel as parallel
from repro.analysis.cache_gc import (collect_garbage, iter_entry_files,
                                     read_entry, scan_entries)
from repro.analysis.parallel import ResultCache
from repro.cli import main, parse_age, parse_bytes
from repro.sim.stats import STATS_SCHEMA_VERSION


def _key(i: int) -> str:
    return hashlib.sha256(f"cell-{i}".encode("utf-8")).hexdigest()


def _payload(i: int, kind: str = "stats", filler: int = 0):
    payload = {
        "schema": STATS_SCHEMA_VERSION,
        "workload": f"wl-{i}",
        "protocol": "MESI",
        "filler": "x" * filler,
    }
    if kind != "stats":
        payload["kind"] = kind
    return payload


def _write_entry(root, key, payload) -> int:
    """Write one entry file exactly as ``ResultCache.put`` lays it out."""
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(payload, sort_keys=True)
    path.write_text(blob, encoding="utf-8")
    return len(blob.encode("utf-8"))


def _seed_times(root, key, created: float, hit: float) -> None:
    """Set an entry's creation (mtime) and last-hit (atime) times."""
    os.utime(root / key[:2] / f"{key}.json", (hit, created))


# --------------------------------------------------------------------- scan


def test_index_file_is_invisible_to_entry_scans(tmp_path):
    # A root-level file, such as a metadata index left behind by an older
    # version, is never an entry.
    _write_entry(tmp_path, _key(0), _payload(0))
    (tmp_path / "index.json").write_text('{"schema": 1, "entries": {}}',
                                         encoding="utf-8")
    assert [p.stem for p in iter_entry_files(tmp_path)] == [_key(0)]
    assert [entry.key for entry in scan_entries(tmp_path)] == [_key(0)]


def test_stats_totals_match_tree_walk(tmp_path):
    expect_bytes = {"stats": 0, "cachetest": 0}
    expect_counts = {"stats": 0, "cachetest": 0}
    for i in range(5):
        kind = "stats" if i % 2 == 0 else "cachetest"
        size = _write_entry(tmp_path, _key(i), _payload(i, kind=kind, filler=i))
        _seed_times(tmp_path, _key(i), created=float(i), hit=float(i))
        expect_bytes[kind] += size
        expect_counts[kind] += 1
    entries = scan_entries(tmp_path)
    walked = sum(p.stat().st_size for p in iter_entry_files(tmp_path))
    assert sum(entry.size for entry in entries) == walked
    for kind in expect_counts:
        of_kind = [entry for entry in entries if entry.kind == kind]
        assert len(of_kind) == expect_counts[kind]
        assert sum(entry.size for entry in of_kind) == expect_bytes[kind]
    stats_hits = [entry.last_hit for entry in entries if entry.kind == "stats"]
    assert min(stats_hits) == 0.0
    assert max(stats_hits) == 4.0


def test_scan_reads_kind_summary_and_timestamps(tmp_path):
    size = _write_entry(tmp_path, _key(0), _payload(0, kind="cachetest"))
    _seed_times(tmp_path, _key(0), created=100.0, hit=250.0)
    _write_entry(tmp_path, _key(1), _payload(1))
    _seed_times(tmp_path, _key(1), created=300.0, hit=200.0)  # never hit
    torn = tmp_path / "cc" / f"{_key(2)}.json"
    torn.parent.mkdir(parents=True, exist_ok=True)
    torn.write_text('{"schema": 1, "torn', encoding="utf-8")

    entries = {entry.key: entry for entry in scan_entries(tmp_path)}
    first = entries[_key(0)]
    assert (first.kind, first.size, first.workload, first.protocol) == \
        ("cachetest", size, "wl-0", "MESI")
    assert (first.created, first.last_hit) == (100.0, 250.0)
    assert entries[_key(1)].kind == "stats"
    assert entries[_key(1)].last_hit == 300.0  # max(atime, mtime)
    assert entries[_key(2)].kind == "?"         # evictable under any filter


def test_inspecting_entries_is_not_a_hit(tmp_path):
    """Only ``ResultCache.get`` moves the last-hit signal: scans and
    report reads leave an entry's atime where it was."""
    _write_entry(tmp_path, _key(0), _payload(0))
    _seed_times(tmp_path, _key(0), created=2000.0, hit=1000.0)
    path = tmp_path / _key(0)[:2] / f"{_key(0)}.json"
    scan_entries(tmp_path)
    read_entry(path)
    assert os.stat(path).st_atime == 1000.0


# ----------------------------------------------------------------------- GC


def _populate(tmp_path, count: int, kind: str = "stats"):
    """``count`` entries with last_hit == i (strictly increasing ages)."""
    sizes = {}
    for i in range(count):
        key = _key(i)
        sizes[key] = _write_entry(tmp_path, key, _payload(i, kind=kind,
                                                          filler=10))
        _seed_times(tmp_path, key, created=float(i), hit=float(i))
    return sizes


def test_gc_max_age_never_removes_entries_newer_than_cutoff(tmp_path):
    _populate(tmp_path, 6)
    report = collect_garbage(tmp_path, max_age=3.0, now=6.0)
    # cutoff = 3.0: entries with last_hit 0,1,2 go; 3,4,5 stay.
    assert sorted(report.removed) == sorted(_key(i) for i in range(3))
    survivors = {p.stem for p in iter_entry_files(tmp_path)}
    assert survivors == {_key(i) for i in range(3, 6)}


def test_gc_max_bytes_evicts_lru_first(tmp_path):
    sizes = _populate(tmp_path, 5)
    per_entry = next(iter(sizes.values()))
    budget = 2 * per_entry  # keep the two most recently hit
    report = collect_garbage(tmp_path, max_bytes=budget, now=10.0)
    assert sorted(report.removed) == sorted(_key(i) for i in range(3))
    assert report.remaining_bytes <= budget
    assert report.remaining_entries == 2
    assert {p.stem for p in iter_entry_files(tmp_path)} == {_key(3), _key(4)}


def test_gc_recent_hit_rescues_an_old_entry(tmp_path):
    sizes = _populate(tmp_path, 4)
    # The oldest entry becomes the hottest.
    _seed_times(tmp_path, _key(0), created=0.0, hit=100.0)
    per_entry = next(iter(sizes.values()))
    report = collect_garbage(tmp_path, max_bytes=2 * per_entry, now=200.0)
    assert _key(0) not in report.removed
    assert {p.stem for p in iter_entry_files(tmp_path)} == {_key(0), _key(3)}


def test_gc_kind_filter_restricts_eviction_but_counts_all_bytes(tmp_path):
    sizes = {}
    for i in range(4):
        kind = "stats" if i < 2 else "cachetest"
        key = _key(i)
        sizes[key] = _write_entry(tmp_path, key, _payload(i, kind=kind,
                                                          filler=10))
        _seed_times(tmp_path, key, created=float(i), hit=float(i))
    report = collect_garbage(tmp_path, max_bytes=0, kinds=["cachetest"],
                             now=10.0)
    # Only cachetest entries are evictable; the stats entries survive and
    # keep the remaining total above the (impossible) zero budget.
    assert sorted(report.removed) == sorted([_key(2), _key(3)])
    assert {p.stem for p in iter_entry_files(tmp_path)} == {_key(0), _key(1)}
    assert report.remaining_bytes == sum(sizes[_key(i)] for i in range(2))


def test_gc_dry_run_removes_nothing(tmp_path):
    _populate(tmp_path, 3)
    report = collect_garbage(tmp_path, max_age=0.0, now=100.0, dry_run=True)
    assert report.dry_run
    assert len(report.removed) == 3
    assert "would remove" in report.describe()
    assert len(list(iter_entry_files(tmp_path))) == 3


def test_gc_reaps_orphaned_tmps_past_grace_only(tmp_path):
    _populate(tmp_path, 1)
    subdir = tmp_path / _key(0)[:2]
    stale = subdir / f"{_key(5)}.4242.tmp"
    stale.write_text("{", encoding="utf-8")
    os.utime(stale, (0.0, 0.0))  # ancient
    fresh = subdir / f"{_key(6)}.4243.tmp"
    fresh.write_text("{", encoding="utf-8")  # mtime = now: mid-put writer

    # No eviction policy: the pass only reaps orphaned tmp files.
    report = collect_garbage(tmp_path)
    assert report.tmps_removed == 1
    assert not stale.exists()
    assert fresh.exists()
    assert len(list(iter_entry_files(tmp_path))) == 1


def test_gc_without_index_falls_back_to_mtimes(tmp_path):
    for i in range(2):
        _write_entry(tmp_path, _key(i), _payload(i))
    old = tmp_path / _key(0)[:2] / f"{_key(0)}.json"
    os.utime(old, (1.0, 1.0))
    report = collect_garbage(tmp_path, max_age=1000.0)
    assert report.removed == [_key(0)]
    assert {p.stem for p in iter_entry_files(tmp_path)} == {_key(1)}


# --------------------------------------------------------- ResultCache glue


def test_hit_raises_atime_and_keeps_mtime(tmp_path):
    cache = ResultCache(tmp_path)
    key = _key(0)
    cache.put(key, _payload(0))
    created = cache.path(key).stat().st_mtime_ns
    hit_time = time.time_ns()
    assert cache.get(key) == _payload(0)
    stat = cache.path(key).stat()
    assert stat.st_mtime_ns == created
    assert stat.st_atime_ns >= hit_time


def test_hit_survives_a_failed_touch(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    key = _key(0)
    cache.put(key, _payload(0))

    def refuse(*args, **kwargs):
        raise OSError(30, "Read-only file system")

    monkeypatch.setattr(parallel.os, "utime", refuse)
    assert cache.get(key) == _payload(0)
    assert (cache.hits, cache.misses) == (1, 0)
    assert cache.path(key).exists()


# ------------------------------------------------------------------ the CLI


def test_parse_bytes_and_age_suffixes():
    assert parse_bytes("1048576") == 1 << 20
    assert parse_bytes("64M") == 64 << 20
    assert parse_bytes("2g") == 2 << 30
    assert parse_bytes("10K") == 10 << 10
    assert parse_age("3600") == 3600.0
    assert parse_age("90m") == 5400.0
    assert parse_age("12h") == 43200.0
    assert parse_age("7d") == 7 * 86400.0
    # Non-positive budgets/ages would mean "evict everything"; they are
    # rejected like any malformed value.
    for bad in ("", "garbage", "12q", "0", "-64M", "-1"):
        with pytest.raises(ValueError):
            parse_bytes(bad)
        with pytest.raises(ValueError):
            parse_age(bad)


def test_cache_cli_stats_ls_verify_rebuild_roundtrip(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    for i in range(3):
        cache.put(_key(i), _payload(i))
    root = str(tmp_path)

    assert main(["cache", "stats", "--cache-dir", root]) == 0
    out = capsys.readouterr().out
    assert "stats" in out and "TOTAL" in out

    assert main(["cache", "ls", "--cache-dir", root, "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert _key(0)[:12] in out or _key(1)[:12] in out or _key(2)[:12] in out


def test_cache_cli_gc_policies_and_exit_codes(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    for i in range(3):
        cache.put(_key(i), _payload(i))
    root = str(tmp_path)

    # No policy and not a dry run: refuse.
    assert main(["cache", "gc", "--cache-dir", root]) == 2
    assert "needs --max-bytes" in capsys.readouterr().err
    # Malformed budget: refuse.
    assert main(["cache", "gc", "--cache-dir", root, "--max-bytes", "9x"]) == 2
    capsys.readouterr()
    # A non-positive budget is malformed too, not "evict everything".
    assert main(["cache", "gc", "--cache-dir", root, "--max-bytes=-64M"]) == 2
    assert "malformed size" in capsys.readouterr().err
    assert main(["cache", "gc", "--cache-dir", root, "--max-age", "0"]) == 2
    assert "malformed age" in capsys.readouterr().err
    assert sorted(p.stem for p in iter_entry_files(tmp_path)) \
        == sorted(_key(i) for i in range(3))
    # Dry run previews without a policy.
    assert main(["cache", "gc", "--cache-dir", root, "--dry-run"]) == 0
    assert "would remove" in capsys.readouterr().out
    # An unreachable byte budget empties the tree (kind-filtered to prove
    # flag plumbing; every entry here is "stats").
    assert main(["cache", "gc", "--cache-dir", root, "--max-bytes", "1",
                 "--kind", "stats"]) == 0
    assert "removed 3 of 3" in capsys.readouterr().out
    assert list(iter_entry_files(tmp_path)) == []
