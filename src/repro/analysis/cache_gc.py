"""Inspection and garbage collection of the content-addressed result cache.

The :class:`~repro.analysis.parallel.ResultCache` tree is the *product*
every subsystem funnels through — sweeps, fuzz campaigns, shard merges and
reports all read and write ``<root>/<key[:2]>/<key>.json`` entries.  The
tree is also the only cache state: everything ``repro cache stats``,
``ls`` and ``gc`` report or decide on comes from the entry files.

* An entry's **kind, size and summary** come from the entry file itself
  (:func:`scan_entries` parses each one).
* **Created** is the file's mtime.  ``ResultCache.put`` sets it, and
  nothing else changes it.
* **Last hit** is ``max(atime, mtime)``.  ``ResultCache.get`` sets the
  atime of every entry it serves; the readers here open entries with
  ``O_NOATIME`` where the platform allows it, so inspecting a cache is
  never mistaken for a hit.

Timestamps are LRU hints.  A lost touch (a read-only root, an entry owned
by another user) can only make an entry *look* colder than it is; GC
against a cutoff never removes an entry whose last hit is newer than the
cutoff.  A file at the cache root, such as a metadata index left by an
older version, is never an entry and may be deleted.

See the "Managing the result cache" guide in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: ``os.O_NOATIME`` where the platform has it (Linux), else no flag.
_O_NOATIME = getattr(os, "O_NOATIME", 0)


def iter_entry_files(root: Union[str, Path]) -> Iterator[Path]:
    """Entry files of a cache tree, in deterministic order.  Only
    ``<subdir>/<name>.json`` files count — per-pid ``*.tmp`` files and
    root-level files are never entries."""
    yield from sorted(Path(root).glob("*/*.json"))


def _read(path: Path) -> Tuple[os.stat_result, object]:
    """``(stat, parsed JSON or None)`` of one entry file, read without
    advancing its atime (the last-hit signal).  ``O_NOATIME`` is refused
    for files the caller does not own; those are read plainly.

    Raises:
        OSError: the file cannot be opened (e.g. a concurrent GC removed
            it).
    """
    try:
        fd = os.open(path, os.O_RDONLY | _O_NOATIME)
    except PermissionError:
        fd = os.open(path, os.O_RDONLY)
    with open(fd, encoding="utf-8") as handle:
        stat = os.fstat(fd)
        try:
            return stat, json.load(handle)
        except ValueError:
            return stat, None


def read_entry(path: Path) -> Optional[Dict[str, object]]:
    """Read one cache entry file **without mutating anything** — unlike
    ``ResultCache.get`` this never unlinks a torn entry or counts as a
    hit, so reports, diffs and merges are safe over foreign snapshots.
    Returns ``None`` for a missing file, unreadable JSON or a payload that
    is stale/alien for its own declared kind."""
    from repro.analysis.parallel import payload_is_current

    try:
        _, payload = _read(path)
    except OSError:
        return None
    return payload if payload_is_current(payload) else None


@dataclass(frozen=True)
class CacheEntry:
    """What the tree says about one entry file.

    Attributes:
        kind: the payload's cell kind, or ``"?"`` for a file that is not a
            JSON object (evictable under any kind filter).
        created: the file's mtime.
        last_hit: ``max(atime, mtime)``.
    """

    key: str
    path: Path
    kind: str
    size: int
    created: float
    last_hit: float
    workload: str
    protocol: str


def scan_entries(root: Union[str, Path]) -> List[CacheEntry]:
    """Every entry file of the tree at ``root``, in key order.  Files that
    vanish mid-scan are skipped."""
    entries = []
    for path in iter_entry_files(root):
        try:
            stat, payload = _read(path)
        except OSError:
            continue
        if isinstance(payload, dict):
            kind = payload.get("kind", "stats")
            kind = kind if isinstance(kind, str) else "?"
        else:
            kind, payload = "?", {}
        entries.append(CacheEntry(
            key=path.stem, path=path, kind=kind, size=stat.st_size,
            created=stat.st_mtime,
            last_hit=max(stat.st_atime, stat.st_mtime),
            workload=str(payload.get("workload", "")),
            protocol=str(payload.get("protocol", ""))))
    return entries


# ------------------------------------------------------------------ garbage

#: Orphaned per-pid ``*.tmp`` files younger than this many seconds are left
#: alone by GC: their writer may still be mid-``put``.
TMP_GRACE_SECONDS = 3600.0


@dataclass
class GCReport:
    """Outcome of one :func:`collect_garbage` pass."""

    examined: int = 0
    removed: List[str] = field(default_factory=list)
    bytes_freed: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    tmps_removed: int = 0
    errors: List[str] = field(default_factory=list)
    dry_run: bool = False

    def describe(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (f"{verb} {len(self.removed)} of {self.examined} entries "
                f"({self.bytes_freed} bytes), {self.tmps_removed} orphaned "
                f"tmp file(s); {self.remaining_entries} entries "
                f"({self.remaining_bytes} bytes) remain"
                + (f"; {len(self.errors)} error(s)" if self.errors else ""))


def collect_garbage(root: Union[str, Path],
                    max_bytes: Optional[int] = None,
                    max_age: Optional[float] = None,
                    kinds: Optional[Sequence[str]] = None,
                    now: Optional[float] = None,
                    dry_run: bool = False,
                    tmp_grace: float = TMP_GRACE_SECONDS) -> GCReport:
    """Evict cache entries, LRU by last hit.  Crash-safe by construction:
    eviction only unlinks entry files (each removal is atomic), so a crash
    mid-GC leaves a smaller, fully valid cache.

    Policies compose (any entry matching either goes, oldest first):

    * ``max_age``: remove entries whose last hit is older than ``now -
      max_age`` seconds.  An entry whose last hit is newer than the cutoff
      is **never** removed by this policy.
    * ``max_bytes``: remove least-recently-hit entries until the tree's
      total payload bytes fit the budget.
    * ``kinds``: restrict eviction to the named cell kinds (entries of
      other kinds are kept *and still count* toward ``max_bytes`` — the
      report shows the remaining total so a missed budget is visible).

    Orphaned per-pid ``*.tmp`` files in the entry subdirectories older
    than ``tmp_grace`` seconds are always removed (a crashed writer's
    leftovers; live writers rename theirs away well within the grace
    period).

    Unremovable files (e.g. a read-only root) are reported in
    ``errors``, never raised.
    """
    root = Path(root)
    now = time.time() if now is None else now
    report = GCReport(dry_run=dry_run)
    kind_filter = set(kinds) if kinds else None

    entries = scan_entries(root)
    report.examined = len(entries)
    total_bytes = sum(entry.size for entry in entries)

    evictable = sorted(
        (entry for entry in entries
         if kind_filter is None or entry.kind in kind_filter
         or entry.kind == "?"),
        key=lambda entry: (entry.last_hit, entry.key))
    doomed: List[CacheEntry] = []
    if max_age is not None:
        cutoff = now - max_age
        doomed.extend(entry for entry in evictable if entry.last_hit < cutoff)
    if max_bytes is not None:
        budget = total_bytes - sum(entry.size for entry in doomed)
        already = {entry.key for entry in doomed}
        for entry in evictable:
            if budget <= max_bytes:
                break
            if entry.key in already:
                continue
            doomed.append(entry)
            budget -= entry.size

    for entry in sorted(doomed, key=lambda entry: (entry.last_hit, entry.key)):
        if not dry_run:
            try:
                entry.path.unlink()
            except FileNotFoundError:
                pass  # a concurrent GC/writer got there first
            except OSError as exc:
                report.errors.append(f"{entry.key}: {exc}")
                continue
        report.removed.append(entry.key)
        report.bytes_freed += entry.size

    report.remaining_entries = report.examined - len(report.removed)
    report.remaining_bytes = total_bytes - report.bytes_freed

    # Crashed writers leave `<key>.<pid>.tmp` files behind; anything past
    # the grace period is garbage (ResultCache.put renames or unlinks its
    # tmp within one call).
    for tmp in sorted(root.glob("*/*.tmp")):
        try:
            if now - tmp.stat().st_mtime < tmp_grace:
                continue
            if not dry_run:
                tmp.unlink()
            report.tmps_removed += 1
        except FileNotFoundError:
            report.tmps_removed += 1
        except OSError as exc:
            report.errors.append(f"{tmp.name}: {exc}")
    return report
