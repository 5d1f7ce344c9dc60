"""Property-based tests for the tree scan and GC invariants.

A model-checking harness: random op sequences (put / hit / gc-by-age /
gc-by-bytes) run against a real cache tree **and** a pure in-memory
model, under a logical clock (every ``now=`` is injected and every put
and hit sets the entry's timestamps with ``os.utime``, so the properties
are exact, not timing-dependent).  After every operation:

* a scan of the tree equals the model exactly (kind, size, created =
  mtime, last hit = max(atime, mtime));
* the scan's totals equal a fresh tree walk;
* age-GC never removed an entry whose last hit is newer than the cutoff;
* bytes-GC evicted in strict LRU order and landed within budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache_gc import (collect_garbage, iter_entry_files,
                                     scan_entries)
from repro.sim.stats import STATS_SCHEMA_VERSION

_KEYS = [hashlib.sha256(f"prop-{i}".encode()).hexdigest() for i in range(8)]


def _payload(i: int):
    kind = "stats" if i % 2 == 0 else "cachetest"
    payload = {"schema": STATS_SCHEMA_VERSION, "workload": f"prop-{i}",
               "protocol": "MESI", "filler": "x" * (3 * i)}
    if kind != "stats":
        payload["kind"] = kind
    return payload


def _path(root: Path, i: int) -> Path:
    key = _KEYS[i]
    return root / key[:2] / f"{key}.json"


def _write_entry(root: Path, i: int) -> int:
    path = _path(root, i)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(_payload(i), sort_keys=True)
    path.write_text(blob, encoding="utf-8")
    return len(blob.encode("utf-8"))


def _model_record(i: int, size: int, created: float, last_hit: float):
    return {"kind": _payload(i).get("kind", "stats"), "size": size,
            "created": created, "last_hit": last_hit}


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, len(_KEYS) - 1)),
        st.tuples(st.just("hit"), st.integers(0, len(_KEYS) - 1)),
        st.tuples(st.just("gc_age"), st.integers(0, 12)),
        st.tuples(st.just("gc_bytes"), st.integers(0, 600)),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_index_and_gc_agree_with_a_pure_model(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model = {}  # key -> record dict, mirrored expectations

        for step, (op, arg) in enumerate(ops):
            now = float(step + 1)  # logical clock: unique, increasing
            if op == "put":
                size = _write_entry(root, arg)
                os.utime(_path(root, arg), (now, now))
                model[_KEYS[arg]] = _model_record(arg, size, now, now)
            elif op == "hit":
                if _KEYS[arg] in model:
                    record = model[_KEYS[arg]]
                    os.utime(_path(root, arg), (now, record["created"]))
                    record["last_hit"] = max(record["last_hit"], now)
                # else: a hit on an absent entry is a miss.
            elif op == "gc_age":
                cutoff = now - float(arg)
                report = collect_garbage(root, max_age=float(arg), now=now)
                # Invariant: nothing newer than the cutoff was removed.
                for key in report.removed:
                    assert model[key]["last_hit"] < cutoff
                expected = {key for key, record in model.items()
                            if record["last_hit"] < cutoff}
                assert set(report.removed) == expected
                for key in report.removed:
                    del model[key]
            elif op == "gc_bytes":
                report = collect_garbage(root, max_bytes=arg, now=now)
                # Strict LRU: survivors are exactly the hottest suffix that
                # fits the budget (timestamps are unique by construction).
                order = sorted(model.items(),
                               key=lambda item: item[1]["last_hit"])
                total = sum(record["size"] for _, record in order)
                doomed = []
                for key, record in order:
                    if total <= arg:
                        break
                    doomed.append(key)
                    total -= record["size"]
                assert sorted(report.removed) == sorted(doomed)
                assert report.remaining_bytes == total
                assert report.remaining_bytes <= arg or not model
                for key in report.removed:
                    del model[key]

            # --- invariants after every op ---------------------------------
            entries = scan_entries(root)
            assert {entry.key: {"kind": entry.kind, "size": entry.size,
                                "created": entry.created,
                                "last_hit": entry.last_hit}
                    for entry in entries} == model

            # The scan's totals equal a fresh tree walk.
            walked_files = list(iter_entry_files(root))
            assert len(entries) == len(walked_files)
            assert sum(entry.size for entry in entries) == \
                sum(path.stat().st_size for path in walked_files)
