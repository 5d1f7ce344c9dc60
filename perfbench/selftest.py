"""Self-tests of the benchmark driver.

Run from the root of a checkout (about six minutes on two cores)::

    python3 perfbench/selftest.py

Checks that:

* each workload prints exactly the metric names and units that
  ``BENCHMARK.json`` declares, in both modes, with no failed operation;
* two traced runs of each workload give identical ``*.calls_per_event``
  and ``SystemStats`` counts;
* a corrupted recorded digest makes the run fail (``failed`` > 0), so the
  golden check can fail;
* a directory holding only ``BENCHMARK.json`` and the benchmark exits
  non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

import run

SEED = 1
SECONDS = "2"
TIMEOUT = 180
#: Per-layer metrics that must repeat exactly across traced runs.
EXACT_UNITS = ("calls/event", "count")


def invoke(workload: str, trace: int,
           cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def result_of(proc: subprocess.CompletedProcess) -> Optional[Dict]:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


class Checks:
    def __init__(self) -> None:
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        self.failures += not ok


def main() -> int:
    checks = Checks()
    declared = {trace: run.declared_metrics(bool(trace)) for trace in (0, 1)}
    for workload in run.WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            proc = invoke(workload, trace)
            result = result_of(proc)
            checks.expect(result is not None,
                          f"{workload} --trace {trace} printed a result"
                          + ("" if result else f": {proc.stderr[-500:]}"))
            if result is None:
                continue
            units = {name: metric["unit"]
                     for name, metric in result["metrics"].items()}
            checks.expect(units == declared[trace],
                          f"{workload} --trace {trace} metric names and "
                          f"units match BENCHMARK.json")
            checks.expect(result["correct"] and result["failed"] == 0
                          and result["attempted"] > 0,
                          f"{workload} --trace {trace}: "
                          f"{result['failed']}/{result['attempted']} failed")
            if trace:
                traced.append(result["metrics"])
        if len(traced) == 2:
            differ = [name for name, unit in declared[1].items()
                      if unit in EXACT_UNITS
                      and traced[0][name]["value"] != traced[1][name]["value"]]
            checks.expect(not differ, f"{workload}: calls per event and "
                                      f"counts repeat across traced runs "
                                      f"{differ}")

    work_root = run.ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        digests = json.loads(run.DIGESTS_PATH.read_text(encoding="utf-8"))
        recorded = digests["workloads"]["paper32-mesi"]["seeds"][str(SEED)]
        first, _, rest = recorded.partition(" ")
        corrupted = ("0" if first[0] != "0" else "1") + first[1:]
        digests["workloads"]["paper32-mesi"]["seeds"][str(SEED)] = \
            " ".join(filter(None, (corrupted, rest)))
        bad = scratch / "digests.json"
        bad.write_text(json.dumps(digests), encoding="utf-8")
        run.use_checkout()
        bench = run.Bench(run.WORKLOADS["paper32-mesi"], SEED, scratch,
                          digests=bad)
        run.measure(bench, float(SECONDS))
        checks.expect(bench.tally.failed > 0,
                      "a corrupted recorded digest fails the run")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke("smoke-cached", 0, cwd=bare)
        checks.expect(proc.returncode != 0 and not proc.stdout.strip(),
                      "a directory without the program exits non-zero "
                      "without a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    print(f"{checks.failures} check(s) failed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
