"""Deterministic perf harness: time pinned workloads, emit ``BENCH_<n>.json``.

The workloads are *pinned* — fixed sweeps, fixed seeds, fixed iteration
counts — so that successive bench files measure the simulator, not the
benchmark.  Every metric is the median of ``repeats`` timed passes (CI uses
median-of-3), which suppresses one-off scheduler hiccups on shared runners
without hiding sustained regressions.

Metrics (see :data:`METRIC_DIRECTIONS` for which way is better):

* ``ci_smoke_cells_per_sec`` — the 8-cell ci-smoke sweep, uncached, single
  process.  The headline engine-throughput number.
* ``litmus_tests_per_sec`` — the canonical litmus suite on TSO-CC-4-12-3
  (pinned iteration count), which exercises small systems with heavy
  protocol traffic.
* ``fuzz_smoke_cells_per_sec`` — a pinned 4-seed slice of the fuzz-smoke
  conformance campaign across all four CI protocols.
* ``warm_cache_overhead_sec`` — wall time of a fully-cached ci-smoke pass
  (every cell a cache hit): the fixed overhead every cached sweep pays.
"""

from __future__ import annotations

import contextlib
import gc
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Schema version of the BENCH_*.json payload.  Bump when the metric set or
#: file layout changes incompatibly; the gate refuses to compare across
#: schema versions.
BENCH_SCHEMA_VERSION = 1

#: Sequence number of the bench file this checkout emits (``BENCH_7.json``).
#: Bump in the PR that establishes a new trajectory point.
CURRENT_BENCH_ID = 7

#: metric name -> "higher" (throughput) or "lower" (overhead): the direction
#: in which a change is an *improvement*.
METRIC_DIRECTIONS: Dict[str, str] = {
    "ci_smoke_cells_per_sec": "higher",
    "litmus_tests_per_sec": "higher",
    "fuzz_smoke_cells_per_sec": "higher",
    "warm_cache_overhead_sec": "lower",
}

#: Pinned litmus iteration count (smaller than the conformance default so
#: the harness stays CI-cheap; still every canonical test, every run).
_LITMUS_ITERATIONS = 4
#: Pinned protocol for the litmus timing (the paper's headline config).
_LITMUS_PROTOCOL = "TSO-CC-4-12-3"
#: Pinned seed slice of the fuzz-smoke campaign (4 seeds x 4 protocols).
_FUZZ_SEEDS = 4


def bench_file_name(bench_id: int) -> str:
    """Root-level bench file name for ``bench_id`` (``BENCH_6.json``)."""
    return f"BENCH_{bench_id}.json"


@contextlib.contextmanager
def _gc_quiesced():
    """Silence the cyclic GC around a measured region.

    The simulator allocates heavily (events, messages, stats) but creates no
    reference cycles on its hot paths, so collector pauses landing inside a
    timed pass are pure measurement noise.  Collect once up front, freeze
    every surviving object into the permanent generation (so they are never
    re-traversed), disable the collector for the measured region, and
    restore the previous state afterwards.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()


def _median_rate(work: Callable[[], int], repeats: int) -> tuple:
    """Run ``work`` ``repeats`` times; return (median units/sec, samples).

    ``work`` returns the number of units (cells, tests) it processed.  One
    untimed warmup pass runs first (imports, code-object warmup, allocator
    arenas), and the timed passes run with the cyclic GC quiesced — both so
    the samples measure the simulator, not interpreter start-up transients.
    """
    work()  # warmup: not timed, not recorded
    samples: List[float] = []
    with _gc_quiesced():
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            units = work()
            elapsed = time.perf_counter() - start
            samples.append(units / elapsed if elapsed > 0 else float("inf"))
    return statistics.median(samples), samples


def _bench_ci_smoke(repeats: int) -> tuple:
    from repro.analysis.sweeps import CI_SMOKE_SWEEP

    def work() -> int:
        CI_SMOKE_SWEEP.run(jobs=1, cache=None)
        return CI_SMOKE_SWEEP.num_cells

    return _median_rate(work, repeats)


def _bench_litmus(repeats: int) -> tuple:
    from repro.consistency.litmus import canonical_tests
    from repro.consistency.runner import run_litmus_on_simulator

    tests = canonical_tests()

    def work() -> int:
        for index, test in enumerate(tests):
            run_litmus_on_simulator(
                test, protocol=_LITMUS_PROTOCOL,
                iterations=_LITMUS_ITERATIONS, seed=index)
        return len(tests)

    return _median_rate(work, repeats)


def _bench_fuzz_smoke(repeats: int) -> tuple:
    from repro.consistency.fuzz import FUZZ_SMOKE_CAMPAIGN

    campaign = FUZZ_SMOKE_CAMPAIGN.subset(num_seeds=_FUZZ_SEEDS)

    def work() -> int:
        campaign.run(jobs=1, cache=None)
        return campaign.num_cells

    return _median_rate(work, repeats)


#: Cached passes per warm-cache sample.  A single cached pass is ~2 ms —
#: short enough that scheduler jitter alone can swing two back-to-back
#: samples past the regression tolerance — so each sample times a burst
#: and keeps the *fastest* pass: timing noise on an overhead measurement
#: is strictly additive, so the minimum is the robust estimator of the
#: fixed cost.
_WARM_CACHE_PASSES = 10


def _bench_warm_cache(repeats: int, scratch: Path) -> tuple:
    """Median wall time of a fully-cached ci-smoke pass (lower is better).

    Each sample is the fastest of :data:`_WARM_CACHE_PASSES` consecutive
    passes (see the constant's note); the reported value is per-pass.
    """
    from repro.analysis.parallel import ResultCache
    from repro.analysis.sweeps import CI_SMOKE_SWEEP

    cache = ResultCache(root=scratch / "bench-cache")
    CI_SMOKE_SWEEP.run(jobs=1, cache=cache)  # populate
    CI_SMOKE_SWEEP.run(jobs=1, cache=cache)  # warmup
    samples: List[float] = []
    with _gc_quiesced():
        for _ in range(max(1, repeats)):
            best = float("inf")
            for _ in range(_WARM_CACHE_PASSES):
                start = time.perf_counter()
                CI_SMOKE_SWEEP.run(jobs=1, cache=cache)
                elapsed = time.perf_counter() - start
                if elapsed < best:
                    best = elapsed
            samples.append(best)
    return statistics.median(samples), samples


def run_bench(
    repeats: int = 3,
    scratch: Optional[Path] = None,
    bench_id: int = CURRENT_BENCH_ID,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Time every pinned workload; return the BENCH payload (not written).

    Args:
        repeats: timed passes per metric; the reported value is the median.
        scratch: directory for the warm-cache scratch cache (a temp dir is
            created when omitted).
        bench_id: sequence number recorded in the payload.
        progress: optional callable invoked with one line per metric.
    """
    import tempfile

    say = progress or (lambda line: None)
    metrics: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}

    say("timing ci-smoke sweep (uncached) ...")
    metrics["ci_smoke_cells_per_sec"], samples["ci_smoke_cells_per_sec"] = \
        _bench_ci_smoke(repeats)
    say(f"  ci-smoke: {metrics['ci_smoke_cells_per_sec']:.1f} cells/sec")

    say("timing canonical litmus suite ...")
    metrics["litmus_tests_per_sec"], samples["litmus_tests_per_sec"] = \
        _bench_litmus(repeats)
    say(f"  litmus: {metrics['litmus_tests_per_sec']:.1f} tests/sec")

    say("timing fuzz-smoke slice ...")
    metrics["fuzz_smoke_cells_per_sec"], samples["fuzz_smoke_cells_per_sec"] = \
        _bench_fuzz_smoke(repeats)
    say(f"  fuzz-smoke: {metrics['fuzz_smoke_cells_per_sec']:.1f} cells/sec")

    say("timing warm-cache ci-smoke pass ...")
    if scratch is None:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            warm = _bench_warm_cache(repeats, Path(tmp))
    else:
        warm = _bench_warm_cache(repeats, scratch)
    metrics["warm_cache_overhead_sec"], samples["warm_cache_overhead_sec"] = warm
    say(f"  warm cache: {metrics['warm_cache_overhead_sec']*1000:.1f} ms/pass")

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "bench_id": bench_id,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeats": repeats,
        "pinned": {
            "ci_smoke": "CI_SMOKE_SWEEP, jobs=1, no cache",
            "litmus": (f"canonical_tests() on {_LITMUS_PROTOCOL}, "
                       f"iterations={_LITMUS_ITERATIONS}"),
            "fuzz_smoke": f"fuzz-smoke subset(num_seeds={_FUZZ_SEEDS})",
            "warm_cache": "fully-cached ci-smoke pass wall time",
        },
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "metrics": metrics,
        "samples": samples,
    }


def write_bench(
    payload: Dict[str, object],
    repo_root: Path,
    update_baseline: bool = False,
) -> List[Path]:
    """Write ``payload`` to its two locations; return the paths written.

    * ``<repo_root>/BENCH_<n>.json`` — the trajectory point (always
      overwritten: it is this checkout's measurement).
    * ``<repo_root>/benchmarks/results/bench_<n>.json`` — the committed
      machine-readable baseline; written only when absent (first run) or
      when ``update_baseline`` is set, so a CI re-measurement never
      silently moves the bar it is judged against.
    """
    repo_root = Path(repo_root)
    bench_id = int(payload["bench_id"])  # type: ignore[arg-type]
    written: List[Path] = []

    root_file = repo_root / bench_file_name(bench_id)
    root_file.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    written.append(root_file)

    baseline = repo_root / "benchmarks" / "results" / f"bench_{bench_id}.json"
    if update_baseline or not baseline.exists():
        baseline.parent.mkdir(parents=True, exist_ok=True)
        baseline.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        written.append(baseline)
    return written


# ---------------------------------------------------------------------- profiling

def _profile_work(metric: str, scratch: Path) -> Callable[[], int]:
    """Return a zero-arg callable running one pass of ``metric``'s pinned
    workload (the exact same pass the timing harness measures)."""
    if metric == "ci_smoke_cells_per_sec":
        from repro.analysis.sweeps import CI_SMOKE_SWEEP

        return lambda: (CI_SMOKE_SWEEP.run(jobs=1, cache=None),
                        CI_SMOKE_SWEEP.num_cells)[1]
    if metric == "litmus_tests_per_sec":
        from repro.consistency.litmus import canonical_tests
        from repro.consistency.runner import run_litmus_on_simulator

        tests = canonical_tests()

        def work() -> int:
            for index, test in enumerate(tests):
                run_litmus_on_simulator(
                    test, protocol=_LITMUS_PROTOCOL,
                    iterations=_LITMUS_ITERATIONS, seed=index)
            return len(tests)

        return work
    if metric == "fuzz_smoke_cells_per_sec":
        from repro.consistency.fuzz import FUZZ_SMOKE_CAMPAIGN

        campaign = FUZZ_SMOKE_CAMPAIGN.subset(num_seeds=_FUZZ_SEEDS)
        return lambda: (campaign.run(jobs=1, cache=None),
                        campaign.num_cells)[1]
    if metric == "warm_cache_overhead_sec":
        from repro.analysis.parallel import ResultCache
        from repro.analysis.sweeps import CI_SMOKE_SWEEP

        cache = ResultCache(root=scratch / "profile-cache")
        CI_SMOKE_SWEEP.run(jobs=1, cache=cache)  # populate
        return lambda: (CI_SMOKE_SWEEP.run(jobs=1, cache=cache),
                        CI_SMOKE_SWEEP.num_cells)[1]
    raise ValueError(
        f"unknown metric {metric!r}; choose from {sorted(METRIC_DIRECTIONS)}")


def profile_metric(
    metric: str,
    top: int = 25,
    scratch: Optional[Path] = None,
    save: Optional[Path] = None,
) -> str:
    """Profile one pinned pass of ``metric`` under cProfile.

    Runs one untimed warmup pass, then one profiled pass with the GC
    quiesced (same stabilisation as the timing harness), and returns the
    ``top``-N functions by cumulative time as a report string.  When
    ``save`` is given the report is also written there.
    """
    import cProfile
    import io
    import pstats
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        work = _profile_work(metric, scratch or Path(tmp))
        work()  # warmup
        profiler = cProfile.Profile()
        with _gc_quiesced():
            profiler.enable()
            units = work()
            profiler.disable()

    stream = io.StringIO()
    stream.write(f"profile: {metric} (1 pinned pass, {units} units, "
                 f"top {top} by cumulative time)\n")
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    report = stream.getvalue()
    if save is not None:
        save = Path(save)
        save.parent.mkdir(parents=True, exist_ok=True)
        save.write_text(report, encoding="utf-8")
    return report
