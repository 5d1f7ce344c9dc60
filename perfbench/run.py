"""Repository benchmark: host cost of the TSO-CC reproduction, end to end
and per simulator layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper32-tsocc --seed 1 --seconds 30 --trace 0

Every workload runs the same five phases, one cell at a time in this one
process (a closed loop: the next cell starts when the previous one ends):

1. *setup* - resolve the cell list and build every cell's workload and
   ``System`` once, repeated; ``setup_s`` is the median repetition.
2. *cold* - run every cell with ``MatrixExecutor.run_cell`` (``jobs=1``,
   the ``local`` backend) into a fresh ``ResultCache``: lookup miss,
   ``simulate_cell``, put, index flush.  Each cell's
   ``SystemStats.to_dict()`` digest is checked against ``digests.json``,
   recorded for the same seed by ``record_digests.py``, or against the
   run's own first pass for a seed without a record.
3. *warm* - fully cached sweeps over the last cold cache, one
   ``MatrixExecutor.run_cells`` per core count (key, get, decode, index
   flush); a miss or a payload that differs from the cold one fails.
4. *report* - read the cells back and render a ``SpecReport``.
5. *litmus* - the canonical litmus suite on the workload's protocol.

``--seed`` becomes ``SystemConfig.seed`` (the memory-latency draws) of
every cell; the workload builders' own generators stay as fixed in the
sources, and the litmus suite runs with the fixed jitter seeds of ``repro
bench``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one fixed
pass of every phase without cProfile and then the same pass under
cProfile, and prints the per-layer metrics: self time and call counts
bucketed by ``src/repro/<package>``, ``SystemStats`` counts of the cold
pass, and the driver's own timings around its calls into each layer
(taken from the pass without cProfile).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every cell
simulated, cache lookup in a warm pass, report rendered and litmus test
run is one attempted operation; an exception, a failed workload
validation, a digest mismatch, a warm-pass miss or a litmus test that
does not pass is a failed one.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: Watchdog bound handed to every cell (the SweepSpec default).
MAX_CYCLES = 200_000_000
#: Iterations per litmus test (the ``repro bench`` litmus pin).
LITMUS_ITERATIONS = 4
#: Timed set-up repetitions per cycle (after one untimed warm-up).
SETUP_REPS = 2
#: Host seconds each cycle gives the warm, report and litmus phases.
BURST_S = {"warm": 0.4, "report": 0.4, "litmus": 1.8}
#: Size of the calibration kernels, and their median times on the machine
#: the benchmark was defined on (a 2-vCPU x86-64 VM, CPython 3.11.7).
CALIBRATION_LOOP = 20_000
CALIBRATION_JSON_KEYS = 300
CALIBRATION_REF_S = {"interp": 0.0008, "json": 0.0007}
#: Period of the calibration timer, and the samples a conversion uses.
CALIBRATION_PERIOD_S = 0.05
CALIBRATION_MIN_SAMPLES = 5
#: Decodes of the committed trace timed for
#: ``workloads.trace_decode_ops_per_s``.
TRACE_DECODES = 200
#: Fields every report renders (the declared ``stats`` report fields).
REPORT_METRICS = ("cycles", "flits", "messages", "l1_misses",
                  "self_invalidations")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a cell matrix plus the litmus protocol."""

    name: str
    why: str
    protocols: Tuple[str, ...]
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...]
    scale: float
    #: ``True``: the Table 2 platform ``SystemConfig()``; ``False``: the
    #: ``SystemConfig().scaled()`` preset at each core count.
    paper_platform: bool
    litmus_protocol: str
    baseline: Optional[str] = None

    def spec(self):
        """A fresh ``SweepSpec`` over this workload's cells (a new instance
        re-resolves suites and trace digests)."""
        from repro.analysis.sweeps import SweepSpec

        return SweepSpec(name=self.name, description=self.why,
                         protocols=self.protocols, workloads=self.workloads,
                         cores=self.cores, scales=(self.scale,),
                         metrics=REPORT_METRICS, max_cycles=MAX_CYCLES,
                         baseline=self.baseline)

    def config(self, cores: int, seed: int):
        from repro.sim.config import SystemConfig

        if self.paper_platform:
            return SystemConfig(num_cores=cores, seed=seed)
        return SystemConfig().scaled(num_cores=cores, seed=seed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="paper32-tsocc",
        why="TSO-CC-4-12-3 on the 32-core Table 2 machine, fft and intruder "
            "at scale 0.5: self-invalidation loads protocols and memsys",
        protocols=("TSO-CC-4-12-3",), workloads=("fft", "intruder"),
        cores=(32,), scale=0.5, paper_platform=True,
        litmus_protocol="TSO-CC-4-12-3"),
    Workload(
        name="paper32-mesi",
        why="the same machine and cells under MESI: the shared engine "
            "without self-invalidation",
        protocols=("MESI",), workloads=("fft", "intruder"),
        cores=(32,), scale=0.5, paper_platform=True,
        litmus_protocol="MESI"),
    Workload(
        name="smoke-cached",
        why="5 protocols x Table 3 + scenario-smoke on 2 and 4 cores at "
            "scale 0.2: set-up, cache, report and litmus dominate",
        protocols=("MESI", "MSI", "MOESI", "Broadcast", "TSO-CC-4-12-3"),
        workloads=("suite:table3", "suite:scenario-smoke"),
        cores=(2, 4), scale=0.2, paper_platform=False,
        litmus_protocol="TSO-CC-4-12-3", baseline="MESI"),
)}

#: Cell of a sweep expansion: ``(cores, scale, protocol, workload)``.
Cell = Tuple[int, float, str, str]
#: ``(start, end)`` of a measured step, in ``time.perf_counter`` seconds.
Interval = Tuple[float, float]


def cell_id(cell: Cell) -> str:
    cores, scale, protocol, workload = cell
    return f"{cores}/{scale}/{protocol}/{workload}"


def payload_digest(payload: Dict[str, object]) -> str:
    """Digest of one ``SystemStats.to_dict()`` payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def load_recorded(path: Path, workload: str, seed: int,
                  cells: List[Cell]) -> Optional[List[str]]:
    """Recorded digests of ``workload`` at ``seed`` in cell order, or
    ``None`` when the seed has no record.

    Raises:
        ValueError: if the recorded cell list is not this workload's.
    """
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    entry = data["workloads"].get(workload)
    if entry is None:
        return None
    if entry["cells"] != [cell_id(cell) for cell in cells]:
        raise ValueError(
            f"{path.name}: the recorded cells of {workload!r} are not the "
            f"cells it runs now; run record_digests.py")
    digests = entry["seeds"].get(str(seed))
    return None if digests is None else digests.split()


# ------------------------------------------------------------------ accounting

class Tally:
    """Operations attempted and failed, plus the golden digest check."""

    MAX_REPORTED = 20

    def __init__(self, recorded: Optional[List[str]], cells: List[Cell]):
        self.attempted = 0
        self.failed = 0
        self.expected: Dict[str, str] = {}
        if recorded is not None:
            self.expected = {cell_id(cell): digest
                             for cell, digest in zip(cells, recorded)}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if self.failed <= self.MAX_REPORTED:
            print(f"FAILED: {message}", file=sys.stderr)

    def check_cell(self, cell: Cell, payload: Dict[str, object]) -> None:
        """Count one simulated cell; its digest must equal the recorded one
        (or, for a seed without a record, the first one seen this run)."""
        name = cell_id(cell)
        digest = payload_digest(payload)
        expected = self.expected.setdefault(name, digest)
        if digest != expected:
            self.fail(f"{name}: stats digest {digest} != recorded {expected}")
        else:
            self.ok()


@dataclass
class Spans:
    """Durations the driver times around its own calls, by name."""

    values: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.values.setdefault(name, []).append(seconds)

    def mean(self, name: str) -> float:
        return statistics.fmean(self.values[name])


class Phases:
    """Wraps each phase in its own cProfile profiler when enabled."""

    def __init__(self, profile: bool) -> None:
        self.profile = profile
        self.profiles: Dict[str, cProfile.Profile] = {}

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        if not self.profile:
            yield
            return
        profiler = self.profiles.setdefault(name, cProfile.Profile())
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()


class Calibration:
    """Host speed while a run measures, sampled by a timer signal.

    On a shared machine the speed of a virtual CPU drifts by tens of percent
    within seconds, and every timing drifts with it.  Every
    ``CALIBRATION_PERIOD_S`` a ``SIGALRM`` handler times two fixed kernels in
    this process, on the CPU doing the work: a loop of plain Python
    (``"interp"``, the kind of work simulation does) and ``json.loads`` of a
    fixed document (``"json"``, the kind of work reading the result cache
    does).  Neither runs code of this repository, so a change to the
    program cannot move them.  :meth:`seconds` converts a measured interval
    into *reference seconds*: its host time minus the handler's, scaled by
    the kernel's reference time over its median time during (or, for a
    short interval, around) the interval.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.busy: List[float] = []
        self.samples: Dict[str, List[float]] = {
            kernel: [] for kernel in CALIBRATION_REF_S}
        self._document = json.dumps({
            f"k{i}": {"a": list(range(i % 17)),
                      "b": {"x": i, "y": 3 * i, "z": [i, i + 1]}}
            for i in range(CALIBRATION_JSON_KEYS)})
        self._sampling = False
        self._previous = None

    def sample(self) -> None:
        """Time both kernels once.  Between the steps of a burst of short
        steps, this keeps samples close to each step."""
        if self._sampling:
            return  # the timer fired while a sample was being taken
        self._sampling = True
        # A collection triggered here would do the measured code's work.
        collecting = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        start = clock()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i
        middle = clock()
        json.loads(self._document)
        end = clock()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.busy.append(end - start)
        self.samples["interp"].append(middle - start)
        self.samples["json"].append(end - middle)
        self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                         CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, interval: "Interval", kernel: str = "interp") -> float:
        """Reference seconds of one measured ``(start, end)`` interval."""
        t0, t1 = interval
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        # A sample that starts inside the interval also ends inside it: the
        # handler runs between two bytecodes of the measured code.
        busy = sum(self.busy[first:last])  # timer samples inside the step
        if last - first < CALIBRATION_MIN_SAMPLES:
            half = CALIBRATION_MIN_SAMPLES // 2 + 1
            first, last = max(0, first - half), last + half
        nearby = self.samples[kernel][first:last]
        if not nearby:
            raise RuntimeError("no calibration sample: the run was too short")
        return ((t1 - t0 - busy) * CALIBRATION_REF_S[kernel]
                / statistics.median(nearby))


# ------------------------------------------------------------------ phases

@dataclass
class ColdPass:
    cache: object
    cells: Dict[Cell, Interval]
    events: int
    payloads: Dict[Cell, Dict[str, object]]


class Bench:
    """One workload at one seed: the cells and the five phases."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path,
                 digests: Path = DIGESTS_PATH) -> None:
        from repro.consistency.litmus import canonical_tests

        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.spec = workload.spec()
        self.cells: List[Cell] = self.spec.cells()
        self.configs = {cores: workload.config(cores, seed)
                        for cores in workload.cores}
        recorded = load_recorded(digests, workload.name, seed, self.cells)
        self.recorded = recorded is not None
        self.tally = Tally(recorded, self.cells)
        self.spans = Spans()
        #: Called before each cell of a cold pass (a calibration sample).
        self.before_cell: Callable[[], None] = lambda: None
        self.by_cores: Dict[int, List[Tuple[str, str]]] = {}
        for cores, _, protocol, workload_name in self.cells:
            self.by_cores.setdefault(cores, []).append((protocol,
                                                        workload_name))
        self.litmus_tests = canonical_tests()
        self.warm_lookups = 0
        self.warm_hits = 0
        #: ``(seconds, hit)`` of every cache get, and seconds of every put.
        self.gets: List[Tuple[float, bool]] = []
        self.puts: List[float] = []
        self._caches = 0

    def fresh_cache(self):
        """A new, empty ``ResultCache`` whose get and put are timed."""
        from repro.analysis.parallel import ResultCache

        self._caches += 1
        root = self.work_dir / f"cache-{self._caches}"
        shutil.rmtree(root, ignore_errors=True)
        cache = ResultCache(root=root)
        get, put, clock = cache.get, cache.put, time.perf_counter

        def timed_get(*args, **kwargs):
            t0 = clock()
            payload = get(*args, **kwargs)
            self.gets.append((clock() - t0, payload is not None))
            return payload

        def timed_put(*args, **kwargs):
            t0 = clock()
            put(*args, **kwargs)
            self.puts.append(clock() - t0)

        cache.get, cache.put = timed_get, timed_put
        return cache

    def executor(self, cores: int, cache):
        """The sweep executor of one platform point: one process, inline."""
        from repro.analysis.parallel import MatrixExecutor

        return MatrixExecutor(self.configs[cores], self.workload.scale,
                              MAX_CYCLES, jobs=1, cache=cache,
                              backend="local")

    def warm_up(self) -> None:
        """Untimed first calls: lazy imports, memoized trace digests."""
        self.setup()
        self.executor(self.workload.cores[0], None)
        self.litmus(self.litmus_tests[:1])
        self.spans = Spans()

    def setup(self) -> Interval:
        """Resolve the cells and build each cell's workload and System."""
        from repro.sim.system import build_system
        from repro.workloads.catalog import make_workload

        clock = time.perf_counter
        start = clock()
        for cores, scale, protocol, workload in self.workload.spec().cells():
            t0 = clock()
            make_workload(workload, num_cores=cores, scale=scale)
            t1 = clock()
            build_system(self.configs[cores], protocol)
            t2 = clock()
            self.spans.add("workloads.build_s", t1 - t0)
            self.spans.add("sim.build_system_s", t2 - t1)
        return start, clock()

    def cold(self) -> ColdPass:
        """Run every cell into a fresh cache with ``run_cell``: lookup (a
        miss), simulate, put, index flush."""
        cache = self.fresh_cache()
        executors = {cores: self.executor(cores, cache)
                     for cores in self.by_cores}
        clock = time.perf_counter
        intervals: Dict[Cell, Interval] = {}
        payloads: Dict[Cell, Dict[str, object]] = {}
        events = 0
        for cell in self.cells:
            cores, _, protocol, workload = cell
            executor = executors[cores]
            simulated = executor.simulations_run
            puts = len(self.puts)
            self.before_cell()
            t0 = clock()
            try:
                stats = executor.run_cell(workload, protocol)
            except Exception as exc:  # counted, and the loop goes on
                self.tally.fail(f"{cell_id(cell)}: {type(exc).__name__}: "
                                f"{exc}")
                continue
            intervals[cell] = (t0, clock())
            for seconds in self.puts[puts:]:
                self.spans.add("analysis.cache_put_s", seconds)
            if executor.simulations_run != simulated + 1:
                self.tally.fail(f"{cell_id(cell)}: a fresh cache served it")
                continue
            payload = stats.to_dict()
            events += stats.events
            payloads[cell] = payload
            self.tally.check_cell(cell, payload)
        return ColdPass(cache, intervals, events, payloads)

    def warm(self, cold: ColdPass) -> Interval:
        """One fully cached sweep: ``run_cells`` per platform point."""
        clock = time.perf_counter
        gets = len(self.gets)
        found: Dict[Cell, object] = {}
        start = clock()
        for cores, pairs in self.by_cores.items():
            results = self.executor(cores, cold.cache).run_cells(pairs)
            for protocol, workload_name in pairs:
                found[(cores, self.workload.scale, protocol, workload_name)] \
                    = results.get((protocol, workload_name))
        end = clock()
        # run_cells looks the cells up once each, in this order.
        lookups = self.gets[gets:gets + len(self.cells)]
        get_s = [seconds for seconds, _ in lookups]
        for seconds in get_s:
            self.spans.add("analysis.cache_get_s", seconds)
        self.spans.add("analysis.sweep_overhead_s",
                       (end - start - sum(get_s)) / len(self.cells))
        self.warm_lookups += len(self.cells)
        self.warm_hits += sum(hit for _, hit in lookups)
        for cell, (_, hit) in zip(self.cells, lookups):
            stats = found[cell]
            if not hit:
                self.tally.fail(f"{cell_id(cell)}: warm-pass cache miss")
            elif cell in cold.payloads and \
                    stats.to_dict() != cold.payloads[cell]:
                self.tally.fail(f"{cell_id(cell)}: warm payload differs "
                                f"from the cold one")
            else:
                self.tally.ok()
        return start, end

    def report(self, cold: ColdPass) -> Interval:
        """Read every cell back and render a ``SpecReport``."""
        from repro.analysis.report import SpecReport, render_table
        from repro.sim.stats import SystemStats

        cache = cold.cache
        clock = time.perf_counter
        start = clock()
        stats = {}
        for cores, scale, protocol, workload in self.cells:
            payload = cache.get(cache.key(self.configs[cores], protocol,
                                          workload, scale, MAX_CYCLES))
            if payload is not None:
                stats[(protocol, workload, cores, scale)] = \
                    SystemStats.from_dict(payload)
        report = SpecReport.from_stats(self.spec, stats)
        text = (render_table(report.mix_table())
                + render_table(report.cell_table()))
        end = clock()
        wrong = [cell_id(cell) for cell, payload in cold.payloads.items()
                 if report.values.get((cell[2], cell[3], cell[0], cell[1]),
                                      {}).get("cycles") != payload["cycles"]]
        if not report.complete or wrong or not text:
            self.tally.fail(f"report of {self.spec.name}: complete="
                            f"{report.complete}, wrong cycles {wrong[:3]}")
        else:
            self.tally.ok()
        return start, end

    def litmus(self, tests=None) -> Interval:
        """The canonical litmus suite (or ``tests`` of it) once."""
        from repro.consistency.runner import run_litmus_on_simulator

        tests = self.litmus_tests if tests is None else tests
        clock = time.perf_counter
        start = clock()
        for index, test in enumerate(tests):
            t0 = clock()
            try:
                result = run_litmus_on_simulator(
                    test, protocol=self.workload.litmus_protocol,
                    iterations=LITMUS_ITERATIONS, seed=index)
            except Exception as exc:  # counted, and the suite goes on
                self.tally.fail(f"litmus {test.name}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            self.spans.add("consistency.litmus_test_s", clock() - t0)
            if result.passed:
                self.tally.ok()
            else:
                self.tally.fail(f"litmus {test.name} on "
                                f"{self.workload.litmus_protocol}: "
                                f"{result.summary()}")
        return start, clock()


def repeat(step: Callable[[], object], budget: float, min_reps: int,
           before: Callable[[], None] = lambda: None) -> List[object]:
    """Run ``before`` and ``step`` at least ``min_reps`` times, and again
    while the last repetition predicts the next one ends within ``budget``."""
    results: List[object] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        before()
        results.append(step())
        now = time.perf_counter()
        if len(results) >= min_reps and (now - start) + (now - t0) > budget:
            return results


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ modes

def measure(bench: Bench, seconds: float) -> Dict[str, float]:
    """End-to-end metrics, tracing off, in calibrated seconds.

    The phases run in cycles (set-up, a cold pass, then warm, report and
    litmus bursts on that pass) until ``seconds`` is used, so every metric
    samples the whole run and not one stretch of it.
    """
    bench.warm_up()
    steps: Dict[str, List[Interval]] = {
        name: [] for name in ("setup", "warm", "report", "litmus")}
    passes: List[Tuple[Dict[Cell, Interval], int]] = []
    calibration = Calibration()
    sample = bench.before_cell = calibration.sample

    def cycle() -> None:
        gc.collect()
        steps["setup"] += repeat(bench.setup, 0.0, SETUP_REPS, sample)
        gc.collect()
        cold = bench.cold()
        passes.append((cold.cells, cold.events))
        gc.collect()
        steps["warm"] += repeat(lambda: bench.warm(cold), BURST_S["warm"], 3,
                                sample)
        gc.collect()
        steps["report"] += repeat(lambda: bench.report(cold),
                                  BURST_S["report"], 3, sample)
        gc.collect()
        steps["litmus"] += repeat(bench.litmus, BURST_S["litmus"], 1, sample)
        sample()

    with calibration:
        repeat(cycle, seconds, 1)
    timed = calibration.seconds

    cells = [{cell: timed(interval) for cell, interval in intervals.items()}
             for intervals, _ in passes]
    # Each cell's median over the passes; the percentiles are over cells.
    per_cell = [statistics.median(times[cell] for times in cells
                                  if cell in times)
                for cell in bench.cells if any(cell in t for t in cells)]
    tests = len(bench.litmus_tests)
    return {
        "setup_s": statistics.median(map(timed, steps["setup"])),
        "sim_events_per_s": statistics.median(
            events / sum(times.values())
            for (_, events), times in zip(passes, cells)),
        "cell_s_p50": statistics.median(per_cell),
        "cell_s_p90": quantile(per_cell, 90),
        "cells_per_s": statistics.median(
            len(times) / sum(times.values()) for times in cells),
        "warm_sweep_s": statistics.median(
            timed(interval, "json") for interval in steps["warm"]),
        "report_s": statistics.median(
            timed(interval, "json") for interval in steps["report"]),
        "litmus_tests_per_s": statistics.median(
            tests / timed(interval) for interval in steps["litmus"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def one_pass(bench: Bench, phases: Phases) -> Tuple[float, ColdPass]:
    """Every phase exactly once; returns (wall seconds, the cold pass).

    The cyclic collector is off for the pass: where it would run depends
    on allocations made before the pass, and the finalizers it runs are
    profiled calls, so call counts would not repeat exactly.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        with phases.phase("setup"):
            bench.setup()
        with phases.phase("cold"):
            cold = bench.cold()
        with phases.phase("warm"):
            bench.warm(cold)
        with phases.phase("report"):
            bench.report(cold)
        with phases.phase("litmus"):
            bench.litmus()
        return time.perf_counter() - start, cold
    finally:
        gc.enable()


#: Packages (``src/repro/<package>``) reported per layer; everything outside
#: ``src/repro`` except this driver is the ``stdlib`` bucket.
LAYERS = ("sim", "cpu", "protocols", "memsys", "interconnect", "workloads",
          "consistency", "analysis")


def bucket_of(filename: str) -> Tuple[str, ...]:
    """The buckets one profiled function counts towards: its package, plus
    ``protocols.base`` (``protocols/base.py``) or ``protocols.impl`` (the
    protocol family subpackages) for protocol code."""
    if os.path.abspath(filename) == os.path.abspath(__file__):
        return ("driver",)
    try:
        parts = Path(filename).relative_to(SRC / "repro").parts
    except ValueError:
        return ("stdlib",)
    if len(parts) < 2:
        return ("repro",)
    if parts[0] == "protocols":
        if parts[1] == "base.py":
            return ("protocols", "protocols.base")
        if len(parts) > 2:
            return ("protocols", "protocols.impl")
    return (parts[0],)


def profile_buckets(profiles: Dict[str, cProfile.Profile],
                    phases: Tuple[str, ...]) -> Dict[str, List[float]]:
    """``bucket -> [self seconds, calls]`` summed over ``phases``."""
    totals: Dict[str, List[float]] = {}
    for name in phases:
        if name not in profiles:
            continue
        for (filename, _, _), (_, calls, self_s, _, _) in \
                pstats.Stats(profiles[name]).stats.items():
            for bucket in bucket_of(filename):
                entry = totals.setdefault(bucket, [0.0, 0])
                entry[0] += self_s
                entry[1] += calls
    return totals


def stats_counts(cold: ColdPass) -> Dict[str, float]:
    """``SystemStats`` counts summed over the cold pass's cells."""
    from repro.sim.stats import SystemStats

    counts = dict.fromkeys(
        ("events", "mem_ops", "wb_full_stalls", "l1_hits", "l1_misses",
         "l2_requests", "self_inval_lines", "data_responses",
         "selfinval_responses", "memory_reads", "messages", "flits"), 0)
    for payload in cold.payloads.values():
        stats = SystemStats.from_dict(payload)
        l1, l2, cores = (stats.aggregate_l1(), stats.aggregate_l2(),
                         stats.aggregate_cores())
        counts["events"] += stats.events
        counts["mem_ops"] += cores.memory_ops
        counts["wb_full_stalls"] += cores.wb_full_stalls
        counts["l1_hits"] += (sum(l1.read_hits.values())
                              + sum(l1.write_hits.values()))
        counts["l1_misses"] += l1.total_misses
        counts["l2_requests"] += sum(l2.requests.values())
        counts["self_inval_lines"] += l1.lines_self_invalidated
        counts["data_responses"] += l1.data_responses
        counts["selfinval_responses"] += sum(
            l1.self_inval_triggering_responses.values())
        counts["memory_reads"] += l2.memory_reads
        counts["messages"] += stats.network.messages
        counts["flits"] += stats.network.flits
    return counts


def trace_decode_ops_per_s() -> float:
    """Decode rate of the committed trace via ``Trace.from_bytes``."""
    from repro.workloads.tracefile import Trace

    data = (ROOT / "benchmarks" / "traces" / "fft-mesi-c2.trace").read_bytes()
    ops = Trace.from_bytes(data).num_ops
    start = time.perf_counter()
    for _ in range(TRACE_DECODES):
        Trace.from_bytes(data)
    return ops * TRACE_DECODES / (time.perf_counter() - start)


def traced(bench: Bench) -> Dict[str, float]:
    """Per-layer metrics: one pass without cProfile, then one with it."""
    bench.warm_up()
    plain_wall, plain = one_pass(bench, Phases(profile=False))
    spans = bench.spans
    bench.spans = Spans()
    phases = Phases(profile=True)
    traced_wall, cold = one_pass(bench, phases)
    for cell, payload in plain.payloads.items():
        if cold.payloads.get(cell) != payload:
            bench.tally.fail(f"{cell_id(cell)}: traced stats differ from "
                             f"the untraced ones")

    counts = stats_counts(cold)
    events = counts["events"]
    every = profile_buckets(phases.profiles, tuple(phases.profiles))
    simulating = profile_buckets(phases.profiles, ("cold",))

    def self_s(bucket: str) -> float:
        return every.get(bucket, [0.0, 0])[0]

    def calls_per_event(bucket: str) -> float:
        return simulating.get(bucket, [0.0, 0])[1] / events

    metrics: Dict[str, float] = {}
    for layer in LAYERS + ("stdlib",):
        metrics[f"{layer}.self_s"] = self_s(layer)
        if layer not in ("consistency", "analysis"):
            metrics[f"{layer}.calls_per_event"] = calls_per_event(layer)
    metrics.update({
        "protocols.base.self_s": self_s("protocols.base"),
        "protocols.impl.self_s": self_s("protocols.impl"),
        "sim.events": events,
        "sim.build_system_s": spans.mean("sim.build_system_s"),
        "cpu.mem_ops": counts["mem_ops"],
        "cpu.wb_full_stalls": counts["wb_full_stalls"],
        "protocols.l1_hits": counts["l1_hits"],
        "protocols.l1_misses": counts["l1_misses"],
        "protocols.l2_requests": counts["l2_requests"],
        "protocols.self_inval_lines": counts["self_inval_lines"],
        "protocols.selfinval_response_frac": (
            counts["selfinval_responses"] / counts["data_responses"]
            if counts["data_responses"] else 0.0),
        "memsys.memory_reads": counts["memory_reads"],
        "interconnect.messages": counts["messages"],
        "interconnect.flits": counts["flits"],
        "workloads.build_s": spans.mean("workloads.build_s"),
        "workloads.trace_decode_ops_per_s": trace_decode_ops_per_s(),
        "consistency.litmus_test_s": spans.mean("consistency.litmus_test_s"),
        "analysis.cache_put_s": spans.mean("analysis.cache_put_s"),
        "analysis.cache_get_s": spans.mean("analysis.cache_get_s"),
        "analysis.cache_hit_ratio": bench.warm_hits / bench.warm_lookups,
        "analysis.sweep_overhead_s": spans.mean("analysis.sweep_overhead_s"),
        "trace.overhead_x": traced_wall / plain_wall,
    })
    return metrics


# ------------------------------------------------------------ entry point

def declared_metrics(trace: bool) -> Dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares for the
    mode (``per_layer`` when tracing, else ``end_to_end``)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the TSO-CC reproduction on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="SystemConfig.seed of every cell")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time the measured phases may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of a traced pass")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/``.

    Raises:
        SystemExit: when the checkout has no ``src/repro`` package.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}; run from "
                         f"the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Resolve the committed trace from this checkout, whatever the caller set.
    os.environ["REPRO_TRACE_DIR"] = str(ROOT / "benchmarks" / "traces")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    use_checkout()
    units = declared_metrics(bool(args.trace))

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=work_root))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work_dir)
        if args.trace:
            metrics = traced(bench)
        else:
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
              f"disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    tally = bench.tally
    print(f"{args.workload} seed={args.seed} "
          f"{'per-layer (traced)' if args.trace else 'end-to-end'}:")
    for name in units:
        print(f"  {name:36s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  failed/attempted: {tally.failed}/{tally.attempted} "
          f"(failed_frac {tally.failed / max(1, tally.attempted):.6g}); "
          f"stats digests "
          f"{'recorded' if bench.recorded else 'unrecorded, self-checked'} "
          f"for seed {args.seed}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
