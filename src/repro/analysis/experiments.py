"""Experiment runner: regenerates the data behind every figure of the paper.

:class:`ExperimentRunner` runs a (workload x protocol-configuration) matrix
on the simulator, caches the raw :class:`~repro.sim.stats.SystemStats`, and
exposes one method per figure of the evaluation:

===========================  =============================================
Method                        Paper artefact
===========================  =============================================
``figure2_storage``           Figure 2 — storage overhead vs core count
``figure3_execution_time``    Figure 3 — normalized execution time
``figure4_network_traffic``   Figure 4 — normalized traffic (total flits)
``figure5_miss_breakdown``    Figure 5 — L1 miss breakdown by state
``figure6_hit_breakdown``     Figure 6 — L1 hit/miss breakdown
``figure7_selfinval_trigger`` Figure 7 — self-invalidating data responses
``figure8_rmw_latency``       Figure 8 — normalized RMW latency
``figure9_selfinval_causes``  Figure 9 — self-invalidation cause breakdown
===========================  =============================================

The benchmark harness in ``benchmarks/`` is a thin wrapper around this class
(one pytest-benchmark entry per figure), and the examples use it directly.

Execution is delegated to :class:`~repro.analysis.parallel.MatrixExecutor`:
independent (workload, protocol) cells are fanned out over a process pool
(``jobs`` argument / ``REPRO_JOBS`` env var) and can be served from the
content-addressed on-disk cache in ``benchmarks/results/cache/`` when a
:class:`~repro.analysis.parallel.ResultCache` is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import add_summary_row, gmean, normalize_to_baseline
from repro.analysis.parallel import MatrixExecutor, ResultCache
from repro.protocols.registry import PAPER_CONFIGURATIONS, get_protocol
from repro.protocols.storage import StorageModel
from repro.protocols.tsocc.config import PAPER_TSOCC_CONFIGS
from repro.sim.config import SystemConfig
from repro.sim.stats import SystemStats
from repro.workloads.benchmarks import benchmark_names


@dataclass
class FigureData:
    """Data series for one figure: ``{config: {row: value}}`` plus metadata."""

    figure: str
    series: Dict[str, Dict[str, float]]
    description: str = ""
    row_order: List[str] = field(default_factory=list)


class ExperimentRunner:
    """Runs the paper's evaluation matrix and derives per-figure data.

    Args:
        system_config: platform configuration (a scaled-down preset by
            default; pass ``SystemConfig()`` for the full Table 2 platform).
        protocols: configuration names to evaluate (default: all seven of
            the paper, MESI first).
        workloads: workload names (default: the 16 of Table 3).
        scale: workload scale factor.
        max_cycles: per-run watchdog.
        jobs: worker-process count for fanning cells out (``None`` →
            ``REPRO_JOBS`` env var → ``os.cpu_count()``; ``1`` is serial).
        cache: optional on-disk :class:`ResultCache`; when supplied,
            previously simulated cells are served from disk.
        shard: ``(index, count)`` forwarded to the :class:`MatrixExecutor`
            (``None`` resolves ``REPRO_SHARD``; see
            :mod:`repro.analysis.shard`).  When sharded, ``run_all`` fills
            in only the cells of that shard.
    """

    def __init__(
        self,
        system_config: Optional[SystemConfig] = None,
        protocols: Optional[Sequence[str]] = None,
        workloads: Optional[Sequence[str]] = None,
        scale: float = 0.5,
        max_cycles: int = 200_000_000,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.system_config = system_config or SystemConfig().scaled(num_cores=8)
        self.protocols = list(protocols) if protocols else list(PAPER_CONFIGURATIONS)
        self.workloads = list(workloads) if workloads else benchmark_names()
        self.scale = scale
        self.max_cycles = max_cycles
        self.baseline = self.protocols[0]
        self.executor = MatrixExecutor(self.system_config, scale=scale,
                                       max_cycles=max_cycles, jobs=jobs,
                                       cache=cache, shard=shard)
        # protocol -> workload -> SystemStats (in-memory memo on top of the
        # executor's on-disk cache)
        self.results: Dict[str, Dict[str, SystemStats]] = {}

    # ------------------------------------------------------------------ running

    def run_one(self, workload_name: str, protocol: str) -> SystemStats:
        """Run one (workload, protocol) cell and cache its statistics."""
        cached = self.results.get(protocol, {}).get(workload_name)
        if cached is not None:
            return cached
        stats = self.executor.run_cell(workload_name, protocol)
        self.results.setdefault(protocol, {})[workload_name] = stats
        return stats

    def run_all(self) -> None:
        """Run the full matrix (idempotent; cells are cached).

        Missing cells are executed through the :class:`MatrixExecutor`, i.e.
        in parallel across worker processes when ``jobs > 1``.
        """
        missing = [(protocol, workload_name)
                   for protocol in self.protocols
                   for workload_name in self.workloads
                   if workload_name not in self.results.get(protocol, {})]
        if not missing:
            return
        for (protocol, workload_name), stats in \
                self.executor.run_cells(missing).items():
            self.results.setdefault(protocol, {})[workload_name] = stats

    # ------------------------------------------------------------------ figures

    def _metric_matrix(self, metric) -> Dict[str, Dict[str, float]]:
        # Populate the whole matrix through the executor first so missing
        # cells are fanned out in parallel rather than fetched one-by-one.
        self.run_all()
        matrix: Dict[str, Dict[str, float]] = {}
        for protocol in self.protocols:
            matrix[protocol] = {}
            for workload_name in self.workloads:
                stats = self.run_one(workload_name, protocol)
                matrix[protocol][workload_name] = float(metric(stats))
        return matrix

    def figure2_storage(self, core_counts: Iterable[int] = (16, 32, 64, 96, 128)) -> FigureData:
        """Figure 2: coherence storage overhead (MB) vs core count."""
        model = StorageModel(SystemConfig())
        series = model.figure2_series(PAPER_TSOCC_CONFIGS, core_counts=core_counts)
        cores = [int(c) for c in series.pop("cores")]
        data = {name: {str(c): values[i] for i, c in enumerate(cores)}
                for name, values in series.items()}
        return FigureData(figure="Figure 2",
                          series=data,
                          description="coherence storage overhead (MB) vs core count",
                          row_order=[str(c) for c in cores])

    def figure3_execution_time(self) -> FigureData:
        """Figure 3: execution time normalized to MESI (plus gmean)."""
        raw = self._metric_matrix(lambda s: s.cycles)
        normalized = add_summary_row(normalize_to_baseline(raw, self.baseline))
        return FigureData(figure="Figure 3", series=normalized,
                          description="execution time normalized to MESI",
                          row_order=self.workloads + ["gmean"])

    def figure4_network_traffic(self) -> FigureData:
        """Figure 4: on-chip network traffic (total flits) normalized to MESI."""
        raw = self._metric_matrix(lambda s: s.total_flits)
        normalized = add_summary_row(normalize_to_baseline(raw, self.baseline))
        return FigureData(figure="Figure 4", series=normalized,
                          description="network traffic (total flits) normalized to MESI",
                          row_order=self.workloads + ["gmean"])

    def figure5_miss_breakdown(self) -> FigureData:
        """Figure 5: L1 miss rate breakdown by state (percent of accesses)."""
        self.run_all()
        series: Dict[str, Dict[str, float]] = {}
        for protocol in self.protocols:
            for workload_name in self.workloads:
                stats = self.run_one(workload_name, protocol)
                breakdown = stats.miss_breakdown()
                for component, value in breakdown.items():
                    key = f"{protocol}:{component}"
                    series.setdefault(key, {})[workload_name] = 100.0 * value
        return FigureData(figure="Figure 5", series=series,
                          description="L1 miss breakdown (percent of accesses) by state",
                          row_order=list(self.workloads))

    def figure6_hit_breakdown(self) -> FigureData:
        """Figure 6: L1 hits and misses split by state (percent of accesses)."""
        self.run_all()
        series: Dict[str, Dict[str, float]] = {}
        for protocol in self.protocols:
            for workload_name in self.workloads:
                stats = self.run_one(workload_name, protocol)
                for component, value in stats.hit_breakdown().items():
                    key = f"{protocol}:{component}"
                    series.setdefault(key, {})[workload_name] = 100.0 * value
        return FigureData(figure="Figure 6", series=series,
                          description="L1 hit/miss breakdown (percent of accesses)",
                          row_order=list(self.workloads))

    def figure7_selfinval_triggers(self) -> FigureData:
        """Figure 7: percent of data responses triggering self-invalidation."""
        self.run_all()
        series: Dict[str, Dict[str, float]] = {}
        for protocol in self.protocols:
            if not get_protocol(protocol).self_invalidates:
                continue
            for workload_name in self.workloads:
                stats = self.run_one(workload_name, protocol)
                for cause, value in stats.self_invalidation_trigger_fraction().items():
                    key = f"{protocol}:{cause}"
                    series.setdefault(key, {})[workload_name] = 100.0 * value
        return FigureData(figure="Figure 7", series=series,
                          description="% of L1 data responses triggering self-invalidation",
                          row_order=list(self.workloads))

    def figure8_rmw_latency(self) -> FigureData:
        """Figure 8: average RMW latency normalized to MESI."""
        raw = self._metric_matrix(lambda s: max(s.avg_rmw_latency(), 1e-9))
        normalized = add_summary_row(normalize_to_baseline(raw, self.baseline))
        return FigureData(figure="Figure 8", series=normalized,
                          description="RMW latency normalized to MESI",
                          row_order=self.workloads + ["gmean"])

    def figure9_selfinval_causes(self) -> FigureData:
        """Figure 9: breakdown of self-invalidation causes (percent)."""
        self.run_all()
        series: Dict[str, Dict[str, float]] = {}
        for protocol in self.protocols:
            if not get_protocol(protocol).self_invalidates:
                continue
            for workload_name in self.workloads:
                stats = self.run_one(workload_name, protocol)
                for cause, value in stats.self_invalidation_cause_breakdown().items():
                    key = f"{protocol}:{cause}"
                    series.setdefault(key, {})[workload_name] = 100.0 * value
        return FigureData(figure="Figure 9", series=series,
                          description="breakdown of L1 self-invalidation causes",
                          row_order=list(self.workloads))

    # ------------------------------------------------------------------ summaries

    def headline_summary(self) -> Dict[str, float]:
        """The paper's headline numbers: gmean normalized execution time and
        traffic per configuration (1.0 = MESI)."""
        exec_time = normalize_to_baseline(self._metric_matrix(lambda s: s.cycles),
                                          self.baseline)
        traffic = normalize_to_baseline(self._metric_matrix(lambda s: s.total_flits),
                                        self.baseline)
        summary: Dict[str, float] = {}
        for protocol in self.protocols:
            if protocol == self.baseline:
                continue
            summary[f"exec_time_gmean[{protocol}]"] = gmean(exec_time[protocol].values())
            summary[f"traffic_gmean[{protocol}]"] = gmean(traffic[protocol].values())
        return summary
