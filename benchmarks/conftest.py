"""Shared fixtures for the figure/table regeneration benchmarks.

The benchmarks are organised one file per table/figure of the paper.  They
share a single :class:`~repro.analysis.experiments.ExperimentRunner` (the
full workload x protocol matrix is simulated once per pytest session and
cached), and every benchmark writes the regenerated table to
``benchmarks/results/`` so the numbers can be inspected and compared against
the paper (see EXPERIMENTS.md).

Independent matrix cells are fanned out over worker processes and persisted
in the content-addressed result cache under ``benchmarks/results/cache/``,
so re-running a figure benchmark with an unchanged configuration performs
zero new simulations.

Environment knobs (all optional):

* ``REPRO_BENCH_CORES``     — simulated core count (default 8)
* ``REPRO_BENCH_SCALE``     — workload scale factor (default 0.35)
* ``REPRO_BENCH_WORKLOADS`` — comma-separated subset of Table 3 names
* ``REPRO_BENCH_PROTOCOLS`` — comma-separated subset of configuration names
* ``REPRO_BENCH_JOBS``      — worker processes for the matrix fan-out
  (default: ``REPRO_JOBS`` or the CPU count)
* ``REPRO_BENCH_CACHE``     — set to ``0`` to bypass the on-disk result cache
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.analysis.parallel import ResultCache
from repro.sim.config import SystemConfig

RESULTS_DIR = Path(__file__).parent / "results"


def _env_list(name: str):
    raw = os.environ.get(name, "").strip()
    return [item.strip() for item in raw.split(",") if item.strip()] or None


def _executor_knobs():
    """Worker-count and cache settings shared by every session fixture
    (``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_CACHE``)."""
    jobs_env = os.environ.get("REPRO_BENCH_JOBS", "").strip()
    jobs = int(jobs_env) if jobs_env else None
    cache_enabled = os.environ.get("REPRO_BENCH_CACHE", "1").lower() not in (
        "0", "false", "no")
    return jobs, ResultCache(RESULTS_DIR / "cache", enabled=cache_enabled)


@pytest.fixture(scope="session")
def bench_runner() -> ExperimentRunner:
    """Session-cached experiment runner for the full evaluation matrix."""
    num_cores = int(os.environ.get("REPRO_BENCH_CORES", "8"))
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
    jobs, cache = _executor_knobs()
    runner = ExperimentRunner(
        system_config=SystemConfig().scaled(num_cores=num_cores),
        protocols=_env_list("REPRO_BENCH_PROTOCOLS"),
        workloads=_env_list("REPRO_BENCH_WORKLOADS"),
        scale=scale,
        jobs=jobs,
        cache=cache,
    )
    return runner


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory the regenerated tables are written to."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def run_sweep():
    """Run a registered sensitivity sweep with the session's executor knobs
    (``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_CACHE``) applied.

    The ablation benchmarks are thin declarations over
    :mod:`repro.analysis.sweeps`; this fixture is their only execution
    plumbing."""
    from repro.analysis.sweeps import get_sweep

    jobs, cache = _executor_knobs()

    def _run(name: str):
        return get_sweep(name).run(jobs=jobs, cache=cache)

    return _run
