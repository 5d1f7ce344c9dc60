"""Command-line interface.

Exposes the most common operations without writing Python::

    python -m repro list                          # workloads & protocol configs
    python -m repro protocols                     # registered protocol plugins
    python -m repro run fft --protocol MESI --protocol TSO-CC-4-12-3
    python -m repro figure 3 --workloads fft,radix --scale 0.3 --jobs 8
    python -m repro sweep --list                  # registered sensitivity sweeps
    python -m repro sweep timestamp-bits --jobs 8
    python -m repro run zipf:n100000-a90-s7       # parameterised generator
    python -m repro trace capture fft --protocol MESI --cores 2 --scale 0.2
    python -m repro trace replay fft --protocol TSO-CC-4-12-3
    python -m repro trace ls                         # saved traces + digests
    python -m repro suites                           # registered workload suites
    python -m repro sweep scenario-smoke --jobs 4    # suite incl. a trace
    python -m repro shard plan ci-smoke --shard-count 4
    python -m repro shard run ci-smoke --shard-index 1 --shard-count 4
    python -m repro shard merge ci-smoke --from shard-dir-0 --from shard-dir-1
    python -m repro storage --cores 32,64,128
    python -m repro litmus --protocol TSO-CC-4-12-3 --iterations 10
    python -m repro litmus --random 20 --seed 7      # + generated tests
    python -m repro fuzz list                        # conformance campaigns
    python -m repro fuzz run fuzz-smoke --jobs 8
    python -m repro fuzz replay fuzz-smoke --seed 17 --protocol MESI
    python -m repro fuzz shrink fuzz-smoke --seed 17 --protocol MESI
    python -m repro fuzz merge fuzz-smoke --from dir0 --from dir1
    python -m repro report sweep ci-smoke            # normalized tables, no sims
    python -m repro report dash -o dashboard.html    # static HTML dashboard
    python -m repro report diff cacheA cacheB --fail-on changed
    python -m repro cache stats                      # result-cache totals per kind
    python -m repro cache ls --kind fuzz --limit 20
    python -m repro cache gc --max-bytes 256M --max-age 7d

Every sub-command prints a plain-text table (the same renderers the
benchmark harness uses) and exits non-zero if a correctness check fails
(invalid workload results or a forbidden litmus outcome).

The experiment commands (``run``, ``figure``, ``sweep``) fan independent
simulations out over worker processes (``--jobs``, default from
``REPRO_JOBS`` or the CPU count), and reuse previously simulated cells
from the on-disk result cache in ``benchmarks/results/cache/`` unless
``--no-cache`` is given.  ``run``, ``sweep`` and ``fuzz run`` can run one
shard of their cells (``--shard-index``/``--shard-count`` or
``REPRO_SHARD``); the ``shard`` sub-command plans, runs and merges
multi-machine/CI shards of a registered sweep; see EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro.analysis.cache_gc import collect_garbage, scan_entries
from repro.analysis.experiments import ExperimentRunner
from repro.analysis.parallel import (DEFAULT_CACHE_DIR, ResultCache,
                                     WorkloadValidationError,
                                     _default_results_root, get_cell_kind,
                                     resolve_jobs)
from repro.analysis.report import (SpecReport, diff_snapshots, gather_cells,
                                   render_dashboard, render_table)
from repro.analysis.shard import (merge_results, missing_cells, plan_sweep,
                                  resolve_shard)
from repro.analysis.sweeps import SWEEPS, SweepSpec, list_sweeps
from repro.analysis.tables import format_series_table, format_table, protocol_rows
from repro.consistency import canonical_tests, generate_random_test, verify_litmus
from repro.consistency.fuzz import (CAMPAIGNS, cell_shape, format_test,
                                    list_campaigns, replay_cell, shrink_cell)
from repro.protocols.registry import get_protocol, list_protocol_names
from repro.protocols.storage import StorageModel
from repro.protocols.tsocc.config import PAPER_TSOCC_CONFIGS
from repro.sim.config import SystemConfig
from repro.workloads.benchmarks import BENCHMARK_FAMILIES, benchmark_names
from repro.workloads.catalog import canonical_workload_name, make_workload
from repro.workloads.suites import get_suite, list_suites as list_workload_suites
from repro.workloads.tracefile import (Trace, canonical_trace_name,
                                       capture_trace, default_trace_dir,
                                       is_trace_name, list_traces,
                                       trace_digest, trace_path,
                                       trace_workload)

#: Where ``figure --save`` writes its regenerated tables.
DEFAULT_RESULTS_DIR = _default_results_root()


# ------------------------------------------------------------ input policy

class UsageError(Exception):
    """User input that does not resolve: :func:`main` prints the message
    and exits 2."""


def _message(exc: Exception) -> str:
    # A KeyError's str() is the repr of its argument; print the text.
    return str(exc.args[0] if exc.args else exc)


@contextmanager
def _resolving():
    """Turn a failure to resolve user input (an unknown name, a malformed
    number, a missing trace file) into a :class:`UsageError`.  Wrap only
    resolution, never a simulation: an exception raised inside a run keeps
    its traceback."""
    try:
        yield
    except (KeyError, ValueError, FileNotFoundError) as exc:
        raise UsageError(_message(exc)) from None


def _split(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _numbers(value: Optional[str], parse, flag: str) -> Optional[list]:
    """Parse a comma-separated list of positive numbers (``None`` when
    absent).

    Raises:
        ValueError: naming the flag and the malformed value.
    """
    items = _split(value)
    if items is None:
        return None
    try:
        numbers = [parse(item) for item in items]
        if numbers and min(numbers) > 0:
            return numbers
    except ValueError:
        pass
    raise ValueError(f"{flag} takes comma-separated positive "
                     f"{parse.__name__} values, got {value!r}")


def _check_names(protocols=(), workloads=(), platforms=()) -> None:
    """Look every protocol up in the registry and build every workload on
    every ``(cores, scale)`` platform once — cheap, since programs are
    generated lazily — so an unknown name, a missing trace file or a
    platform too small for a workload fails before any simulation.

    Raises:
        KeyError, ValueError, FileNotFoundError: for the first input that
            does not resolve.
    """
    for protocol in protocols:
        get_protocol(protocol)
    for workload in workloads:
        for cores, scale in platforms:
            make_workload(workload, num_cores=cores, scale=scale)


def _named_spec(name: str, registry=None):
    """The spec registered as ``name`` in ``registry`` — or, when
    ``registry`` is ``None``, a sweep or failing that a fuzz campaign (both
    report through the same declared-field pipeline).

    Raises:
        KeyError: the name is not registered.
    """
    if registry is not None:
        return registry[name]
    if name in SWEEPS:
        return SWEEPS[name]
    if name in CAMPAIGNS:
        return CAMPAIGNS[name]
    raise KeyError(f"unknown sweep or campaign {name!r}; see "
                   f"'repro sweep --list' and 'repro fuzz list'")


def _spec(args: argparse.Namespace):
    """Resolve ``args.name`` against ``args.registry`` with the command's
    overrides, then every protocol and workload on it, so a typo fails
    before anything is planned, run or merged."""
    with _resolving():
        spec = _named_spec(args.name, args.registry)
        if isinstance(spec, SweepSpec):
            spec = spec.subset(
                protocols=_split(args.protocols),
                workloads=_split(args.workloads),
                cores=_numbers(args.cores, int, "--cores"),
                scales=_numbers(args.scales, float, "--scales"),
            )
            _check_names(workloads=spec.resolved_workloads(),
                         platforms=[(cores, scale) for cores in spec.cores
                                    for scale in spec.scales])
        elif "seeds" in args:
            spec = spec.subset(protocols=_split(args.protocols),
                               num_seeds=args.seeds,
                               seed_start=args.seed_start)
        _check_names(protocols=spec.protocols)
    return spec


def _kind(name: Optional[str]) -> Optional[str]:
    """A ``--kind`` value checked against the cell-kind registry (``None``
    when the flag is absent)."""
    if name is None:
        return None
    with _resolving():
        return get_cell_kind(name).name


def _existing_dir(path: str, what: str) -> Path:
    """``path`` as a directory that must already exist."""
    if not Path(path).is_dir():
        raise UsageError(f"{what} is not a directory: {path}")
    return Path(path)


def _shard(args: argparse.Namespace):
    with _resolving():
        return resolve_shard(args.shard_index, args.shard_count)


def _make_cache(args: argparse.Namespace) -> ResultCache:
    return ResultCache(Path(args.cache_dir), enabled=not args.no_cache)


def _print_executed(spec, executed: int, simulated: int) -> None:
    print(f"({executed} of {spec.num_cells} cells executed: "
          f"{simulated} simulated, {executed - simulated} from cache)")


# ------------------------------------------------------------ commands

def _cmd_list(_args: argparse.Namespace) -> int:
    print("Protocol configurations:")
    for name in list_protocol_names():
        print(f"  {name}")
    print("\nBenchmark stand-ins (Table 3):")
    rows = [{"benchmark": name, "suite": suite}
            for name, suite in BENCHMARK_FAMILIES.items()]
    print(format_table(rows))
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    with _resolving():
        config = SystemConfig().with_cores(args.cores)
    rows = protocol_rows(system_config=config)
    print(format_table(
        rows,
        title=f"Registered protocol plugins (storage at {args.cores} cores)",
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    protocols = args.protocol or ["MESI", "TSO-CC-4-12-3"]
    with _resolving():
        # Resolve the workload eagerly (and canonicalize it for the cache
        # key) so a typo, a missing trace file or a digest mismatch fails
        # fast instead of surfacing inside a worker process.
        workload_name = canonical_workload_name(args.workload)
        _check_names(protocols, [workload_name], [(args.cores, args.scale)])
    runner = ExperimentRunner(
        system_config=SystemConfig().scaled(num_cores=args.cores),
        protocols=protocols,
        workloads=[workload_name],
        scale=args.scale,
        max_cycles=args.max_cycles,
        jobs=args.jobs,
        cache=_make_cache(args),
        shard=_shard(args),
    )
    runner.run_all()
    rows = []
    skipped = []
    for protocol in protocols:
        stats = runner.results.get(protocol, {}).get(workload_name)
        if stats is None:
            # A sharded run only executes the cells of its shard.
            skipped.append(protocol)
            continue
        summary = stats.summary()
        rows.append({
            "protocol": protocol,
            "valid": True,
            "cycles": int(summary["cycles"]),
            "flits": int(summary["flits"]),
            "l1_miss_rate": summary["l1_miss_rate"],
            "self_inval": int(summary["self_invalidations"]),
            "avg_rmw_latency": summary["avg_rmw_latency"],
        })
    print(format_table(rows, title=f"{workload_name} ({args.cores} cores, scale {args.scale})"))
    if skipped:
        print(f"(skipped by shard backend: {', '.join(skipped)})")
    return 0


#: ``repro figure`` numbers and the :class:`ExperimentRunner` methods that
#: compute them.
_FIGURES = {
    "2": "figure2_storage",
    "3": "figure3_execution_time",
    "4": "figure4_network_traffic",
    "5": "figure5_miss_breakdown",
    "6": "figure6_hit_breakdown",
    "7": "figure7_selfinval_triggers",
    "8": "figure8_rmw_latency",
    "9": "figure9_selfinval_causes",
}


def _cmd_figure(args: argparse.Namespace) -> int:
    with _resolving():
        shard = resolve_shard()
    if shard is not None:
        # A figure needs every cell of its matrix; refuse up front instead
        # of simulating one shard and crashing on the first missing cell.
        raise UsageError("repro figure needs the full matrix and cannot run "
                         "sharded; unset REPRO_SHARD (shard a sweep with "
                         "'repro shard run' instead)")
    if args.number not in _FIGURES:
        raise UsageError(f"unknown figure {args.number!r}; choose one of "
                         f"{', '.join(_FIGURES)}")
    protocols = _split(args.protocols)
    workloads = _split(args.workloads)
    if args.number != "2":  # the storage model simulates nothing
        with _resolving():
            _check_names(protocols or (), workloads or benchmark_names(),
                         [(args.cores, args.scale)])
    runner = ExperimentRunner(
        system_config=SystemConfig().scaled(num_cores=args.cores),
        protocols=protocols,
        workloads=workloads,
        scale=args.scale,
        jobs=args.jobs,
        cache=_make_cache(args),
    )
    figure = getattr(runner, _FIGURES[args.number])()
    label = "cores" if args.number == "2" else "workload"
    table = format_series_table(figure.series, row_order=figure.row_order,
                                title=f"{figure.figure} — {figure.description}",
                                row_label=label)
    print(table)
    if args.save:
        _save(args, f"figure{args.number}.txt", table)
    return 0


def _save(args: argparse.Namespace, name: str, table: str) -> None:
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / name
    out.write_text(table + "\n", encoding="utf-8")
    print(f"saved {out}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        def cell_count(spec: SweepSpec):
            # A sweep whose suite references a trace file that is absent on
            # this machine should not break the listing of *other* sweeps.
            try:
                return spec.num_cells
            except (KeyError, ValueError, FileNotFoundError):
                return "?"

        rows = [{
            "sweep": spec.name,
            "variants": len(spec.protocols),
            "workloads": len(spec.workloads),
            "cores": ",".join(str(c) for c in spec.cores),
            "scales": ",".join(str(s) for s in spec.scales),
            "cells": cell_count(spec),
            "description": spec.description,
        } for spec in list_sweeps()]
        print(format_table(rows, title="Registered sensitivity sweeps"))
        return 0
    spec = _spec(args)
    if args.cells:
        rows = [{"cores": cores, "scale": scale, "protocol": protocol,
                 "workload": workload}
                for cores, scale, protocol, workload in spec.cells()]
        print(format_table(rows, title=f"Sweep {spec.name}: {spec.num_cells} cells"))
        return 0
    cache = _make_cache(args)
    result = spec.run(jobs=args.jobs, cache=cache, shard=_shard(args))
    table = result.tabulate(per_cell=args.per_cell)
    print(table)
    _print_executed(spec, len(result.stats), result.simulations_run)
    if args.figure or args.baseline:
        report = result.report(baseline=args.baseline)
        if report.baseline is not None:
            print()
            print(report.mix_table().render())
        if args.figure:
            for cores, scale in report.platforms:
                print()
                print(report.figures(cores=cores, scale=scale))
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if args.save:
        _save(args, f"sweep_{spec.name}.txt", table)
    return 0


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    spec = _spec(args)
    shard_count = args.shard_count
    if shard_count is None:
        with _resolving():
            shard = resolve_shard()
        shard_count = shard[1] if shard is not None else None
    if shard_count is None:
        raise UsageError("shard plan needs --shard-count "
                         "(or REPRO_SHARD=<index>/<count>)")
    if shard_count < 1:
        raise UsageError(f"shard count must be >= 1, got {shard_count}")
    plan = plan_sweep(spec, shard_count)
    rows = [{"shard": cell.shard, "cores": cell.cores,
             "scale": cell.scale, "protocol": cell.protocol,
             "workload": cell.workload, "key": cell.key[:12]}
            for cell in plan.cells]
    print(format_table(
        rows,
        title=f"Sweep {spec.name}: {len(plan.cells)} cells "
              f"over {shard_count} shards"))
    sizes = plan.shard_sizes()
    print("cells per shard: "
          + ", ".join(f"{i}:{n}" for i, n in enumerate(sizes)))
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    spec = _spec(args)
    shard = _shard(args)
    if shard is None:
        raise UsageError("shard run needs --shard-index/--shard-count "
                         "or REPRO_SHARD=<index>/<count>")
    result = spec.run(jobs=args.jobs, cache=_make_cache(args), shard=shard)
    owned = {(cell.protocol, cell.workload, cell.cores, cell.scale)
             for cell in plan_sweep(spec, shard[1]).shard_cells(shard[0])}
    print(result.tabulate(per_cell=True))
    # A warm shared cache can hand back cells of *other* shards too; the
    # footer accounts only for this shard's own cells.
    owned_executed = sum(1 for cell in result.stats if cell in owned)
    print(f"(shard {shard[0]}/{shard[1]}: owns {len(owned)} of "
          f"{spec.num_cells} cells; {result.simulations_run} simulated, "
          f"{owned_executed - result.simulations_run} owned from cache)")
    return 0


#: Cap on the per-cell INCOMPLETE listing after a merge: a half-merged
#: tso-conformance campaign misses thousands of cells.
_MAX_MISSING_LISTED = 20


def _cmd_merge(args: argparse.Namespace) -> int:
    """``shard merge`` and ``fuzz merge``: merge ``args.sources`` into
    ``args.cache_dir`` and, when a spec is named, verify its cells are
    fully covered (exit 1 on merge failure or missing cells)."""
    # Resolve the spec before touching the destination cache so a bad name
    # or malformed override fails before any merging happens.
    spec = _spec(args) if args.name else None
    for source in args.sources:
        _existing_dir(source, "--from")
    dest = ResultCache(Path(args.cache_dir))
    try:
        report = merge_results(args.sources, dest)
    except (OSError, ValueError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"merged {report.merged} entries from {len(args.sources)} "
          f"director{'y' if len(args.sources) == 1 else 'ies'} into "
          f"{dest.root} ({report.already_present} already present, "
          f"{report.invalid} invalid)")
    if spec is None:
        return 0
    missing = missing_cells(spec, dest)
    if missing:
        print(f"INCOMPLETE: {len(missing)} of {spec.num_cells} cells of "
              f"{spec.noun} {spec.name!r} missing after merge:",
              file=sys.stderr)
        for cell in missing[:_MAX_MISSING_LISTED]:
            print(f"  {cell.protocol} x {cell.workload} "
                  f"(cores {cell.cores}, scale {cell.scale})", file=sys.stderr)
        if len(missing) > _MAX_MISSING_LISTED:
            print(f"  ... and {len(missing) - _MAX_MISSING_LISTED} more",
                  file=sys.stderr)
        return 1
    print(f"complete: all {spec.num_cells} cells of {spec.noun} "
          f"{spec.name!r} present")
    return 0


# ------------------------------------------------------------------ report

def _cmd_report_sweep(args: argparse.Namespace) -> int:
    spec = _spec(args)
    report = SpecReport.from_cache(spec, Path(args.cache_dir),
                                   baseline=args.baseline)
    if report.num_present == 0:
        print(f"no cached cells for {spec.name!r} under {args.cache_dir}; "
              f"run the sweep/campaign (or merge shard caches) first",
              file=sys.stderr)
        return 1
    table = report.cell_table() if args.per_cell else \
        report.mix_table(normalized=not args.no_normalize)
    output = render_table(table, args.format)
    if args.figure:
        for cores, scale in report.platforms:
            output += "\n\n" + report.figures(cores=cores, scale=scale)
    if args.format == "terminal":
        output += (f"\n({report.num_present} of {len(spec.cells())} cells "
                   f"cached under {args.cache_dir})")
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(output)
    if args.html:
        Path(args.html).write_text(
            render_dashboard([report],
                             title=f"repro report: {spec.name}",
                             generated=_dashboard_stamp(args.cache_dir)),
            encoding="utf-8")
        print(f"wrote {args.html}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_report_cache(args: argparse.Namespace) -> int:
    tables = gather_cells(_existing_dir(args.cache_dir, "--cache-dir"),
                          kind=_kind(args.kind), protocol=args.protocol,
                          workload=args.workload)
    if not tables:
        print(f"no cached cells match under {args.cache_dir}")
        return 0
    print("\n\n".join(render_table(table, args.format).rstrip("\n")
                      for table in tables.values()))
    return 0


def _dashboard_stamp(cache_dir) -> str:
    return (f"generated {time.strftime('%Y-%m-%d %H:%M:%S %Z')} "
            f"from cache {cache_dir}")


def _cmd_report_dash(args: argparse.Namespace) -> int:
    names = _split(args.sweeps)
    with _resolving():
        specs = [_named_spec(name) for name in names or []] or list_sweeps()
    reports = []
    for spec in specs:
        report = SpecReport.from_cache(spec, Path(args.cache_dir))
        # An explicitly requested spec renders even when empty (the
        # dashboard shows 0/N cached); the default all-sweeps scan keeps
        # only specs the cache knows anything about.
        if names or report.num_present:
            reports.append(report)
    Path(args.out).write_text(
        render_dashboard(reports, title=args.title,
                         generated=_dashboard_stamp(args.cache_dir)),
        encoding="utf-8")
    print(f"wrote {args.out} ({len(reports)} section"
          f"{'' if len(reports) == 1 else 's'})")
    return 0


#: ``report diff --fail-on`` classes, mapped to the diff fields they gate.
_DIFF_FAIL_CLASSES = ("changed", "added", "removed", "invalid", "any")


def _cmd_report_diff(args: argparse.Namespace) -> int:
    _existing_dir(args.snapshot_a, "snapshot A")
    _existing_dir(args.snapshot_b, "snapshot B")
    diff = diff_snapshots(args.snapshot_a, args.snapshot_b,
                          kind=_kind(args.kind))
    print(diff.to_json() if args.json else diff.describe())
    fail_on = set(args.fail_on or [])
    if "any" in fail_on:
        fail_on = {"changed", "added", "removed", "invalid"}
    tripped = []
    for cls in ("changed", "added", "removed"):
        if cls in fail_on and getattr(diff, cls):
            tripped.append(cls)
    if "invalid" in fail_on and (diff.invalid_a or diff.invalid_b):
        tripped.append("invalid")
    if tripped:
        print(f"FAIL: snapshot drift in class(es): {', '.join(tripped)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    with _resolving():
        core_counts = _numbers(args.cores, int, "--cores") or [16, 32, 64, 128]
    model = StorageModel(SystemConfig())
    series = model.figure2_series(PAPER_TSOCC_CONFIGS, core_counts=core_counts)
    cores = [int(c) for c in series.pop("cores")]
    data = {name: {str(c): values[i] for i, c in enumerate(cores)}
            for name, values in series.items()}
    print(format_series_table(data, row_order=[str(c) for c in cores],
                              title="Coherence storage overhead (MB)",
                              row_label="cores"))
    return 0


def _cmd_litmus(args: argparse.Namespace) -> int:
    with _resolving():
        _check_names(protocols=[args.protocol])
    if args.iterations < 1:
        raise UsageError(f"--iterations must be >= 1, got {args.iterations}")
    tests = canonical_tests()
    if args.tests:
        wanted = set(_split(args.tests) or [])
        tests = [t for t in tests if t.name in wanted]
        if not tests:
            raise UsageError(f"no litmus tests match {args.tests!r}")
    if args.random < 0:
        raise UsageError("--random must be >= 0")
    tests += [generate_random_test(args.seed + index)
              for index in range(args.random)]
    passed, results = verify_litmus(tests, protocol=args.protocol,
                                    iterations=args.iterations)
    for result in results:
        print(result.summary())
    print("ALL PASS" if passed else "FORBIDDEN OUTCOME OBSERVED")
    return 0 if passed else 1


# ------------------------------------------------------------------ fuzz

def _cmd_fuzz_list(_args: argparse.Namespace) -> int:
    rows = [{
        "campaign": spec.name,
        "protocols": len(spec.protocols),
        "seeds": f"{spec.seed_start}..{spec.seed_start + spec.num_seeds - 1}",
        "shapes": len(spec.shapes()),
        "cells": spec.num_cells,
        "iterations": spec.iterations,
        "description": spec.description,
    } for spec in list_campaigns()]
    print(format_table(rows, title="Registered conformance-fuzzing campaigns"))
    return 0


def _cmd_fuzz_cells(args: argparse.Namespace) -> int:
    spec = _spec(args)
    rows = [{"cores": cores, "protocol": protocol, "workload": workload}
            for cores, _scale, protocol, workload in spec.cells()]
    print(format_table(rows, title=f"Campaign {spec.name}: "
                                   f"{spec.num_cells} cells"))
    return 0


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    spec = _spec(args)
    result = spec.run(jobs=args.jobs, cache=_make_cache(args),
                      shard=_shard(args))
    print(result.tabulate())
    _print_executed(spec, len(result.cells), result.simulations_run)
    failures = result.failures()
    if failures:
        print("\nFORBIDDEN OUTCOMES OBSERVED:", file=sys.stderr)
        for cell in failures:
            outcome = dict(cell.violations[0]) if cell.violations else {}
            params = cell.params
            coordinates = (f"--seed {cell.seed} --protocol {cell.protocol}")
            if len(spec.shapes()) > 1:
                # Replay/shrink default to the campaign's first shape
                # point; a multi-shape campaign must pin the cell's own.
                coordinates += (
                    f" --threads {params['num_threads']}"
                    f" --ops {params['ops_per_thread']}"
                    f" --vars {params['num_vars']}"
                    f" --fence {params['fence_permille']}")
            print(f"  {cell.protocol} x {cell.workload}: "
                  f"{len(cell.violations)} forbidden outcome(s), "
                  f"e.g. {outcome}", file=sys.stderr)
            print(f"    replay: repro fuzz replay {spec.name} {coordinates}",
                  file=sys.stderr)
            print(f"    shrink: repro fuzz shrink {spec.name} {coordinates}",
                  file=sys.stderr)
        return 1
    if result.complete:
        print(f"CONFORMANT: all {spec.num_cells} cells within the "
              f"x86-TSO outcome sets")
    return 0


def _cell(args: argparse.Namespace):
    """Resolve ``replay``/``shrink`` input: the campaign and the cell's
    shape point, from the optional --threads/--ops/--vars/--fence overrides
    (default: the campaign's first shape point)."""
    spec = _spec(args)
    values = (args.threads, args.ops, args.vars, args.fence)
    with _resolving():
        _check_names(protocols=[args.protocol])
        shape = tuple(value if value is not None else fallback
                      for value, fallback in zip(values, spec.shapes()[0]))
        return spec, cell_shape(spec, shape)


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    spec, shape = _cell(args)
    test, result = replay_cell(spec, args.protocol, args.seed, shape=shape)
    print(format_test(test))
    print()
    rows = [{"outcome": dict(outcome), "count": count,
             "verdict": "FORBIDDEN" if outcome in result.violations
             else "allowed"}
            for outcome, count in sorted(result.observed.items())]
    print(format_table(rows, title=result.summary()))
    return 0 if result.passed else 1


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    spec, shape = _cell(args)
    outcome = shrink_cell(spec, args.protocol, args.seed, shape=shape)
    if outcome is None:
        print(f"cell (seed {args.seed}, {args.protocol}) passes on replay; "
              f"nothing to shrink")
        return 0
    original, shrunk, shrunk_result = outcome
    original_ops = sum(len(t.ops) for t in original.threads)
    shrunk_ops = sum(len(t.ops) for t in shrunk.threads)
    print(f"shrunk {original_ops} ops / {len(original.threads)} threads "
          f"-> {shrunk_ops} ops / {len(shrunk.threads)} threads\n")
    print(format_test(shrunk))
    print()
    for violation in sorted(shrunk_result.violations):
        print(f"  forbidden outcome still reproduced: {dict(violation)}")
    return 1


# ------------------------------------------------------------------ cache

_BYTE_SUFFIXES = {"": 1, "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
_AGE_SUFFIXES = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def _parse_scaled(value: str, suffixes, what: str) -> float:
    value = value.strip().lower().rstrip("b" if what == "size" else "")
    suffix = value[-1:] if value[-1:] in suffixes and value[-1:] != "" else ""
    number = value[:-1] if suffix else value
    malformed = ValueError(
        f"malformed {what} {value!r}; examples: 1048576, 64M, 2G"
        if what == "size" else
        f"malformed {what} {value!r}; examples: 3600, 90m, 12h, 7d"
    )
    try:
        result = float(number) * suffixes[suffix]
    except (ValueError, KeyError):
        raise malformed from None
    if result <= 0:
        # A zero or negative budget/age would flow into the LRU policy as
        # an evict-everything bound; reject it like any malformed value.
        raise malformed
    return result


def parse_bytes(value: str) -> int:
    """Parse a byte budget: plain bytes or a K/M/G suffix (``64M``)."""
    return int(_parse_scaled(value, _BYTE_SUFFIXES, "size"))


def parse_age(value: str) -> float:
    """Parse an age: seconds or an s/m/h/d/w suffix (``12h``, ``7d``)."""
    return _parse_scaled(value, _AGE_SUFFIXES, "age")


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    by_kind = {}
    for entry in scan_entries(_existing_dir(args.cache_dir, "--cache-dir")):
        by_kind.setdefault(entry.kind, []).append(entry)
    now = time.time()
    rows = [{
        "kind": kind,
        "entries": len(entries),
        "bytes": sum(entry.size for entry in entries),
        "oldest_hit_age_s": int(now - min(e.last_hit for e in entries)),
        "newest_hit_age_s": int(now - max(e.last_hit for e in entries)),
    } for kind, entries in sorted(by_kind.items())]
    rows.append({
        "kind": "TOTAL",
        "entries": sum(row["entries"] for row in rows),
        "bytes": sum(row["bytes"] for row in rows),
        "oldest_hit_age_s": "", "newest_hit_age_s": "",
    })
    print(format_table(rows, title=f"Result cache at {args.cache_dir}"))
    return 0


def _cmd_cache_ls(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise UsageError(f"--limit must be >= 0, got {args.limit}")
    root = _existing_dir(args.cache_dir, "--cache-dir")
    kind = _kind(args.kind)
    entries = [entry for entry in scan_entries(root)
               if kind is None or entry.kind == kind]
    sort_field = args.sort.replace("-", "_")  # a CacheEntry attribute
    ordered = sorted(entries, key=lambda entry: getattr(entry, sort_field),
                     reverse=True)[:args.limit]
    now = time.time()
    rows = [{
        "key": entry.key[:12],
        "kind": entry.kind,
        "size": entry.size,
        "hit_age_s": int(now - entry.last_hit),
        "workload": entry.workload,
        "protocol": entry.protocol,
    } for entry in ordered]
    print(format_table(rows, title=f"{len(entries)} entr"
                                   f"{'y' if len(entries) == 1 else 'ies'}"))
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    root = _existing_dir(args.cache_dir, "--cache-dir")
    kinds = [_kind(name) for name in args.kind or []]
    with _resolving():
        max_bytes = parse_bytes(args.max_bytes) if args.max_bytes else None
        max_age = parse_age(args.max_age) if args.max_age else None
    if max_bytes is None and max_age is None and not args.dry_run:
        raise UsageError("cache gc needs --max-bytes and/or --max-age "
                         "(or --dry-run to preview orphan-tmp cleanup)")
    report = collect_garbage(root, max_bytes=max_bytes, max_age=max_age,
                             kinds=kinds or None, dry_run=args.dry_run)
    print(report.describe())
    for error in report.errors:
        print(f"  error: {error}", file=sys.stderr)
    return 1 if report.errors else 0


# ------------------------------------------------------------------ trace

def _trace_directory(args: argparse.Namespace) -> Path:
    if args.trace_dir:
        return Path(args.trace_dir)
    return default_trace_dir()


def _trace_name(args: argparse.Namespace) -> str:
    return args.trace if is_trace_name(args.trace) else f"trace:{args.trace}"


def _stats_blob(result) -> str:
    """Canonical JSON of a run's statistics, for byte-identity checks."""
    return json.dumps(result.stats.to_dict(), sort_keys=True)


def _replay_result(workload, protocol: str, max_cycles: int,
                   workload_name: Optional[str] = None):
    """Run a replay workload directly (no cache) and return the result."""
    from repro.sim.system import build_system

    config = SystemConfig().scaled(num_cores=workload.num_cores)
    system = build_system(config, protocol)
    name = workload.name if workload_name is None else workload_name
    return system.run(workload.programs, params=workload.params,
                      max_cycles=max_cycles, workload_name=name)


def _cmd_trace_capture(args: argparse.Namespace) -> int:
    with _resolving():
        _check_names(protocols=[args.protocol])
        workload = make_workload(args.workload, num_cores=args.cores,
                                 scale=args.scale)
    trace, result = capture_trace(
        workload, args.protocol, max_cycles=args.max_cycles,
        scale=args.scale, description=args.description)
    if not result.finished:
        print(f"FAIL: {workload.name} did not finish within "
              f"{args.max_cycles} cycles; the trace would be truncated",
              file=sys.stderr)
        return 1
    if not workload.validate(result):
        print(f"FAIL: {workload.name} failed functional validation under "
              f"{args.protocol}; not saving a trace of a broken run",
              file=sys.stderr)
        return 1
    stem = args.output or "".join(
        ch if (ch.isalnum() or ch in "-_.") else "-" for ch in args.workload)
    directory = _trace_directory(args)
    path = directory / f"{stem}.trace"
    digest = trace.save(path)
    print(f"captured {trace.num_ops} ops on {trace.num_cores} cores from "
          f"{workload.name!r} under {args.protocol}")
    print(f"saved {path} (trace:{stem}@{digest})")
    if args.no_verify:
        return 0
    # Replay the file we just wrote on an identical platform and insist on
    # byte-identical statistics; a trace that cannot reproduce its own
    # capture run is worthless as a workload.
    replay = trace_workload(f"trace:{stem}", directory=directory)
    replay_run = _replay_result(replay, args.protocol, args.max_cycles,
                                workload_name=workload.name)
    if _stats_blob(replay_run) != _stats_blob(result):
        print("FAIL: replay of the saved trace does not reproduce the "
              "capture run's statistics", file=sys.stderr)
        return 1
    print("verified: replay reproduces the capture run byte-identically")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    protocols = args.protocol or ["MESI", "TSO-CC-4-12-3"]
    with _resolving():
        workload = trace_workload(_trace_name(args),
                                  directory=_trace_directory(args))
        _check_names(protocols=protocols)
    rows = []
    for protocol in protocols:
        result = _replay_result(workload, protocol, args.max_cycles)
        summary = result.stats.summary()
        rows.append({
            "protocol": protocol,
            "finished": result.finished,
            "cycles": int(summary["cycles"]),
            "flits": int(summary["flits"]),
            "l1_miss_rate": summary["l1_miss_rate"],
            "self_inval": int(summary["self_invalidations"]),
        })
    print(format_table(rows, title=f"{workload.name} "
                                   f"({workload.num_cores} cores)"))
    return 0


def _cmd_trace_ls(args: argparse.Namespace) -> int:
    directory = _trace_directory(args)
    entries = list_traces(directory)
    if not entries:
        print(f"no traces in {directory}")
        return 0
    rows = []
    for stem, path in entries:
        data = path.read_bytes()
        try:
            trace = Trace.from_bytes(data, where=path.name)
        except ValueError as exc:
            rows.append({"trace": stem, "digest": "?", "cores": "?",
                         "ops": "?", "source": f"unreadable: {exc}"})
            continue
        rows.append({
            "trace": stem,
            "digest": trace_digest(data),
            "cores": trace.num_cores,
            "ops": trace.num_ops,
            "source": trace.source,
        })
    print(format_table(rows, title=f"Traces in {directory}"))
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    name = _trace_name(args)
    directory = _trace_directory(args)
    with _resolving():
        canonical = canonical_trace_name(name, directory=directory)
        workload = trace_workload(name, directory=directory)
    path = trace_path(name, directory)
    trace = Trace.load(path)
    print(f"trace:     {canonical}")
    print(f"path:      {path} ({path.stat().st_size} bytes)")
    print(f"source:    {trace.source}")
    print(f"protocol:  {trace.protocol} (capture run; replays under any)")
    print(f"scale:     {trace.scale}")
    if trace.description:
        print(f"about:     {trace.description}")
    print(f"cores:     {trace.num_cores}")
    print(f"ops:       {trace.num_ops} "
          f"({', '.join(str(len(s)) for s in trace.streams)} per core)")
    kinds = {}
    for stream in trace.streams:
        for op in stream:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
    print("mix:       " + ", ".join(f"{kind}={count}"
                                    for kind, count in sorted(kinds.items())))
    print(f"replay as: repro run {workload.name.split('@')[0]} ...")
    return 0


def _cmd_suites(args: argparse.Namespace) -> int:
    if args.name:
        name = args.name[len("suite:"):] if args.name.startswith("suite:") \
            else args.name
        with _resolving():
            registered = get_suite(name)
        rows = []
        for member in registered.workloads:
            try:
                canonical = canonical_workload_name(member)
            except (KeyError, ValueError, FileNotFoundError) as exc:
                canonical = f"UNRESOLVABLE: {_message(exc)}"
            rows.append({"workload": member, "canonical": canonical})
        print(format_table(
            rows,
            title=f"suite:{registered.name} v{registered.version} — "
                  f"{registered.description}"))
        return 0
    rows = [{
        "suite": f"suite:{registered.name}",
        "version": registered.version,
        "workloads": len(registered.workloads),
        "description": registered.description,
    } for registered in list_workload_suites()]
    print(format_table(rows, title="Registered workload suites"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation).
    Every leaf command sets ``func``, the handler :func:`main` calls."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSO-CC reproduction: run workloads, figures and litmus tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name: str, func, **kwargs) -> argparse.ArgumentParser:
        command = group.add_parser(name, **kwargs)
        command.set_defaults(func=func)
        return command

    def add_cache_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                             help="result cache directory (default: benchmarks/results/cache)")

    def add_executor_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--jobs", type=int, default=None,
                             help="worker processes (default: REPRO_JOBS or CPU count)")
        command.add_argument("--no-cache", action="store_true",
                             help="ignore and do not update the on-disk result cache")
        add_cache_dir(command)

    def add_shard_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--shard-index", type=int, default=None,
                             help="run only this shard of the cell list "
                                  "(default: REPRO_SHARD=<index>/<count>)")
        command.add_argument("--shard-count", type=int, default=None,
                             help="total number of disjoint shards")

    def add_axis_overrides(command: argparse.ArgumentParser,
                           registry=SWEEPS) -> None:
        command.set_defaults(registry=registry)
        command.add_argument("--protocols", help="override: comma-separated variant names")
        command.add_argument("--workloads", help="override: comma-separated workload subset")
        command.add_argument("--cores", help="override: comma-separated core counts")
        command.add_argument("--scales", help="override: comma-separated scale factors")

    def add_merge_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--from", dest="sources", action="append",
                             required=True, metavar="DIR",
                             help="shard result directory (repeatable)")
        add_cache_dir(command)

    leaf(sub, "list", _cmd_list,
         help="list protocol configurations and workloads")

    protocols = leaf(
        sub, "protocols", _cmd_protocols,
        help="list registered protocol plugins with metadata and storage bits")
    protocols.add_argument("--cores", type=int, default=32,
                           help="core count for the storage-overhead column")

    run = leaf(
        sub, "run", _cmd_run,
        help="run one workload (benchmark, generator or trace) under one "
             "or more protocols")
    run.add_argument("workload", metavar="WORKLOAD",
                     help="benchmark name (see 'repro list'), generator "
                          "name (zipf:…, pipeline:…, lockstorm:…) or saved "
                          "trace (trace:<stem>[@digest])")
    run.add_argument("--protocol", action="append",
                     help="protocol configuration (repeatable)")
    run.add_argument("--cores", type=int, default=8)
    run.add_argument("--scale", type=float, default=0.35)
    run.add_argument("--max-cycles", type=int, default=200_000_000)
    add_executor_flags(run)
    add_shard_flags(run)

    figure = leaf(sub, "figure", _cmd_figure,
                  help="regenerate one figure of the paper")
    figure.add_argument("number", help="figure number (2-9)")
    figure.add_argument("--workloads", help="comma-separated workload subset")
    figure.add_argument("--protocols", help="comma-separated protocol subset")
    figure.add_argument("--cores", type=int, default=8)
    figure.add_argument("--scale", type=float, default=0.35)
    figure.add_argument("--save", action="store_true",
                        help="also write the table to the results directory")
    figure.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                        help="directory for --save (default: benchmarks/results)")
    add_executor_flags(figure)

    sweep = leaf(
        sub, "sweep", _cmd_sweep,
        help="list, inspect and run declarative sensitivity sweeps")
    sweep.add_argument("name", nargs="?", default="timestamp-bits",
                       help="registered sweep name (default: timestamp-bits; "
                            "see --list)")
    sweep.add_argument("--list", action="store_true",
                       help="list registered sweeps and exit")
    sweep.add_argument("--cells", action="store_true",
                       help="print the sweep's cell expansion without running")
    sweep.add_argument("--per-cell", action="store_true",
                       help="tabulate per (variant, workload) cell instead of "
                            "summing over the workload mix")
    sweep.add_argument("--figure", action="store_true",
                       help="also print figure-style per-workload series "
                            "tables (one column per variant)")
    sweep.add_argument("--baseline", default=None, metavar="PROTOCOL",
                       help="also print the mix table normalized against "
                            "this variant (default: the sweep's declared "
                            "baseline when --figure is given)")
    add_axis_overrides(sweep)
    sweep.add_argument("--save", action="store_true",
                       help="also write the table to the results directory")
    sweep.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                       help="directory for --save (default: benchmarks/results)")
    add_executor_flags(sweep)
    add_shard_flags(sweep)

    shard = sub.add_parser(
        "shard",
        help="plan, run and merge sharded executions of a registered sweep")
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    def add_sweep_name(command: argparse.ArgumentParser) -> None:
        command.add_argument("name", nargs="?", default="timestamp-bits",
                             help="registered sweep name (default: "
                                  "timestamp-bits; see 'repro sweep --list')")

    shard_plan = leaf(
        shard_sub, "plan", _cmd_shard_plan,
        help="print the assignment of a sweep's cells to N disjoint shards")
    add_sweep_name(shard_plan)
    shard_plan.add_argument("--shard-count", type=int, default=None,
                            help="number of disjoint shards (default: the "
                                 "count of REPRO_SHARD=<index>/<count>)")
    add_axis_overrides(shard_plan)

    shard_run = leaf(
        shard_sub, "run", _cmd_shard_run,
        help="run one shard of a sweep (no coordinator needed)")
    add_sweep_name(shard_run)
    add_shard_flags(shard_run)
    add_axis_overrides(shard_run)
    add_executor_flags(shard_run)

    shard_merge = leaf(
        shard_sub, "merge", _cmd_merge,
        help="merge shard result directories into one result cache")
    shard_merge.add_argument("name", nargs="?", default=None,
                             help="sweep to verify completeness against "
                                  "after merging (exit 1 if cells missing)")
    add_merge_flags(shard_merge)
    add_axis_overrides(shard_merge)

    report = sub.add_parser(
        "report",
        help="aggregate, normalize, render and diff cached results "
             "without simulating anything")
    report_sub = report.add_subparsers(dest="report_command", required=True)

    def add_format(command: argparse.ArgumentParser) -> None:
        command.add_argument("--format", choices=["terminal", "csv", "json"],
                             default="terminal",
                             help="table output format (default: terminal)")

    report_sweep = leaf(
        report_sub, "sweep", _cmd_report_sweep,
        help="aggregate a sweep's (or fuzz campaign's) cached cells into "
             "mix tables with speedup-vs-baseline columns and geomean rows")
    report_sweep.add_argument("name", nargs="?", default="ci-smoke",
                              help="registered sweep or campaign name "
                                   "(default: ci-smoke)")
    add_axis_overrides(report_sweep, registry=None)
    add_cache_dir(report_sweep)
    report_sweep.add_argument("--baseline", default=None, metavar="PROTOCOL",
                              help="variant normalized columns divide "
                                   "against (default: the spec's declared "
                                   "baseline)")
    report_sweep.add_argument("--no-normalize", action="store_true",
                              help="omit speedup columns and geomean rows")
    report_sweep.add_argument("--per-cell", action="store_true",
                              help="one row per cached cell instead of "
                                   "aggregating over the workload mix")
    report_sweep.add_argument("--figure", action="store_true",
                              help="append figure-style per-workload series "
                                   "tables")
    add_format(report_sweep)
    report_sweep.add_argument("--html", default=None, metavar="PATH",
                              help="also write a self-contained HTML "
                                   "dashboard for this spec to PATH")
    report_sweep.add_argument("--out", default=None, metavar="PATH",
                              help="write the table to PATH instead of "
                                   "stdout")

    report_cache = leaf(
        report_sub, "cache", _cmd_report_cache,
        help="tabulate every cached cell matching a filter, one table per "
             "cell kind (declared report fields as columns)")
    add_cache_dir(report_cache)
    report_cache.add_argument("--kind", default=None,
                              help="only cells of this cell kind")
    report_cache.add_argument("--protocol", default=None,
                              help="only cells of this protocol "
                                   "configuration")
    report_cache.add_argument("--workload", default=None,
                              help="only cells of this workload")
    add_format(report_cache)

    report_dash = leaf(
        report_sub, "dash", _cmd_report_dash,
        help="render a static self-contained HTML dashboard over the cache "
             "(one section per sweep)")
    add_cache_dir(report_dash)
    report_dash.add_argument("--out", "-o", required=True, metavar="PATH",
                             help="output HTML file")
    report_dash.add_argument("--sweeps", default=None,
                             help="comma-separated sweep/campaign names "
                                  "(default: every registered sweep with "
                                  "cached cells)")
    report_dash.add_argument("--title", default="repro report dashboard",
                             help="dashboard page title")

    report_diff = leaf(
        report_sub, "diff", _cmd_report_diff,
        help="compare two cache snapshots cell-by-cell and classify "
             "added/removed/changed/invalid entries")
    report_diff.add_argument("snapshot_a", metavar="A",
                             help="reference cache tree")
    report_diff.add_argument("snapshot_b", metavar="B",
                             help="candidate cache tree (keys only in B "
                                  "count as added)")
    report_diff.add_argument("--kind", default=None,
                             help="restrict the comparison to one cell kind")
    report_diff.add_argument("--fail-on", action="append", default=None,
                             choices=list(_DIFF_FAIL_CLASSES),
                             metavar="CLASS",
                             help="exit 1 if this drift class is non-empty "
                                  f"(repeatable; one of: "
                                  f"{', '.join(_DIFF_FAIL_CLASSES)})")
    report_diff.add_argument("--json", action="store_true",
                             help="emit the full diff as JSON instead of "
                                  "the text summary")

    storage = leaf(sub, "storage", _cmd_storage,
                   help="print the Figure 2 storage model")
    storage.add_argument("--cores", help="comma-separated core counts")

    litmus = leaf(sub, "litmus", _cmd_litmus,
                  help="run litmus tests against x86-TSO")
    litmus.add_argument("--protocol", default="TSO-CC-4-12-3")
    litmus.add_argument("--iterations", type=int, default=10)
    litmus.add_argument("--tests", help="comma-separated litmus test names")
    litmus.add_argument("--random", type=int, default=0, metavar="N",
                        help="also run N diy-style generated tests")
    litmus.add_argument("--seed", type=int, default=0,
                        help="first generator seed for --random (default 0)")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing: seeded litmus campaigns "
             "as cached, shardable matrix cells")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    def add_campaign_overrides(command: argparse.ArgumentParser) -> None:
        command.set_defaults(registry=CAMPAIGNS)
        command.add_argument("name", nargs="?", default="fuzz-smoke",
                             help="registered campaign name (default: "
                                  "fuzz-smoke; see 'repro fuzz list')")
        command.add_argument("--protocols",
                             help="override: comma-separated protocol names")
        command.add_argument("--seeds", type=int, default=None,
                             help="override: number of seeds per shape point")
        command.add_argument("--seed-start", type=int, default=None,
                             help="override: first seed of the range")

    leaf(fuzz_sub, "list", _cmd_fuzz_list, help="list registered campaigns")

    fuzz_cells = leaf(
        fuzz_sub, "cells", _cmd_fuzz_cells,
        help="print a campaign's cell expansion without running")
    add_campaign_overrides(fuzz_cells)

    fuzz_run = leaf(
        fuzz_sub, "run", _cmd_fuzz_run,
        help="run a campaign through the cached, shardable matrix "
             "(exit 1 on any forbidden outcome)")
    add_campaign_overrides(fuzz_run)
    add_executor_flags(fuzz_run)
    add_shard_flags(fuzz_run)

    def add_cell_coordinates(command: argparse.ArgumentParser) -> None:
        add_campaign_overrides(command)
        command.add_argument("--seed", type=int, required=True,
                             help="generator seed of the cell")
        command.add_argument("--protocol", default="TSO-CC-4-12-3",
                             help="protocol configuration name")
        command.add_argument("--threads", type=int, default=None,
                             help="generator thread count (default: the "
                                  "campaign's first shape point)")
        command.add_argument("--ops", type=int, default=None,
                             help="generator ops per thread")
        command.add_argument("--vars", type=int, default=None,
                             help="generator shared-variable count")
        command.add_argument("--fence", type=int, default=None,
                             help="generator fence probability (permille)")

    add_cell_coordinates(leaf(
        fuzz_sub, "replay", _cmd_fuzz_replay,
        help="re-run one campaign cell outside the cache and print every "
             "observed outcome"))
    add_cell_coordinates(leaf(
        fuzz_sub, "shrink", _cmd_fuzz_shrink,
        help="minimize a violating cell's test by op/thread deletion "
             "while the violation reproduces"))

    fuzz_merge = leaf(
        fuzz_sub, "merge", _cmd_merge,
        help="merge shard result directories and verify campaign coverage")
    add_campaign_overrides(fuzz_merge)
    add_merge_flags(fuzz_merge)

    cache = sub.add_parser(
        "cache",
        help="inspect and garbage-collect the result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    add_cache_dir(leaf(
        cache_sub, "stats", _cmd_cache_stats,
        help="per-kind entry/byte totals from a scan of the entry tree"))

    cache_ls = leaf(
        cache_sub, "ls", _cmd_cache_ls,
        help="list entries with kind, size and last-hit age")
    add_cache_dir(cache_ls)
    cache_ls.add_argument("--kind", default=None,
                          help="only entries of this cell kind")
    cache_ls.add_argument("--sort", choices=["last-hit", "created", "size"],
                          default="last-hit",
                          help="sort order, descending (default: last-hit)")
    cache_ls.add_argument("--limit", type=int, default=None,
                          help="show at most N entries")

    cache_gc = leaf(
        cache_sub, "gc", _cmd_cache_gc,
        help="evict entries LRU by last hit (--max-bytes/--max-age/--kind) "
             "and reap orphaned tmp files")
    add_cache_dir(cache_gc)
    cache_gc.add_argument("--max-bytes", default=None, metavar="SIZE",
                          help="shrink the cache to at most SIZE "
                               "(plain bytes or 64M/2G)")
    cache_gc.add_argument("--max-age", default=None, metavar="AGE",
                          help="drop entries not hit within AGE "
                               "(seconds or 90m/12h/7d)")
    cache_gc.add_argument("--kind", action="append", default=None,
                          help="restrict eviction to this cell kind "
                               "(repeatable)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed without "
                               "touching the tree")

    trace = sub.add_parser(
        "trace",
        help="capture, replay and inspect instruction-stream traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def add_trace_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument("--trace-dir", default=None,
                             help="trace directory (default: REPRO_TRACE_DIR "
                                  "or benchmarks/traces)")

    trace_capture = leaf(
        trace_sub, "capture", _cmd_trace_capture,
        help="run a workload with the instruction-stream observer and save "
             "the trace (verified by replay unless --no-verify)")
    trace_capture.add_argument("workload", metavar="WORKLOAD",
                               help="benchmark or generator name to capture")
    trace_capture.add_argument("--protocol", default="MESI",
                               help="protocol configuration of the capture "
                                    "run (default: MESI)")
    trace_capture.add_argument("--cores", type=int, default=8)
    trace_capture.add_argument("--scale", type=float, default=0.35)
    trace_capture.add_argument("--max-cycles", type=int, default=200_000_000)
    trace_capture.add_argument("-o", "--output", default=None, metavar="STEM",
                               help="file stem (default: derived from the "
                                    "workload name)")
    trace_capture.add_argument("--description", default="",
                               help="free-form note stored in the header")
    trace_capture.add_argument("--no-verify", action="store_true",
                               help="skip the replay verification pass")
    add_trace_dir(trace_capture)

    trace_replay = leaf(
        trace_sub, "replay", _cmd_trace_replay,
        help="replay a saved trace directly (no cache) under one or more "
             "protocols")
    trace_replay.add_argument("trace", metavar="TRACE",
                              help="trace stem or trace:<stem>[@digest]")
    trace_replay.add_argument("--protocol", action="append",
                              help="protocol configuration (repeatable; "
                                   "default: MESI and TSO-CC-4-12-3)")
    trace_replay.add_argument("--max-cycles", type=int, default=200_000_000)
    add_trace_dir(trace_replay)

    add_trace_dir(leaf(trace_sub, "ls", _cmd_trace_ls,
                       help="list saved traces"))

    trace_info = leaf(
        trace_sub, "info", _cmd_trace_info,
        help="show one trace's header, op mix and canonical name")
    trace_info.add_argument("trace", metavar="TRACE",
                            help="trace stem or trace:<stem>[@digest]")
    add_trace_dir(trace_info)

    suites = leaf(
        sub, "suites", _cmd_suites,
        help="list registered workload suites, or show one suite's members")
    suites.add_argument("name", nargs="?", default=None,
                        help="suite name (with or without the suite: prefix)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error policy: input that does not resolve (a :class:`UsageError`)
    exits 2 with its one-line message, a workload that fails functional
    validation prints ``FAIL: …`` and exits 1, and any other exception
    propagates with its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        if "jobs" in args:
            # Reject a non-positive --jobs / REPRO_JOBS before any work starts.
            with _resolving():
                resolve_jobs(args.jobs)
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except WorkloadValidationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
