"""Parallel execution of the (workload x protocol) experiment matrix.

The paper's evaluation is a full workload x protocol-configuration matrix
whose cells are completely independent simulations, i.e. embarrassingly
parallel.  This module provides the execution subsystem underneath
:class:`~repro.analysis.experiments.ExperimentRunner`:

* :func:`simulate_cell` — runs ONE (workload, protocol) cell from picklable
  inputs (a :class:`~repro.sim.config.SystemConfig` plus names/scalars) and
  returns the JSON-serializable ``SystemStats.to_dict()`` payload.  This is
  the function shipped to worker processes.
* :class:`MatrixExecutor` — serves cells from the cache, keeps only its
  shard's misses when sharded (:mod:`repro.analysis.shard`), and runs them
  inline or one cell per submission on a process pool, then reassembles
  :class:`~repro.sim.stats.SystemStats` objects on the parent side.
  Worker count comes from ``jobs``, the ``REPRO_JOBS`` environment
  variable, or ``os.cpu_count()``.
* :func:`run_spec` — checks a whole cell-matrix spec (a sweep or a fuzz
  campaign) against the protocol registry and runs it through one
  executor per platform.
* :class:`ResultCache` — a content-addressed on-disk cache (default location
  ``benchmarks/results/cache/``).  The key is the SHA-256 of the canonical
  JSON of (system configuration, protocol name, workload name, scale,
  max_cycles, cache schema version, stats schema version), so any change to
  the experiment inputs — or a schema bump — produces a different key and the
  cell is re-simulated.

Because every workload builder and the simulator itself are deterministically
seeded, a cell's statistics are a pure function of the cache-key inputs:
serial and parallel runs produce byte-identical payloads, and cached results
are safe to reuse across processes and sessions.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.analysis.shard import resolve_shard, shard_of_key
from repro.registry import Registry
from repro.sim.config import SystemConfig
from repro.sim.stats import STATS_SCHEMA_VERSION, SystemStats

#: Version of the cache-key/entry layout.  Bump to invalidate every cached
#: result (e.g. after a change to simulator behaviour that is not reflected
#: in the statistics schema).
CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReportField:
    """One *declared* reportable quantity of a cell kind.

    The reporting layer (:mod:`repro.analysis.report`) is driven entirely
    by metadata: a kind declares which quantities its decoded results
    expose, how each aggregates over a workload mix, which direction is
    better (the sign convention for speedup-vs-baseline normalization) and
    how to render it.  Stats cells and fuzz verdicts flow through one
    pipeline because both merely declare fields.

    Attributes:
        name: column name in report tables (for the ``"stats"`` kind these
            are exactly the :data:`repro.analysis.sweeps.METRICS` names, so
            ``SweepSpec.metrics`` selects declared fields).
        extract: decoded result object -> value (e.g. a
            :class:`~repro.sim.stats.SystemStats` metric or a
            :class:`~repro.consistency.fuzz.FuzzCellResult` attribute).
        dtype: ``"int"`` / ``"float"`` / ``"bool"`` / ``"str"`` — rendering
            hint only.
        aggregate: how the field folds over a workload mix: ``"sum"``,
            ``"mean"``, ``"all"`` (boolean conjunction) or ``"none"``
            (per-cell only, never aggregated).
        better: ``"lower"`` / ``"higher"`` / ``None``.  Directed numeric
            fields get a ``<name>_speedup`` column vs the baseline variant
            (``baseline/value`` for lower-is-better, ``value/baseline``
            otherwise); ``None`` means purely diagnostic.
        format: ``str.format`` spec for rendering float values.
    """

    name: str
    extract: Callable[[object], object]
    dtype: str = "float"
    aggregate: str = "sum"
    better: Optional[str] = None
    format: str = "{:.3f}"

    def __post_init__(self) -> None:
        if self.dtype not in ("int", "float", "bool", "str"):
            raise ValueError(f"field {self.name!r}: unknown dtype {self.dtype!r}")
        if self.aggregate not in ("sum", "mean", "all", "none"):
            raise ValueError(
                f"field {self.name!r}: unknown aggregate {self.aggregate!r}")
        if self.better not in (None, "lower", "higher"):
            raise ValueError(
                f"field {self.name!r}: unknown direction {self.better!r}")

    @property
    def directed(self) -> bool:
        """Whether the field supports speedup normalization vs a baseline
        (a numeric, mix-aggregable quantity with a declared direction)."""
        return (self.better is not None and self.dtype in ("int", "float")
                and self.aggregate in ("sum", "mean"))


#: Declared report fields per cell-kind name.  Kept beside — not inside —
#: the frozen :class:`CellKind` records so the kinds that register here
#: (``"stats"``) can declare fields from the modules that own their metric
#: functions (:mod:`repro.analysis.sweeps`) without an import cycle.
_REPORT_FIELDS: Dict[str, Tuple["ReportField", ...]] = {}


def declare_report_fields(kind_name: str,
                          fields: Sequence[ReportField]) -> Tuple[ReportField, ...]:
    """Declare the reportable fields of a cell kind (idempotent per kind:
    re-declaring replaces, so test kinds can refine theirs).

    Raises:
        ValueError: on duplicate field names within one declaration.
    """
    names = [f.name for f in fields]
    if len(names) != len(set(names)):
        raise ValueError(
            f"kind {kind_name!r} declares duplicate report fields: {names}")
    declared = tuple(fields)
    _REPORT_FIELDS[kind_name] = declared
    return declared


def report_fields(kind: Union[str, "CellKind"]) -> Tuple[ReportField, ...]:
    """The declared report fields of a cell kind (empty when the kind never
    declared any).  Loads the bundled kind modules first, since the stats
    and fuzz declarations live with their metric functions."""
    name = kind.name if isinstance(kind, CellKind) else kind
    if name not in _REPORT_FIELDS:
        try:
            from repro.analysis import sweeps  # noqa: F401  (declares "stats")
            _load_bundled_kinds()              # declares "fuzz"
        except ImportError:  # pragma: no cover - defensive
            pass
    return _REPORT_FIELDS.get(name, ())


@dataclass(frozen=True)
class CellKind:
    """What one matrix cell *computes* — the work function and its payload
    contract.

    The executor/shard/cache machinery is agnostic to what a cell
    produces: a kind bundles the picklable module-level ``simulate``
    function shipped to workers, the ``decode`` that reconstructs a result
    object from a cached JSON payload, and the payload ``schema`` version
    that validates cache entries (and keys non-default kinds).  The
    bundled kinds are ``"stats"`` (paper figure/sweep cells producing
    :class:`~repro.sim.stats.SystemStats`) and ``"fuzz"``
    (:mod:`repro.consistency.fuzz` conformance cells).

    Attributes:
        name: registry key; ``MatrixExecutor(kind=...)`` / spec
            ``cell_kind`` attributes name it.
        simulate: ``(config, protocol, workload_name, scale, max_cycles) ->
            JSON payload`` — must be a module-level function so process
            pools can pickle it by reference.
        decode: payload dict -> result object handed back by
            ``run_cells``.
        schema: payload schema version; a cached entry whose ``"schema"``
            differs is stale.
    """

    name: str
    simulate: Callable[..., Dict[str, object]]
    decode: Callable[[Dict[str, object]], object]
    schema: int

    @property
    def report_fields(self) -> Tuple[ReportField, ...]:
        """The kind's declared reportable fields
        (:func:`declare_report_fields`); the reporting layer aggregates,
        normalizes and renders cells purely from this metadata."""
        return report_fields(self.name)


#: Registered cell kinds by name.
CELL_KINDS: Registry[CellKind] = Registry("cell kind")
register_cell_kind = CELL_KINDS.register


def _load_bundled_kinds() -> None:
    """Import the modules that register the bundled non-default kinds (the
    ``"fuzz"`` kind lives with its subsystem in
    :mod:`repro.consistency.fuzz`).  Called lazily on an unknown-kind
    lookup so merely importing this module never drags the consistency
    stack in."""
    import repro.consistency.fuzz  # noqa: F401  (registers on import)


def get_cell_kind(kind: Union[str, CellKind]) -> CellKind:
    """Resolve a cell kind given by name or instance.

    Raises:
        KeyError: for an unknown kind name.
    """
    if isinstance(kind, CellKind):
        return kind
    if kind not in CELL_KINDS:
        _load_bundled_kinds()
    return CELL_KINDS[kind]

def _default_results_root() -> Path:
    """``benchmarks/`` of the repo checkout when running from one, else the
    current working directory (e.g. when the package is pip-installed and
    ``__file__`` points into site-packages)."""
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


#: Default on-disk cache location: ``benchmarks/results/cache/``.
DEFAULT_CACHE_DIR = _default_results_root() / "cache"


class WorkloadValidationError(AssertionError):
    """A workload produced functionally invalid results under a protocol —
    a protocol correctness bug, not a performance artefact."""


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit ``jobs``, else ``REPRO_JOBS``,
    else ``os.cpu_count()``.

    Raises:
        ValueError: if ``jobs`` or ``REPRO_JOBS`` is not a positive
            integer (the message names which one).
    """
    source = "--jobs"
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return os.cpu_count() or 1
        source = "REPRO_JOBS"
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ValueError(f"{source} must be >= 1, got {jobs}")
    return int(jobs)


def cell_key(config: SystemConfig, protocol: str, workload_name: str,
             scale: float, max_cycles: int,
             kind: Union[str, CellKind] = "stats") -> str:
    """Content-addressed key of one cell: the SHA-256 of the canonical JSON
    of every input that determines its result.

    The key is host-independent — a pure function of the experiment inputs
    and the schema versions — which is what makes both the on-disk cache
    shareable across machines and the shard planner
    (:mod:`repro.analysis.shard`) coordinator-free.  Non-default
    cell kinds mix their name and payload schema into the key (the default
    ``"stats"`` kind leaves the key payload exactly as it has always been,
    so every pre-existing cache entry and shard assignment stays valid).
    """
    kind = get_cell_kind(kind)
    payload = {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "stats_schema": STATS_SCHEMA_VERSION,
        "config": asdict(config),
        "protocol": protocol,
        "workload": workload_name,
        "scale": scale,
        "max_cycles": max_cycles,
    }
    if kind.name != "stats":
        payload["kind"] = kind.name
        payload["kind_schema"] = kind.schema
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def simulate_cell(config: SystemConfig, protocol: str, workload_name: str,
                  scale: float, max_cycles: int) -> Dict[str, object]:
    """Run one (workload, protocol) cell and return its stats payload.

    Everything needed to run the cell is reconstructed from picklable inputs,
    so this function can execute inside a worker process.  The workload's
    functional results are validated before the statistics are returned.

    Raises:
        WorkloadValidationError: if the workload's functional validation
            fails (protocol correctness bug).
    """
    from repro.sim.system import build_system
    from repro.workloads.catalog import make_workload

    workload = make_workload(workload_name, num_cores=config.num_cores,
                             scale=scale)
    system = build_system(config, protocol)
    result = system.run(workload.programs, params=workload.params,
                        max_cycles=max_cycles, workload_name=workload_name)
    if not workload.validate(result):
        raise WorkloadValidationError(
            f"workload {workload_name!r} produced invalid results under "
            f"{protocol!r} — protocol correctness bug"
        )
    return result.stats.to_dict()


def _simulate_stats_cell(config: SystemConfig, protocol: str,
                         workload_name: str, scale: float,
                         max_cycles: int) -> Dict[str, object]:
    """The ``"stats"`` kind's work function: a late-binding trampoline to
    :func:`simulate_cell` so the registered kind keeps honoring test
    monkeypatches of ``parallel.simulate_cell``."""
    return simulate_cell(config, protocol, workload_name, scale, max_cycles)


#: The default cell kind: paper figure / sweep cells producing
#: :class:`~repro.sim.stats.SystemStats` payloads.
STATS_CELL_KIND = register_cell_kind(CellKind(
    name="stats",
    simulate=_simulate_stats_cell,
    decode=SystemStats.from_dict,
    schema=STATS_SCHEMA_VERSION,
))


def payload_is_current(payload: object) -> bool:
    """Whether a cache-entry payload is valid for its own cell kind: the
    ``"kind"`` field (default ``"stats"``) must name a registered kind and
    the ``"schema"`` field must match that kind's payload schema.  Shared
    by the report reader and the shard merge/completeness checks."""
    if not isinstance(payload, dict):
        return False
    kind = payload.get("kind", "stats")
    if not isinstance(kind, str):
        return False
    if kind not in CELL_KINDS:
        _load_bundled_kinds()
        if kind not in CELL_KINDS:
            return False
    return payload.get("schema") == CELL_KINDS[kind].schema


class ResultCache:
    """Content-addressed on-disk cache for per-cell simulation results.

    Entries live at ``<root>/<key[:2]>/<key>.json`` where ``key`` is the
    SHA-256 of the canonical JSON of every input that determines the result.
    Corrupt or stale-schema entries are treated as misses and removed —
    *conditionally*: removal re-stats the path first, so a concurrent
    writer's freshly renamed (valid) entry is never deleted by a reader
    that read the pre-replacement bytes.

    The tree is the only cache state (:mod:`repro.analysis.cache_gc`): an
    entry's mtime is its creation time, and every hit sets its atime, the
    LRU signal for ``repro cache gc``.

    Args:
        root: cache directory (created lazily on first write).
        enabled: when ``False`` every lookup misses and nothing is written —
            the ``--no-cache`` behaviour without conditional call sites.
    """

    def __init__(self, root: Path = DEFAULT_CACHE_DIR,
                 enabled: bool = True) -> None:
        self.root = Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def key(self, config: SystemConfig, protocol: str, workload_name: str,
            scale: float, max_cycles: int,
            kind: Union[str, CellKind] = "stats") -> str:
        """Compute the content-addressed key for one cell
        (:func:`cell_key`)."""
        return cell_key(config, protocol, workload_name, scale, max_cycles,
                        kind=kind)

    def path(self, key: str) -> Path:
        """Filesystem location of the entry for ``key``."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str,
            schema: int = STATS_SCHEMA_VERSION) -> Optional[Dict[str, object]]:
        """Return the cached payload for ``key``, or ``None``.  ``schema``
        is the expected payload schema version (the cell kind's; defaults
        to the stats schema)."""
        if not self.enabled:
            return None
        path = self.path(key)
        read_stat = None
        try:
            with path.open("r", encoding="utf-8") as handle:
                # Identity of the bytes being judged; if the verdict is
                # "corrupt", only this exact file may be removed.
                read_stat = os.fstat(handle.fileno())
                payload = json.load(handle)
                if (not isinstance(payload, dict)
                        or payload.get("schema") != schema):
                    raise ValueError("stale payload schema")
                try:
                    # Record the hit: atime moves to now, mtime (the
                    # entry's creation time) stays.  Through the descriptor,
                    # so a file renamed into place since the read is never
                    # touched.  Best effort: a read-only root still serves.
                    os.utime(handle.fileno(),
                             ns=(time.time_ns(), read_stat.st_mtime_ns))
                except OSError:
                    pass
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):
            self._discard_corrupt(path, read_stat)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _discard_corrupt(self, path: Path, read_stat) -> None:
        """Remove a corrupt/stale entry — but only while it is still the
        same file whose bytes were judged corrupt.  A concurrent writer's
        ``put`` may have atomically renamed a fresh, valid entry into
        place after our read; re-stat the path and leave it alone if its
        identity (inode, mtime, size) changed.  ``read_stat`` of ``None``
        means the open itself failed: nothing was read, nothing is
        condemned."""
        if read_stat is None:
            return
        try:
            current = os.stat(path)
        except OSError:
            return
        if ((current.st_ino, current.st_dev, current.st_mtime_ns,
             current.st_size)
                != (read_stat.st_ino, read_stat.st_dev,
                    read_stat.st_mtime_ns, read_stat.st_size)):
            return
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Persist one stats payload (atomic rename).

        Best effort: an unwritable cache location disables the cache with a
        warning rather than failing the run after the simulation succeeded.
        """
        if not self.enabled:
            return
        path = self.path(key)
        tmp: Optional[Path] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Per-process tmp name so concurrent writers of the same key
            # cannot interleave; the final rename is atomic either way.
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            blob = json.dumps(payload, sort_keys=True)
            tmp.write_text(blob, encoding="utf-8")
            tmp.replace(path)
        except OSError as exc:
            # Don't leave the per-pid tmp behind (e.g. when the final rename
            # failed) — stale tmps would accumulate in shared cache roots.
            if tmp is not None:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
            self.enabled = False
            print(f"warning: result cache at {self.root} is unusable ({exc}); "
                  f"continuing without caching", file=sys.stderr)


class MatrixExecutor:
    """Executes (workload, protocol) cells, in parallel and through the cache.

    Args:
        system_config: platform configuration shared by every cell.
        scale: workload scale factor.
        max_cycles: per-run watchdog bound.
        jobs: worker-process count (``None`` → ``REPRO_JOBS`` env var →
            ``os.cpu_count()``).  ``1`` runs everything in-process.
        cache: optional :class:`ResultCache`; ``None`` disables persistence.
        shard: ``(index, count)`` — simulate only the cache misses whose
            key falls in that shard (:mod:`repro.analysis.shard`); ``None``
            resolves ``REPRO_SHARD``, unsharded when that is unset.
        kind: the :class:`CellKind` this executor's cells compute (name or
            instance; default ``"stats"``).  Cells run through
            ``kind.simulate``, cache entries validate against
            ``kind.schema``, and results decode through ``kind.decode`` —
            the execution/caching/sharding machinery is identical for
            every kind.
        backend: compatibility shim for callers written against the
            removed backend layer; only ``None`` or ``"local"`` (this
            executor's one run loop) is accepted.

    Attributes:
        simulations_run: number of cells actually simulated (cache misses)
            over this executor's lifetime — tests use it to assert that a
            warm cache performs zero new simulations.
    """

    def __init__(
        self,
        system_config: SystemConfig,
        scale: float = 0.5,
        max_cycles: int = 200_000_000,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        shard: Optional[Tuple[int, int]] = None,
        kind: Union[str, CellKind] = "stats",
        backend: Optional[str] = None,
    ) -> None:
        if backend not in (None, "local"):
            raise ValueError(
                f"unknown backend {backend!r}; cells run inline or on a "
                f"local process pool, so only 'local' is accepted")
        self.system_config = system_config
        self.scale = scale
        self.max_cycles = max_cycles
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.shard = resolve_shard(*shard) if shard is not None else resolve_shard()
        self.kind = get_cell_kind(kind)
        self.simulations_run = 0

    # ------------------------------------------------------------------ cache

    def _lookup(self, protocol: str, workload_name: str):
        """Return ``(key, payload-or-None)`` for one cell."""
        if self.cache is None:
            return None, None
        key = self.cache.key(self.system_config, protocol, workload_name,
                             self.scale, self.max_cycles, kind=self.kind)
        return key, self.cache.get(key, schema=self.kind.schema)

    def _store(self, key: Optional[str], payload: Dict[str, object]) -> None:
        if self.cache is not None and key is not None:
            self.cache.put(key, payload)

    def _owns(self, protocol: str, workload_name: str,
              key: Optional[str]) -> bool:
        """Whether this executor's shard simulates the cell."""
        if self.shard is None:
            return True
        # A disabled cache leaves keys unset; the assignment needs them
        # regardless, and computing one is pure and cheap.
        key = key or cell_key(self.system_config, protocol, workload_name,
                              self.scale, self.max_cycles, kind=self.kind)
        return shard_of_key(key, self.shard[1]) == self.shard[0]

    def _not_executed(self, protocol: str, workload_name: str) -> KeyError:
        index, count = self.shard
        return KeyError(
            f"cell ({protocol!r}, {workload_name!r}) was not executed: it "
            f"belongs to another shard than {index}/{count} (sharded run?)")

    # ------------------------------------------------------------------ running

    def run_cell(self, workload_name: str, protocol: str) -> SystemStats:
        """Run (or fetch from cache) a single cell.

        Raises:
            KeyError: if the cell belongs to another shard.
        """
        results = self.run_cells([(protocol, workload_name)])
        try:
            return results[(protocol, workload_name)]
        except KeyError:
            raise self._not_executed(protocol, workload_name) from None

    def run_cells(
        self, cells: Sequence[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], SystemStats]:
        """Run many ``(protocol, workload)`` cells, parallelizing the misses.

        Cached cells are served from disk; of the rest, a sharded executor
        keeps only its own shard's cells.  Those run inline when
        ``jobs == 1`` or only one is pending, and otherwise one cell per
        submission on a process pool.  Returns a dict keyed by the
        ``(protocol, workload)`` pair.

        Raises:
            WorkloadValidationError: the first cell that failed
                validation — raised only after every other pending cell
                ran and its result was cached.
        """
        if self.shard is not None and self.cache is not None \
                and self.cache.enabled:
            # A shard leaves its result directory even when it owns no
            # cells, so a merge finds every shard's directory.
            try:
                self.cache.root.mkdir(parents=True, exist_ok=True)
            except OSError:
                pass  # put() reports an unusable root when it writes
        results: Dict[Tuple[str, str], SystemStats] = {}
        pending: List[Tuple[str, str, Optional[str]]] = []
        for protocol, workload_name in dict.fromkeys(cells):
            key, payload = self._lookup(protocol, workload_name)
            if payload is not None:
                results[(protocol, workload_name)] = self.kind.decode(payload)
            elif self._owns(protocol, workload_name, key):
                pending.append((protocol, workload_name, key))

        failure: Optional[WorkloadValidationError] = None

        def settle(cell, compute) -> None:
            nonlocal failure
            try:
                payload = compute()
            except WorkloadValidationError as exc:
                failure = failure or exc
                return
            self.simulations_run += 1
            self._store(cell[2], payload)
            results[cell[:2]] = self.kind.decode(payload)

        simulate = self.kind.simulate
        args = (self.scale, self.max_cycles)
        if self.jobs == 1 or len(pending) == 1:
            for cell in pending:
                settle(cell, partial(simulate, self.system_config,
                                     cell[0], cell[1], *args))
        elif pending:
            # Imported here so the inline path never loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor, as_completed

            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(simulate, self.system_config, protocol,
                                workload_name, *args):
                    (protocol, workload_name, key)
                    for protocol, workload_name, key in pending
                }
                for future in as_completed(futures):
                    settle(futures[future], future.result)
        if failure is not None:
            raise failure
        return results

    def run_matrix(
        self, protocols: Iterable[str], workloads: Iterable[str]
    ) -> Dict[str, Dict[str, SystemStats]]:
        """Run the full cross product and return ``{protocol: {workload: stats}}``.

        Raises:
            KeyError: if any cell belongs to another shard — a full matrix
                cannot be assembled from a sharded run.
        """
        protocols = list(protocols)
        workloads = list(workloads)
        flat = self.run_cells([(p, w) for p in protocols for w in workloads])
        matrix: Dict[str, Dict[str, SystemStats]] = {}
        for protocol in protocols:
            matrix[protocol] = {}
            for workload_name in workloads:
                try:
                    matrix[protocol][workload_name] = flat[(protocol, workload_name)]
                except KeyError:
                    raise self._not_executed(protocol, workload_name) from None
        return matrix


def run_spec(spec, jobs: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             shard: Optional[Tuple[int, int]] = None,
             ) -> Tuple[Dict[Tuple[str, str, int, float], object], int]:
    """Run every cell of a cell-matrix spec through the cached, parallel
    :class:`MatrixExecutor`: one executor per ``(cores, scale)`` platform,
    since the platform and the scale are part of the cache key.

    ``spec`` is a :class:`~repro.analysis.sweeps.SweepSpec` or a
    :class:`~repro.consistency.fuzz.FuzzCampaign`: anything with ``name``,
    ``noun``, ``protocols``, ``cells()``, ``cell_kind`` and ``max_cycles``.

    Args:
        jobs: worker-process count per platform.
        cache: optional on-disk result cache shared by every cell.
        shard: ``(index, count)``; ``None`` resolves ``REPRO_SHARD``.  A
            sharded run simulates only its own subset of the cells.

    Returns:
        ``(cells, simulations_run)``: the decoded result of every executed
        or cached cell, keyed ``(protocol, workload, cores, scale)``, and
        the number of cells actually simulated.

    Raises:
        KeyError: if a protocol name is not registered.
        WorkloadValidationError: if a stats cell fails functional
            validation.
    """
    from repro.protocols.registry import list_protocol_names

    known = set(list_protocol_names())
    unknown = [p for p in spec.protocols if p not in known]
    if unknown:
        raise KeyError(
            f"{spec.noun} {spec.name!r} references unregistered protocols: "
            f"{', '.join(unknown)}")
    platforms: Dict[Tuple[int, float], List[Tuple[str, str]]] = {}
    for cores, scale, protocol, workload in spec.cells():
        platforms.setdefault((cores, scale), []).append((protocol, workload))
    results: Dict[Tuple[str, str, int, float], object] = {}
    simulations = 0
    for (cores, scale), cells in platforms.items():
        executor = MatrixExecutor(
            SystemConfig().scaled(num_cores=cores), scale=scale,
            max_cycles=spec.max_cycles, jobs=jobs, cache=cache, shard=shard,
            kind=spec.cell_kind)
        for (protocol, workload), result in executor.run_cells(cells).items():
            results[(protocol, workload, cores, scale)] = result
        simulations += executor.simulations_run
    return results, simulations
