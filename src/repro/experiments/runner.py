"""Cached simulation runner and aggregation helpers.

Every figure shares the same baselines, so results are memoised at two
levels: an in-process dict and the persistent on-disk cache
(:mod:`repro.experiments.cache`).  Both are keyed by the same stable
content hash of ``(workload, SimParams)``, so equal-but-distinct
parameter objects built via ``dataclasses.replace`` always hit.

:func:`run_matrix` fans uncached (workload, configuration) points
across a ``concurrent.futures.ProcessPoolExecutor``; the simulator is
deterministic by seed, so parallel results are bit-identical to serial
ones.  Worker count comes from ``REPRO_JOBS`` (default
``os.cpu_count()``; ``1`` keeps everything in-process).

Aggregation follows the paper's reporting (Section V): geometric mean
for IPC speedups, arithmetic mean for per-kilo-instruction metrics.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.common.ledger import open_ledger
from repro.common.log import configure as configure_logging
from repro.common.log import current_level_name, get_logger
from repro.common.params import SimParams
from repro.common.stats import amean, geomean
from repro.core.metrics import RunResult
from repro.core.simulator import simulate
from repro.experiments.cache import (
    CACHE_STATS,
    ResultCache,
    cache_enabled,
    run_key,
    workload_fingerprint,
)
from repro.experiments.configs import repro_jobs
from repro.trace.workloads import make_trace

_CACHE: dict[str, RunResult] = {}
"""In-process memo, keyed by the stable content hash (run_key)."""

# Inert: only perfbench/tracer.py reads this name; ROADMAP item 1
# deletes the tracer's hook and this line together.
simulate_batch = None

log = get_logger("experiments.runner")


def _disk() -> ResultCache | None:
    return ResultCache() if cache_enabled() else None


def _peak_rss_kib() -> int | None:
    """This process's peak resident-set size in KiB (None if unavailable)."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX platform
        return None


def _simulate_unit(workload: str, params: SimParams) -> tuple[RunResult, dict]:
    """Worker entry point: simulate one point (top-level for pickling).

    Returns the result plus the execution metadata that feeds the run
    ledger (``started``/``finished`` events) and the provenance
    manifests the disk cache writes alongside results.
    """
    started_ts = time.time()
    t0 = time.perf_counter()
    result = simulate(workload, params)
    return result, {
        "pid": os.getpid(),
        "started_ts": started_ts,
        "wall_seconds": time.perf_counter() - t0,
        "peak_rss_kib": _peak_rss_kib(),
    }


def _pool_worker_init(log_level: str) -> None:
    """Pool-worker initializer: inherit the parent's logging config.

    Workers spawned by ``ProcessPoolExecutor`` start with unconfigured
    logging on spawn-based platforms (and would silently drop
    ``--log-level debug`` diagnostics); the parent threads its effective
    level through so worker-side messages surface identically.
    """
    configure_logging(log_level)


def resolve_warmup_mode(params: SimParams) -> SimParams:
    """Resolve ``warmup_mode="auto"`` for sweep execution.

    The sweep runner warms up functionally (fast-forward); a sweep that
    wants cycle-accurate warmup sets ``warmup_mode: cycle`` itself.
    Resolution happens *before* cache keys are computed, so cached
    results are always tagged with the concrete mode and the two modes
    never share entries.  Explicit modes pass through.
    """
    if params.warmup_mode != "auto":
        return params
    return params.replace(warmup_mode="functional")


def resolve_check_mode(params: SimParams) -> SimParams:
    """Apply the ``REPRO_CHECK`` invariant-checking override.

    ``REPRO_CHECK=1`` forces every sweep simulation to run with the
    runtime invariant layer on (``SimParams.check_invariants``) -- a
    whole-experiment self-check mode.  Like warmup-mode resolution this
    happens *before* cache keys are computed; checked runs are
    bit-identical to unchecked ones but never share cache entries, so a
    checked sweep actually re-executes every point under the checker.
    """
    raw = os.environ.get("REPRO_CHECK", "").strip().lower()
    if raw in ("", "0", "false", "no"):
        return params
    if raw not in ("1", "true", "yes"):
        raise ValueError(f"REPRO_CHECK must be a boolean flag, got {raw!r}")
    if params.check_invariants:
        return params
    return params.replace(check_invariants=True)


def _resolve(params: SimParams) -> SimParams:
    """The runner's resolution of ``params``, in cache-key order: the
    ``auto`` warmup mode, then the ``REPRO_CHECK`` override."""
    return resolve_check_mode(resolve_warmup_mode(params))


def run_config(workload: str, params: SimParams) -> RunResult:
    """Simulate (memoised + disk-cached) one workload configuration."""
    [result] = run_points([(workload, params)], jobs=1).values()
    return result


def clear_cache() -> None:
    """Drop memoised results (tests use this for isolation).

    Only the in-process memo is dropped; the on-disk cache is managed
    separately (``repro cache clear`` / :class:`ResultCache.clear`).
    """
    _CACHE.clear()


def cache_size() -> int:
    """Number of memoised (workload, params) results."""
    return len(_CACHE)


def _workload_name(workload) -> str:
    """Catalogue name of a workload argument (string or explicit spec)."""
    return workload if isinstance(workload, str) else workload.name


def _manifest_meta(meta: dict, workload) -> dict:
    """Provenance-manifest fields derived from one unit's execution meta,
    plus the fingerprint its key was derived from, which a later lookup
    re-derives the key with."""
    return {
        "wall_seconds": meta["wall_seconds"],
        "peak_rss_kib": meta["peak_rss_kib"],
        "worker_pid": meta["pid"],
        "workload_fingerprint": workload_fingerprint(workload),
    }


def run_points(
    points: Iterable[tuple[str, SimParams]],
    jobs: int | None = None,
    ledger_context: dict | None = None,
) -> dict[str, RunResult]:
    """Resolve many (workload, params) points, in parallel when allowed.

    Returns ``{run_key: RunResult}`` covering every requested point.
    Cached points (memo or disk) never re-simulate; each of the others
    is one work unit, and the units fan out across a process pool when
    ``jobs`` (default ``REPRO_JOBS``) exceeds 1 and more than one is
    pending.

    With ``REPRO_LEDGER`` set, every deduplicated point's lifecycle is
    journalled to a run-ledger JSONL file (``queued`` ->
    ``cache_hit`` | ``started`` -> ``finished`` | ``failed``); the
    ledger only observes, so ledgered sweeps stay bit-identical to
    plain ones.  When a work unit raises, the remaining units still run
    (so the ledger reconciles) and the first failure re-raises after
    the sweep drains.  Each distinct trace is materialised once, before
    dispatch; a trace that cannot be built (say, a malformed trace file)
    fails all of its points with one logged error.
    """
    jobs = repro_jobs() if jobs is None else max(1, jobs)
    disk = _disk()
    ledger = open_ledger(context=ledger_context)
    if ledger is not None:
        ledger.begin(jobs=jobs)

    resolved: dict[str, RunResult] = {}
    pending: dict[str, tuple[str, SimParams]] = {}
    n_hits = 0
    for workload, params in points:
        params = _resolve(params)
        key = run_key(workload, params)
        if key in resolved or key in pending:
            continue
        if ledger is not None:
            ledger.queued(key, _workload_name(workload), params.label())
        result = _CACHE.get(key)
        if result is not None:
            CACHE_STATS.bump("cache_memo_hit")
            resolved[key] = result
            n_hits += 1
            if ledger is not None:
                ledger.cache_hit(key, _workload_name(workload), params.label(), "memo")
            continue
        if disk is not None:
            result = disk.get(key)
            if result is not None:
                _CACHE[key] = result
                resolved[key] = result
                n_hits += 1
                if ledger is not None:
                    ledger.cache_hit(key, _workload_name(workload), params.label(), "disk")
                continue
        pending[key] = (workload, params)

    log.debug(
        "run_points: %d point(s) resolved from cache, %d pending",
        len(resolved),
        len(pending),
    )
    if not pending:
        if ledger is not None:
            ledger.end(queued=n_hits, cache_hits=n_hits, finished=0, failed=0)
        return resolved

    CACHE_STATS.bump("sim_runs", len(pending))
    trace_errors = _materialize_traces(pending.values())
    units = {f"u{i}": key for i, key in enumerate(pending)}
    n_finished = 0
    n_failed = 0
    failure: BaseException | None = None

    def _record_unit(unit_id: str, key: str, result: RunResult, meta: dict) -> None:
        nonlocal n_finished
        workload, params = pending[key]
        instructions = params.warmup_instructions + params.sim_instructions
        wall = meta["wall_seconds"]
        resolved[key] = result
        _CACHE[key] = result
        if disk is not None:
            disk.put(key, result, meta=_manifest_meta(meta, workload))
        n_finished += 1
        if ledger is not None:
            name = _workload_name(workload)
            ledger.started(key, name, unit_id, meta["pid"], meta["started_ts"])
            ledger.finished(
                key,
                name,
                params.label(),
                unit_id,
                meta["pid"],
                wall,
                instructions,
                instructions / wall if wall > 0 else 0.0,
                result.ipc,
            )

    def _record_failure(unit_id: str, key: str, exc: BaseException) -> None:
        nonlocal n_failed, failure
        n_failed += 1
        if failure is None:
            failure = exc
        if ledger is not None:
            workload, params = pending[key]
            ledger.failed(key, _workload_name(workload), params.label(), unit_id, str(exc))

    # A unit whose trace failed to materialise fails without running;
    # its error was logged once per trace.
    for unit_id, key in list(units.items()):
        exc = trace_errors.get(_trace_id(*pending[key]))
        if exc is not None:
            _record_failure(unit_id, key, exc)
            del units[unit_id]

    if jobs > 1 and len(units) > 1:
        log.debug("fanning %d work unit(s) across %d worker(s)", len(units), jobs)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(units)),
            initializer=_pool_worker_init,
            initargs=(current_level_name(),),
        ) as pool:
            futures = {
                pool.submit(_simulate_unit, *pending[key]): (unit_id, key)
                for unit_id, key in units.items()
            }
            for future in as_completed(futures):
                unit_id, key = futures[future]
                try:
                    result, meta = future.result()
                except Exception as exc:
                    log.error("work unit %s failed: %s", unit_id, exc)
                    _record_failure(unit_id, key, exc)
                    continue
                _record_unit(unit_id, key, result, meta)
    else:
        for unit_id, key in units.items():
            try:
                result, meta = _simulate_unit(*pending[key])
            except Exception as exc:
                log.error("work unit %s failed: %s", unit_id, exc)
                _record_failure(unit_id, key, exc)
                continue
            _record_unit(unit_id, key, result, meta)

    if ledger is not None:
        ledger.end(
            queued=n_hits + len(pending),
            cache_hits=n_hits,
            finished=n_finished,
            failed=n_failed,
        )
    if failure is not None:
        raise failure
    return resolved


def _trace_id(workload, params: SimParams) -> tuple[str, int]:
    """The trace a point replays: its workload and window length."""
    return _workload_name(workload), params.warmup_instructions + params.sim_instructions


def _materialize_traces(
    points: Iterable[tuple[str, SimParams]],
) -> dict[tuple[str, int], BaseException]:
    """Materialise every distinct trace of ``points`` once, before dispatch.

    The serial path then hits :func:`make_trace`'s memo, and forked pool
    workers inherit it warm instead of regenerating per process.
    Returns the failures keyed by :func:`_trace_id`, each logged once:
    their points are recorded failed without running, and the other
    workloads still run.
    """
    errors: dict[tuple[str, int], BaseException] = {}
    done: set[tuple[str, int]] = set()
    for workload, params in points:
        trace_id = _trace_id(workload, params)
        if trace_id in done:
            continue
        done.add(trace_id)
        try:
            make_trace(workload, trace_id[1])
        except Exception as exc:
            log.error("trace %s (%d instructions) failed: %s", trace_id[0], trace_id[1], exc)
            errors[trace_id] = exc
    return errors


def run_matrix(
    configs: Mapping[str, SimParams],
    workloads: Iterable[str],
    jobs: int | None = None,
) -> dict[str, dict[str, RunResult]]:
    """Run every (config, workload) pair; returns results[label][workload]."""
    workloads = list(workloads)
    by_key = run_points(
        ((wl, params) for params in configs.values() for wl in workloads),
        jobs=jobs,
    )
    return {
        label: {wl: by_key[run_key(wl, _resolve(params))] for wl in workloads}
        for label, params in configs.items()
    }


def geomean_speedup(
    results: Mapping[str, Mapping[str, RunResult]],
    label: str,
    baseline_label: str,
) -> float:
    """Geometric-mean IPC speedup of ``label`` over ``baseline_label``."""
    rows = results[label]
    base = results[baseline_label]
    return geomean([rows[wl].ipc / base[wl].ipc for wl in rows])


def mean_metric(
    results: Mapping[str, Mapping[str, RunResult]],
    label: str,
    metric: str,
) -> float:
    """Arithmetic mean of a :class:`RunResult` property across workloads."""
    rows = results[label]
    return amean([getattr(r, metric) for r in rows.values()])
