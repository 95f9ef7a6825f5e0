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
from repro.common.params import WARMUP_MODES, SimParams
from repro.common.stats import amean, geomean
from repro.core.batch import batchable, simulate_batch
from repro.core.build import resolve_components
from repro.core.metrics import RunResult
from repro.core.simulator import simulate
from repro.core.typed import typed_eligible
from repro.experiments.cache import CACHE_STATS, ResultCache, cache_enabled, run_key
from repro.experiments.configs import repro_jobs
from repro.trace.workloads import make_trace

_CACHE: dict[str, RunResult] = {}
"""In-process memo, keyed by the stable content hash (run_key)."""

DEFAULT_BATCH_WIDTH = 8
"""Upper bound on lockstep batch size formed by the sweep runner; keeps
one pool worker from hoarding a whole workload's points while the rest
idle, and bounds per-worker memory."""

log = get_logger("experiments.runner")


def _disk() -> ResultCache | None:
    return ResultCache() if cache_enabled() else None


def batching_enabled() -> bool:
    """Whether the sweep runner groups cache-miss jobs into batches.

    On by default; ``REPRO_BATCH=0`` forces the scalar path (useful to
    bisect a suspected batching problem, and what the equivalence tests
    toggle).
    """
    raw = os.environ.get("REPRO_BATCH", "1").strip().lower()
    return raw not in ("0", "false", "no")


def batch_width() -> int:
    """Maximum lockstep batch size (``REPRO_BATCH_WIDTH`` overrides)."""
    raw = os.environ.get("REPRO_BATCH_WIDTH", "").strip()
    return max(2, int(raw)) if raw else DEFAULT_BATCH_WIDTH


def _peak_rss_kib() -> int | None:
    """This process's peak resident-set size in KiB (None if unavailable)."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX platform
        return None


def _unit_meta(started_ts: float, wall: float, instructions: int) -> dict:
    """Execution metadata one work unit reports back to the parent.

    Feeds the run ledger (``started``/``finished`` events) and the
    provenance manifests the disk cache writes alongside results.
    """
    return {
        "pid": os.getpid(),
        "started_ts": started_ts,
        "wall_seconds": wall,
        "instructions": instructions,
        "peak_rss_kib": _peak_rss_kib(),
    }


def _simulate_unit(
    workload: str, params_list: list[SimParams]
) -> tuple[list[RunResult], dict]:
    """Worker entry point: one work unit (top-level for pickling).

    A unit is either one scalar simulation (``len(params_list) == 1``)
    or one lockstep batch; either way it returns the results in input
    order plus the unit's execution metadata.
    """
    started_ts = time.time()
    t0 = time.perf_counter()
    if len(params_list) == 1:
        results = [simulate(workload, params_list[0])]
    else:
        results = simulate_batch(workload, params_list)
    wall = time.perf_counter() - t0
    total = sum(p.warmup_instructions + p.sim_instructions for p in params_list)
    return results, _unit_meta(started_ts, wall, total)


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

    The sweep runner defaults to functional fast-forward warmup
    (``REPRO_WARMUP_MODE`` overrides, e.g. ``cycle`` to recover the old
    behaviour).  Resolution happens *before* cache keys are computed,
    so cached results are always tagged with the concrete mode and the
    two modes never share entries.  Explicit modes pass through.
    """
    if params.warmup_mode != "auto":
        return params
    mode = os.environ.get("REPRO_WARMUP_MODE", "functional").strip().lower()
    if mode == "auto" or mode not in WARMUP_MODES:
        raise ValueError(
            f"REPRO_WARMUP_MODE must be 'cycle' or 'functional', got {mode!r}"
        )
    return params.replace(warmup_mode=mode)


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
    """All environment overrides, in cache-key order.

    Also resolves every registry-named component up front, so an
    unknown prefetcher/predictor/BTB-variant name fails fast in the
    submitting process instead of inside a sweep worker.
    """
    resolve_components(params)
    return resolve_check_mode(resolve_warmup_mode(params))


def run_config(workload: str, params: SimParams) -> RunResult:
    """Simulate (memoised + disk-cached) one workload configuration."""
    params = _resolve(params)
    key = run_key(workload, params)
    result = _CACHE.get(key)
    if result is not None:
        CACHE_STATS.bump("cache_memo_hit")
        return result
    disk = _disk()
    if disk is not None:
        result = disk.get(key)
        if result is not None:
            _CACHE[key] = result
            return result
    CACHE_STATS.bump("sim_runs")
    results, meta = _simulate_unit(workload, [params])
    result = results[0]
    _CACHE[key] = result
    if disk is not None:
        disk.put(key, result, meta=_manifest_meta(meta, unit_size=1))
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


def _manifest_meta(meta: dict, unit_size: int) -> dict:
    """Provenance-manifest fields derived from one unit's execution meta."""
    return {
        "wall_seconds": meta["wall_seconds"],
        "peak_rss_kib": meta["peak_rss_kib"],
        "worker_pid": meta["pid"],
        "batched": unit_size > 1,
        "unit_size": unit_size,
    }


def run_points(
    points: Iterable[tuple[str, SimParams]],
    jobs: int | None = None,
    ledger_context: dict | None = None,
) -> dict[str, RunResult]:
    """Resolve many (workload, params) points, in parallel when allowed.

    Returns ``{run_key: RunResult}`` covering every requested point.
    Cached points (memo or disk) never re-simulate; the remainder fans
    out across a process pool when ``jobs`` (default ``REPRO_JOBS``)
    exceeds 1 and more than one simulation is pending.

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
        ledger.begin(jobs=jobs, batching=batching_enabled(), batch_width=batch_width())

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
    batches, singles = _plan_batches(pending)
    if batches:
        log.debug(
            "grouped %d point(s) into %d lockstep batch(es), %d scalar",
            sum(len(b) for b in batches),
            len(batches),
            len(singles),
        )
    units: list[tuple[str, list[str]]] = [
        (f"u{i}", group)
        for i, group in enumerate(batches + [[key] for key in singles])
    ]
    n_finished = 0
    n_failed = 0
    failure: BaseException | None = None

    def _record_unit(unit_id: str, group: list[str], results, meta) -> None:
        nonlocal n_finished
        if ledger is not None:
            for key in group:
                ledger.started(
                    key,
                    _workload_name(pending[key][0]),
                    unit_id,
                    meta["pid"],
                    meta["started_ts"],
                )
        rate = (
            meta["instructions"] / meta["wall_seconds"]
            if meta["wall_seconds"] > 0
            else 0.0
        )
        for key, result in zip(group, results):
            workload, params = pending[key]
            resolved[key] = result
            _CACHE[key] = result
            if disk is not None:
                disk.put(key, result, meta=_manifest_meta(meta, unit_size=len(group)))
            n_finished += 1
            if ledger is not None:
                ledger.finished(
                    key,
                    _workload_name(workload),
                    params.label(),
                    unit_id,
                    len(group),
                    meta["pid"],
                    meta["wall_seconds"],
                    params.warmup_instructions + params.sim_instructions,
                    rate,
                    result.ipc,
                )

    def _record_failure(unit_id: str, group: list[str], exc: BaseException) -> None:
        nonlocal n_failed, failure
        n_failed += len(group)
        if failure is None:
            failure = exc
        if ledger is not None:
            for key in group:
                workload, params = pending[key]
                ledger.failed(
                    key, _workload_name(workload), params.label(), unit_id, str(exc)
                )

    # A unit whose trace failed to materialise fails without running;
    # its error was logged once per trace.
    runnable: list[tuple[str, list[str]]] = []
    for unit_id, group in units:
        exc = trace_errors.get(_trace_id(*pending[group[0]]))
        if exc is None:
            runnable.append((unit_id, group))
        else:
            _record_failure(unit_id, group, exc)
    units = runnable

    if jobs > 1 and len(units) > 1:
        log.debug("fanning %d work unit(s) across %d worker(s)", len(units), jobs)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(units)),
            initializer=_pool_worker_init,
            initargs=(current_level_name(),),
        ) as pool:
            futures = {
                pool.submit(
                    _simulate_unit,
                    pending[group[0]][0],
                    [pending[k][1] for k in group],
                ): (unit_id, group)
                for unit_id, group in units
            }
            for future in as_completed(futures):
                unit_id, group = futures[future]
                try:
                    results, meta = future.result()
                except Exception as exc:
                    log.error("work unit %s failed: %s", unit_id, exc)
                    _record_failure(unit_id, group, exc)
                    continue
                _record_unit(unit_id, group, results, meta)
    else:
        for unit_id, group in units:
            try:
                results, meta = _simulate_unit(
                    pending[group[0]][0], [pending[k][1] for k in group]
                )
            except Exception as exc:
                log.error("work unit %s failed: %s", unit_id, exc)
                _record_failure(unit_id, group, exc)
                continue
            _record_unit(unit_id, group, results, meta)

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


def _plan_batches(
    pending: Mapping[str, tuple[str, SimParams]],
) -> tuple[list[list[str]], list[str]]:
    """Group pending run keys into lockstep batches plus scalar leftovers.

    Points batch together when they share a workload *and* a trace
    length (members of one batch must predict against the same oracle
    stream; see :func:`repro.core.batch.simulate_batch`) and their
    config is :func:`~repro.core.batch.batchable`.  Groups are chunked
    to :func:`batch_width`; singletons and non-batchable configs run on
    the scalar path unchanged.

    Typed-kernel-eligible points (:func:`repro.core.typed.typed_eligible`)
    also stay scalar: lockstep batching interleaves the interpreted
    stepping kernels, and the typed scalar path is faster than the
    batching win, so batching them would be a de-optimisation.  Every
    point without the invariant checker is typed-eligible, and checked
    points are not batchable, so sweeps get no batches from this.
    """
    if not batching_enabled():
        return [], list(pending)
    singles: list[str] = []
    groups: dict[tuple[str, int], list[str]] = {}
    for key, (workload, params) in pending.items():
        if typed_eligible(params) or not batchable(params)[0]:
            singles.append(key)
            continue
        n = params.warmup_instructions + params.sim_instructions
        groups.setdefault((workload, n), []).append(key)
    width = batch_width()
    batches: list[list[str]] = []
    for keys in groups.values():
        for i in range(0, len(keys), width):
            chunk = keys[i : i + width]
            if len(chunk) == 1:
                singles.append(chunk[0])
            else:
                batches.append(chunk)
    return batches, singles


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
