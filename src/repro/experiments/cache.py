"""Content-addressed persistent result cache.

Every simulation is a pure function of ``(workload, SimParams)`` -- the
trace generators are seeded and the simulator is deterministic -- so
:class:`RunResult` objects can be stored on disk and replayed on any
later invocation.  Keys are stable SHA-256 fingerprints of the
*content* of the workload spec and the parameter bundle (not object
identity), so equal-but-distinct param objects built through
``dataclasses.replace`` hash to the same entry.

Layout: one pickle file per result under ``results/.cache/`` (override
with ``REPRO_CACHE_DIR``), named ``<key>.pkl``.  Each payload carries a
schema tag; entries written by an older schema are *stale* and treated
as misses (and deleted on sight).  Bump :data:`SIM_SCHEMA_VERSION`
whenever a change to the simulator, trace generators or predictors can
alter results -- the key embeds it, so every old entry invalidates at
once.

Session counters (hits/misses/stale/stores plus the runner's memo and
simulation counts) live in a :class:`repro.common.stats.StatSet`
exposed through :func:`cache_stats`; ``repro cache info`` prints them.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
import pickle
import platform as platform_mod
import shutil
from enum import Enum
from functools import lru_cache
from pathlib import Path

from repro import __version__ as repro_version
from repro.common.log import get_logger
from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.core.metrics import RunResult
from repro.core.typed import kernel_backend_for_params
from repro.trace.source import WorkloadSource, resolve_workload
from repro.trace.workloads import WorkloadSpec

log = get_logger("experiments.cache")

SIM_SCHEMA_VERSION = 8
"""Bump when simulator/trace/predictor changes can alter RunResults.

v2: the sweep runner defaults ``SimParams.warmup_mode`` to
``functional`` (fast-forward warmup); the mode is resolved before
keying, so cycle- and functional-warmup results never share entries.

v3: ``SimParams`` grew ``check_invariants`` (the runtime invariant
layer), changing parameter fingerprints; ``REPRO_CHECK`` is resolved
before keying, so checked and unchecked sweep results never share
entries (they are bit-identical, but a checked sweep must actually run
the checker).

v4: ``BranchPredictorParams`` grew ``btb_variant`` (the registry-driven
build layer), changing parameter fingerprints.

v5: ``SimParams`` grew ``kernel`` (the typed/interpreted cycle-kernel
backend selection), changing parameter fingerprints; the mode was
resolved before keying, so typed and interpreted results of one config
never shared entries.

v6: the workload-source layer -- workload fingerprints now derive from
each source's ``fingerprint_data()`` (synthetic: spec + seeds;
ChampSim traces: file content digest + decoder version), changing
every workload fingerprint at once.

v7: ``SimParams.kernel`` is gone.  The backend is derived per run and
is bit-identical either way, so a result's key is its content only: a
typed and an interpreted run of one config share one entry (manifests
still record the ``kernel_backend`` that ran).

v8: ``MemoryParams.l1i_latency`` is gone.  Nothing read it (an L1I hit
is ready the cycle after its probe, plus any I-TLB miss latency), but
it was part of every parameter fingerprint, so every key changes.
"""

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLED = "REPRO_CACHE"

#: Session-wide cache statistics (read with ``repro cache info``):
#: ``cache_disk_hit`` / ``cache_disk_miss`` / ``cache_stale`` /
#: ``cache_store`` / ``cache_memo_hit`` / ``sim_runs``.
CACHE_STATS = StatSet()


def cache_stats() -> StatSet:
    """The session's cache/runner counter set."""
    return CACHE_STATS


def cache_enabled() -> bool:
    """Disk caching on/off (``REPRO_CACHE=0`` disables; default on)."""
    return os.environ.get(_ENV_ENABLED, "1").strip().lower() not in ("0", "off", "no", "false")


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` or ``results/.cache`` next to the repo root."""
    raw = os.environ.get(_ENV_DIR)
    if raw:
        return Path(raw)
    return Path(__file__).resolve().parents[3] / "results" / ".cache"


# ----------------------------------------------------------------------
# Stable fingerprints
# ----------------------------------------------------------------------
def _canonical(obj):
    """Reduce dataclasses/enums/tuples to canonical JSON-able values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    return obj


@lru_cache(maxsize=4096)
def params_fingerprint(params: SimParams) -> str:
    """Stable content hash of a parameter bundle."""
    blob = json.dumps(_canonical(params), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _workload_fingerprint_of(source: WorkloadSource | WorkloadSpec) -> str:
    """Hash a resolved source via its ``fingerprint_data()`` identity."""
    if hasattr(source, "fingerprint_data"):
        data = source.fingerprint_data()
    else:
        data = _canonical(source)
    blob = json.dumps(_canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@lru_cache(maxsize=256)
def _workload_fingerprint_by_name(name: str) -> str:
    return _workload_fingerprint_of(resolve_workload(name))


def workload_fingerprint(workload: WorkloadSource | WorkloadSpec | str) -> str:
    """Stable content hash of a workload (name, spec, or source object).

    Names go through a name-keyed memo (cleared on registry changes);
    source objects -- which may be unhashable, e.g. a ``ChampSimTrace``
    -- are fingerprinted directly.
    """
    if isinstance(workload, str):
        return _workload_fingerprint_by_name(workload)
    return _workload_fingerprint_of(workload)


workload_fingerprint.cache_clear = _workload_fingerprint_by_name.cache_clear  # type: ignore[attr-defined]


def _run_key_blob(workload_fp: str, params: SimParams) -> str:
    blob = json.dumps(
        {
            "schema": SIM_SCHEMA_VERSION,
            "workload": workload_fp,
            "params": params_fingerprint(params),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@lru_cache(maxsize=8192)
def _run_key_by_name(name: str, params: SimParams) -> str:
    return _run_key_blob(_workload_fingerprint_by_name(name), params)


def run_key(workload: WorkloadSource | WorkloadSpec | str, params: SimParams) -> str:
    """Content-addressed key of one (workload, configuration) simulation."""
    if isinstance(workload, str):
        return _run_key_by_name(workload, params)
    return _run_key_blob(_workload_fingerprint_of(workload), params)


run_key.cache_clear = _run_key_by_name.cache_clear  # type: ignore[attr-defined]


MANIFEST_SCHEMA_VERSION = 2
"""Schema tag of the provenance sidecar manifests (``<key>.manifest.json``)."""


def build_manifest(key: str, result: RunResult, meta: dict | None = None) -> dict:
    """The provenance record written alongside one cached result.

    Answers "where did this number come from" for a warm cache: what
    was simulated (workload, config digest, resolved warmup/check
    modes), by which code (simulation schema + package version), on
    what host, and at what cost (wall seconds, peak RSS, worker pid --
    supplied by the runner through ``meta``).
    """
    params = result.params
    try:
        source = resolve_workload(result.workload)
        workload_source = source.source_kind
        workload_category = source.category
        workload_fp = _workload_fingerprint_of(source)
    except KeyError:
        # A source object that was never registered under its name;
        # the manifest still records the run, just without provenance.
        workload_source = "unknown"
        workload_category = "unknown"
        workload_fp = None
    manifest = {
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "schema": SIM_SCHEMA_VERSION,
        "key": key,
        "workload": result.workload,
        "workload_source": workload_source,
        "workload_category": workload_category,
        "workload_fingerprint": workload_fp,
        "label": result.label,
        "params_fingerprint": params_fingerprint(params),
        "warmup_mode": params.warmup_mode,
        "check_invariants": params.check_invariants,
        "kernel_backend": kernel_backend_for_params(params),
        "prefetcher": params.prefetcher,
        "warmup_instructions": params.warmup_instructions,
        "sim_instructions": params.sim_instructions,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "repro_version": repro_version,
        "host": {
            "platform": platform_mod.platform(),
            "machine": platform_mod.machine(),
            "python": platform_mod.python_version(),
            "implementation": platform_mod.python_implementation(),
        },
    }
    if meta:
        manifest.update(meta)
    return manifest


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
class ResultCache:
    """Pickle-per-entry result store keyed by :func:`run_key`.

    Each stored result gets a human-readable provenance sidecar
    (``<key>.manifest.json``, see :func:`build_manifest`), surfaced via
    ``repro cache info --manifests``.  Manifests are best-effort
    derived data: a missing or unreadable manifest never invalidates
    its result entry.
    """

    def __init__(self, directory: Path | str | None = None, stats: StatSet | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.stats = stats if stats is not None else CACHE_STATS

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def _manifest_path(self, key: str) -> Path:
        return self.directory / f"{key}.manifest.json"

    def contains(self, key: str) -> bool:
        """Whether an entry exists on disk, without loading it.

        A cheap pre-scan probe (the sweep scheduler's ``--resume``
        reporting); the entry may still turn out stale on ``get``.
        """
        return self._path(key).is_file()

    def get(self, key: str) -> RunResult | None:
        """Load a cached result; None on miss or stale/corrupt entry.

        An entry must carry the requested key: one stored under another
        key's file name (a copied or swapped file) is stale, logged
        with both keys and deleted, so the caller re-simulates.
        """
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
                bytes_read = fh.tell()
        except FileNotFoundError:
            self.stats.bump("cache_disk_miss")
            return None
        except Exception:
            # Unreadable/corrupt entry: stale by definition.
            self._discard(key)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != SIM_SCHEMA_VERSION
            or not isinstance(payload.get("result"), RunResult)
        ):
            self._discard(key)
            return None
        if payload.get("key") != key:
            log.warning(
                "cache entry %s holds the result for key %s; discarding it", key, payload.get("key")
            )
            self._discard(key)
            return None
        self.stats.bump("cache_disk_hit")
        self.stats.bump("cache_bytes_read", bytes_read)
        return payload["result"]

    def _discard(self, key: str) -> None:
        """Count a stale entry and delete it with its manifest."""
        self.stats.bump("cache_stale")
        self._path(key).unlink(missing_ok=True)
        self._manifest_path(key).unlink(missing_ok=True)

    def put(self, key: str, result: RunResult, meta: dict | None = None) -> None:
        """Store one result atomically (tmp file + rename).

        ``meta`` carries runner-supplied provenance fields (wall time,
        peak RSS, worker pid) merged into the sidecar manifest.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        payload = {"schema": SIM_SCHEMA_VERSION, "key": key, "result": result}
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            tmp.write_bytes(blob)
            tmp.replace(path)
        except OSError:
            # Caching is best-effort; a full/read-only disk must not
            # fail the experiment run.
            tmp.unlink(missing_ok=True)
            return
        self.stats.bump("cache_store")
        self.stats.bump("cache_bytes_written", len(blob))
        self._put_manifest(key, result, meta)

    def _put_manifest(self, key: str, result: RunResult, meta: dict | None) -> None:
        """Write the provenance sidecar (best-effort, atomic)."""
        path = self._manifest_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(
                json.dumps(build_manifest(key, result, meta), indent=2, sort_keys=True)
                + "\n"
            )
            tmp.replace(path)
        except OSError:
            tmp.unlink(missing_ok=True)

    def get_manifest(self, key: str) -> dict | None:
        """Load one provenance manifest; None when absent or unreadable."""
        try:
            payload = json.loads(self._manifest_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def manifests(self) -> list[dict]:
        """Every readable provenance manifest, newest first."""
        if not self.directory.is_dir():
            return []
        out = []
        for path in self.directory.glob("*.manifest.json"):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(payload, dict):
                out.append(payload)
        out.sort(key=lambda m: m.get("created_utc", ""), reverse=True)
        return out

    def _traces_dir(self) -> Path:
        """The trace chunk-artifact store (``traces/<digest>/``), written
        by :mod:`repro.trace.champsim` under the same cache root."""
        return self.directory / "traces"

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Manifests, stray temp files and the ``traces/`` decode-artifact
        store are removed too (all derived data; none count toward
        ``removed``).
        """
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.directory.glob("*.manifest.json"):
            path.unlink(missing_ok=True)
        for path in self.directory.glob("*.tmp.*"):
            path.unlink(missing_ok=True)
        shutil.rmtree(self._traces_dir(), ignore_errors=True)
        return removed

    def info(self) -> dict:
        """Entry count and total bytes on disk plus session counters."""
        entries = 0
        total_bytes = 0
        manifests = 0
        trace_files = 0
        trace_bytes = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            manifests = sum(1 for _ in self.directory.glob("*.manifest.json"))
        traces_dir = self._traces_dir()
        if traces_dir.is_dir():
            for path in traces_dir.rglob("*"):
                try:
                    if not path.is_file():
                        continue
                    trace_bytes += path.stat().st_size
                except OSError:
                    continue
                trace_files += 1
        session = self.stats.as_dict()
        hits = session.get("cache_disk_hit", 0) + session.get("cache_memo_hit", 0)
        lookups = hits + session.get("cache_disk_miss", 0)
        return {
            "directory": str(self.directory),
            "schema": SIM_SCHEMA_VERSION,
            "entries": entries,
            "manifests": manifests,
            "total_bytes": total_bytes,
            "trace_files": trace_files,
            "trace_bytes": trace_bytes,
            "session": session,
            "session_hit_rate": (hits / lookups) if lookups else 0.0,
        }
