"""Content-addressed persistent result cache.

Every simulation is a pure function of ``(workload, SimParams)`` -- the
trace generators are seeded and the simulator is deterministic -- so
:class:`RunResult` objects can be stored on disk and replayed on any
later invocation.  Keys are stable SHA-256 fingerprints of the
*content* of the workload spec and the parameter bundle (not object
identity), so equal-but-distinct param objects built through
``dataclasses.replace`` hash to the same entry.

Layout: one JSON document per result under ``results/.cache/``
(override with ``REPRO_CACHE_DIR``), named ``<key>.json``.  It holds
the run's provenance (:func:`build_manifest`), its parameters in their
canonical encoding and its counters: data only, so a cache directory
shared between machines executes nothing it reads.  An entry that is
not valid JSON, lacks a field, carries another schema tag or another
key, or whose parameters and workload fingerprint do not re-derive its
key, is *stale*: a miss, deleted on sight.  Bump
:data:`SIM_SCHEMA_VERSION` whenever a change to the simulator, trace
generators or predictors can alter results -- the key embeds it, so
every old entry invalidates at once.  An entry of another schema then
sits under a key no lookup derives: ``repro cache info`` counts it as
*unreachable*, the provenance listing leaves it out, and ``repro cache
clear`` removes it.  Files an older version wrote (``<key>.pkl``,
``<key>.manifest.json``, ``traces/``) are never read, counted or
deleted.

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
import platform as platform_mod
from enum import Enum
from functools import lru_cache
from pathlib import Path

from repro import __version__ as repro_version
from repro.common.log import get_logger
from repro.common.params import SimParams, params_from_dict
from repro.common.stats import StatSet
from repro.core.metrics import RunResult
from repro.trace.source import WorkloadSource, resolve_workload
from repro.trace.workloads import WorkloadSpec

log = get_logger("experiments.cache")

SIM_SCHEMA_VERSION = 10
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

v9: ``BranchPredictorParams.btb_variant`` is gone.  A two-level BTB is
built exactly when ``btb_l1_entries`` is set, as ``auto`` did, but the
field was part of every parameter fingerprint, so every key changes.

v10: ``BranchPredictorParams.perfect_direction`` is gone; the
``perfect`` direction kind is the one spelling of perfect direction
prediction, so one simulation has one key (a TAGE or Gshare config with
the flag keyed apart from the kind).  Entries also record the
``kernel_backend`` that ran (:attr:`RunResult.kernel_backend`).
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


MANIFEST_SCHEMA_VERSION = 3
"""Layout tag of a cache entry (see :func:`build_manifest`).

v3: one ``<key>.json`` document per result holds its provenance, its
canonical parameters and its counters; v2 paired a pickle with a
``<key>.manifest.json`` provenance sidecar.
"""

_ENTRY_GLOB = "?" * 64 + ".json"
"""Entry file names: the 64 hex digits of a key plus ``.json``.  An
older version's ``<key>.manifest.json`` sidecar never matches."""


def build_manifest(key: str, result: RunResult, meta: dict | None = None) -> dict:
    """The JSON document cached for one result.

    Answers "where did this number come from" for a warm cache: what
    was simulated (workload, config digest, resolved warmup/check
    modes), by which code (simulation schema + package version), on
    what host, and at what cost (wall seconds, peak RSS, worker pid --
    supplied by the runner through ``meta``).  ``params`` (canonical
    encoding) and ``counters`` hold the rest of the :class:`RunResult`.
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
        "kernel_backend": result.kernel_backend,
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
    manifest["params"] = _canonical(params)
    manifest["counters"] = result.stats.as_dict()
    return manifest


def _current(entry) -> bool:
    """Whether a decoded entry carries this version's schema tags."""
    return isinstance(entry, dict) and (
        entry.get("schema"),
        entry.get("manifest_schema"),
    ) == (SIM_SCHEMA_VERSION, MANIFEST_SCHEMA_VERSION)


def _result_of(entry: dict) -> RunResult:
    """Rebuild the :class:`RunResult` an entry holds.

    Raises ``KeyError``, ``TypeError`` or ``ValueError`` when the entry
    lacks a field, a field has the wrong type or a schema tag differs.
    """
    if not _current(entry):
        raise ValueError("entry written under another schema")
    counters = entry["counters"]
    if not isinstance(counters, dict):
        raise TypeError("entry counters are not an object")
    texts = (entry["key"], entry["workload"], entry["label"], entry["kernel_backend"])
    numbers = (entry["instructions"], entry["cycles"], *counters.values())
    if not all(isinstance(t, str) for t in texts) or not all(type(n) is int for n in numbers):
        raise TypeError("entry field of the wrong type")
    stats = StatSet()
    for name, value in counters.items():
        stats.set(name, value)
    return RunResult(
        workload=entry["workload"],
        label=entry["label"],
        params=params_from_dict(entry["params"]),
        instructions=entry["instructions"],
        cycles=entry["cycles"],
        stats=stats,
        kernel_backend=entry["kernel_backend"],
    )


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
class ResultCache:
    """One JSON entry per result (:func:`build_manifest`), keyed by
    :func:`run_key`; ``repro cache info --manifests`` lists them."""

    def __init__(self, directory: Path | str | None = None, stats: StatSet | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.stats = stats if stats is not None else CACHE_STATS

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _entries(self):
        return self.directory.glob(_ENTRY_GLOB)

    def get(self, key: str) -> RunResult | None:
        """Load a cached result; None on miss or stale entry.

        An entry must carry the requested key, and its parameters and
        workload fingerprint must re-derive that key: one stored under
        another key's file name (a copied or swapped file), or edited
        to claim other parameters or another workload, is stale, logged
        with both keys and deleted, so the caller re-simulates.
        """
        try:
            blob = self._path(key).read_bytes()
            entry = json.loads(blob)
            result = _result_of(entry)
            derived = _run_key_blob(entry["workload_fingerprint"], result.params)
        except FileNotFoundError:
            self.stats.bump("cache_disk_miss")
            return None
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            # Unreadable, truncated or malformed entry: stale by definition.
            self._discard(key)
            return None
        if entry["key"] != key or derived != key:
            log.warning(
                "cache entry %s holds the result for key %s (its parameters and "
                "workload re-derive %s); discarding it",
                key,
                entry["key"],
                derived,
            )
            self._discard(key)
            return None
        self.stats.bump("cache_disk_hit")
        self.stats.bump("cache_bytes_read", len(blob))
        return result

    def _discard(self, key: str) -> None:
        """Count a stale entry and delete it."""
        self.stats.bump("cache_stale")
        self._path(key).unlink(missing_ok=True)

    def put(self, key: str, result: RunResult, meta: dict | None = None) -> None:
        """Store one result atomically (tmp file + rename).

        ``meta`` carries runner-supplied provenance fields (wall time,
        peak RSS, worker pid) merged into the entry.
        """
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        blob = json.dumps(build_manifest(key, result, meta), indent=2).encode()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            tmp.replace(path)
        except OSError as exc:
            # Caching is best-effort: a full or read-only disk must not
            # fail the run, but a sharded sweep's merge reads this entry.
            tmp.unlink(missing_ok=True)
            log.warning("could not store result %s in %s: %s", key[:12], self.directory, exc)
            return
        self.stats.bump("cache_store")
        self.stats.bump("cache_bytes_written", len(blob))

    def _read(self, path: Path):
        """An entry file's decoded JSON, or ``None`` when unreadable."""
        try:
            return json.loads(path.read_bytes())
        except (OSError, ValueError, RecursionError):
            return None

    def manifests(self) -> list[dict]:
        """Every readable entry of this version's schema, newest first."""
        out = [entry for path in self._entries() if _current(entry := self._read(path))]
        out.sort(key=lambda m: m.get("created_utc", ""), reverse=True)
        return out

    def clear(self) -> int:
        """Delete every entry and stray temp file; returns the number of
        entries removed."""
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.directory.glob("*.tmp.*"):
            path.unlink(missing_ok=True)
        return removed

    def info(self) -> dict:
        """Entry count and total bytes on disk plus session counters.

        An entry of another schema is counted apart, as ``unreachable``
        with ``unreachable_bytes``: no lookup derives its key, so only
        :meth:`clear` removes it.
        """
        entries = total_bytes = unreachable = unreachable_bytes = 0
        for path in self._entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entry = self._read(path)
            if isinstance(entry, dict) and not _current(entry):
                unreachable += 1
                unreachable_bytes += size
            else:
                entries += 1
                total_bytes += size
        session = self.stats.as_dict()
        hits = session.get("cache_disk_hit", 0) + session.get("cache_memo_hit", 0)
        lookups = hits + session.get("cache_disk_miss", 0)
        return {
            "directory": str(self.directory),
            "schema": SIM_SCHEMA_VERSION,
            "entries": entries,
            "total_bytes": total_bytes,
            "unreachable": unreachable,
            "unreachable_bytes": unreachable_bytes,
            "session": session,
            "session_hit_rate": (hits / lookups) if lookups else 0.0,
        }
