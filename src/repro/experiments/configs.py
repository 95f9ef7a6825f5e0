"""Canonical experiment configurations.

The defaults mirror Table IV (Sunny Cove-like core, 32KB L1I, 8K-entry
BTB, 18KB TAGE with 260-bit taken-only target history, 24-entry FTQ,
2x prediction bandwidth, PFC enabled).  Instruction windows are scaled
for a pure-Python simulator -- 25K warmup + 60K measured by default --
and adjustable through environment variables:

* ``REPRO_WARMUP``     -- warmup instructions (default 25000)
* ``REPRO_SIM``        -- measured instructions (default 60000)
* ``REPRO_WORKLOADS``  -- ``all`` (default), ``quick`` (a 4-workload
  subset covering all three categories), or a comma-separated list of
  catalogue names, registered trace names, or trace file paths.
* ``REPRO_TRACES``     -- ``os.pathsep``-separated ChampSim trace files
  (or directories of them) registered as workload sources at first
  lookup (see :mod:`repro.trace.source` and docs/TRACES.md).
* ``REPRO_JOBS``       -- worker processes for sweep execution
  (default: ``os.cpu_count()``; ``1`` forces the serial in-process
  path).
* ``REPRO_CACHE_DIR`` / ``REPRO_CACHE`` -- persistent result-cache
  location / on-off switch (see :mod:`repro.experiments.cache`).
"""

from __future__ import annotations

import os

from repro.common.params import SimParams
from repro.trace.workloads import default_workloads

QUICK_WORKLOADS = ["srv_web", "srv_db", "clt_browser", "spc_int_a"]

DEFAULT_WARMUP = 25_000
DEFAULT_SIM = 60_000


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def repro_jobs() -> int:
    """Worker processes for sweeps (``REPRO_JOBS``, default cpu count)."""
    raw = os.environ.get("REPRO_JOBS")
    if raw is None or not raw.strip():
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError("REPRO_JOBS must be positive")
    return value


def default_params() -> SimParams:
    """The paper's FDP configuration (Table IV)."""
    return SimParams(
        warmup_instructions=_env_int("REPRO_WARMUP", DEFAULT_WARMUP),
        sim_instructions=_env_int("REPRO_SIM", DEFAULT_SIM),
    )


def no_fdp(params: SimParams) -> SimParams:
    """Disable FDP: 2-entry FTQ (16 instructions) and no PFC (Section V)."""
    return params.with_frontend(ftq_entries=2, pfc_enabled=False)


def baseline_params() -> SimParams:
    """The evaluation baseline: no FDP, no prefetching."""
    return no_fdp(default_params())


def parse_workloads(raw: str, source: str) -> list[str]:
    """Workload names a ``quick`` / ``all`` / comma-separated value selects.

    Explicit names may be catalogue entries, registered trace sources
    (e.g. discovered through ``REPRO_TRACES``), or trace file paths
    (auto-registered under their canonical names).  Raises
    ``ValueError`` naming ``source`` (the variable or flag the value
    came from) for an unknown entry or an empty selection.
    """
    from repro.trace.source import resolve_workload

    raw = raw.strip()
    if raw == "all":
        return [w.name for w in default_workloads()]
    if raw == "quick":
        return list(QUICK_WORKLOADS)
    entries = [n.strip() for n in raw.split(",") if n.strip()]
    names = []
    unknown = []
    for entry in entries:
        try:
            names.append(resolve_workload(entry).name)
        except KeyError:
            unknown.append(entry)
    if unknown:
        raise ValueError(f"unknown workloads in {source}: {', '.join(unknown)}")
    if not names:
        raise ValueError(f"{source} selected no workloads")
    return names


def evaluation_workloads() -> list[str]:
    """Workload names selected by ``REPRO_WORKLOADS`` (default ``all``)."""
    return parse_workloads(os.environ.get("REPRO_WORKLOADS", "all"), "REPRO_WORKLOADS")
