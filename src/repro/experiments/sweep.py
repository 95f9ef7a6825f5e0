"""Sweep scheduler: sharded execution of declarative specs.

:func:`run_sweep` executes one shard (default ``1/1``) of a parsed
:class:`~repro.experiments.spec.SweepSpec`:

* the shard's points go through the ordinary cached runner
  (:func:`repro.experiments.runner.run_points`), so already-cached
  points resolve instantly: a killed sweep resumes by running it
  again, and shards on several machines share their work through one
  cache directory (``REPRO_CACHE_DIR``) on a shared filesystem;
* with ``REPRO_LEDGER`` set, every job is journalled through the run
  ledger with the spec name and ``shard``/``shard_total`` stamped
  into each event;
* as soon as every expansion point has a result, the figure-ready
  table (``table.csv`` / ``table.json`` / ``table.md``, rows sorted by
  point ID, no timestamps) is written by :func:`merge_sweep`: each
  point's result comes from the in-process memo, which holds the
  shard's own, or the disk cache, under its point ID, which is its
  cache key.  ``repro sweep spec.yaml --merge`` runs that lookup on
  its own.

The result cache is a sweep's only record, so a table holds exactly
the current expansion's points: an edited spec merges its own points,
and a point no shard has run yet is missing, never stale.  The
differential harness (:mod:`repro.check.sweepdiff`) checks the
guarantee this gives: serial, parallel, any shard partition and
killed-then-rerun executions of one spec produce bit-identical tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.log import get_logger
from repro.experiments.cache import CACHE_STATS
from repro.experiments.report import render_table
from repro.experiments.runner import cached_results, run_points
from repro.experiments.spec import (
    SWEEP_SPEC_VERSION,
    SweepPoint,
    SweepSpec,
    metric_value,
    shard_points,
)

log = get_logger("experiments.sweep")

MERGED_BASENAME = "table"
"""Stem of the merged output files (``table.csv`` etc.)."""


class SweepIncomplete(LookupError):
    """Some expansion points have no result yet; no table was written."""


def default_sweep_dir(spec: SweepSpec) -> Path:
    """Spec-declared output directory, else ``results/sweeps/<name>``."""
    if spec.out_dir:
        return Path(spec.out_dir)
    return Path(__file__).resolve().parents[3] / "results" / "sweeps" / spec.name


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` call did (CLI summary + test surface)."""

    spec: SweepSpec
    shard: tuple[int, int]
    points_total: int
    points_shard: int
    executed: int
    cache_hits: int
    rows: list[dict]
    merged_files: list[Path] = field(default_factory=list)


def _row(point: SweepPoint, result, metrics: tuple[str, ...]) -> dict:
    """One deterministic table row (point identity + axes + metrics)."""
    row = {
        "point": point.point_id,
        "workload": point.workload,
        "config": point.label,
    }
    for key, value in point.settings:
        row[key] = value
    for metric in metrics:
        row[metric] = metric_value(result, metric)
    return row


def _write_atomic(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    tmp.write_text(text)
    tmp.replace(path)
    return path


def run_sweep(
    spec: SweepSpec,
    points: list[SweepPoint],
    shard: tuple[int, int] = (1, 1),
    jobs: int | None = None,
    out_dir: Path | str | None = None,
) -> SweepOutcome:
    """Execute one shard of an expanded spec; see the module docstring.

    The table is written once every expansion point has a result, so
    the shard that completes the set writes it.  A shard of N > 1 reads
    its siblings' results from the in-process memo or the disk cache.
    """
    k, total = shard
    owned = shard_points(points, k, total)
    hits_before = CACHE_STATS.get("cache_memo_hit") + CACHE_STATS.get("cache_disk_hit")
    sims_before = CACHE_STATS.get("sim_runs")
    results = run_points(
        ((p.workload, p.params) for p in owned),
        jobs=jobs,
        ledger_context={"spec": spec.name, "shard": k, "shard_total": total},
    )
    cache_hits = (
        CACHE_STATS.get("cache_memo_hit") + CACHE_STATS.get("cache_disk_hit") - hits_before
    )
    outcome = SweepOutcome(
        spec=spec,
        shard=shard,
        points_total=len(points),
        points_shard=len(owned),
        executed=CACHE_STATS.get("sim_runs") - sims_before,
        cache_hits=cache_hits,
        rows=[_row(p, results[p.point_id], spec.metrics) for p in owned],
    )
    out_dir = Path(out_dir) if out_dir is not None else default_sweep_dir(spec)
    try:
        outcome.merged_files = merge_sweep(spec, points, out_dir)
    except SweepIncomplete as exc:
        log.info("shard %d/%d done, merge deferred: %s", k, total, exc)
    return outcome


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_sweep(spec: SweepSpec, points: list[SweepPoint], out_dir: Path | str) -> list[Path]:
    """Write the figure-ready table of every expansion point.

    Each point's result comes from the in-process memo, which holds
    every result this process resolved, or the disk cache, under its
    point ID (:func:`repro.experiments.runner.cached_results`, which
    never simulates and never journals).  When any point has none,
    raises :class:`SweepIncomplete` and writes nothing.  Outputs are
    deterministic (rows sorted by point ID, no timestamps): equal
    results always produce byte-identical ``table.csv`` /
    ``table.json`` / ``table.md``.
    """
    found = cached_results(p.point_id for p in points)
    missing = sum(1 for p in points if p.point_id not in found)
    if missing:
        raise SweepIncomplete(
            f"{missing} of {len(points)} point(s) of sweep {spec.name} have no "
            "cached result; run their shards first"
        )

    rows = sorted(
        (_row(p, found[p.point_id], spec.metrics) for p in points),
        key=lambda r: r["point"],
    )
    columns = ["point", "workload", "config", *spec.axes, *spec.metrics]
    payload = {
        "sweep_schema": SWEEP_SPEC_VERSION,
        "spec": spec.name,
        "spec_fingerprint": spec.fingerprint(),
        "points": len(rows),
        "columns": columns,
        "rows": rows,
    }
    out_dir = Path(out_dir)
    written = [
        _write_atomic(
            out_dir / f"{MERGED_BASENAME}.json",
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        ),
        _write_atomic(out_dir / f"{MERGED_BASENAME}.csv", _render_csv(columns, rows)),
        _write_atomic(
            out_dir / f"{MERGED_BASENAME}.md",
            render_table(
                f"Sweep {spec.name} ({len(rows)} points)",
                columns,
                [[row.get(c, "") for c in columns] for row in rows],
            )
            + "\n",
        ),
    ]
    log.info("wrote the %d-point table -> %s", len(rows), out_dir)
    return written


def _csv_cell(value) -> str:
    """Deterministic CSV cell: shortest round-trip repr for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"
