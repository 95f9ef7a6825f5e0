"""Sweep scheduler: sharded, resumable execution of declarative specs.

:func:`run_sweep` executes one shard (default ``1/1``) of a parsed
:class:`~repro.experiments.spec.SweepSpec`:

* the expansion's shard subset goes through the ordinary cached runner
  (:func:`repro.experiments.runner.run_points`), so already-cached
  points resolve instantly -- **resumability and multi-machine
  distribution fall out of the content-addressed cache**: point a
  shared directory (``REPRO_CACHE_DIR``) at any shared filesystem and
  every shard/machine/retry skips everything any other already did;
* with ``REPRO_LEDGER`` set, every job is journalled through the run
  ledger with the sweep name and ``shard``/``shard_total`` stamped
  into each event;
* the shard's rows are written to a deterministic per-shard manifest
  (``shard-<k>-of-<N>.json``; no timestamps, so equal results mean
  equal bytes);
* when every sibling shard manifest exists, the shard outputs are
  merged into the figure-ready table (``table.csv`` / ``table.json`` /
  ``table.md``), rows sorted by point ID.  :func:`merge_sweep` can also
  be invoked on its own (``repro sweep spec.yaml --merge``).

Merging refuses to produce a table from inconsistent inputs: shard
manifests must agree on the spec fingerprint and shard total, cover
every expansion point exactly once, and contain no stranger points.
The differential harness (:mod:`repro.check.sweepdiff`) is built on the
guarantee this enforces: serial, parallel, any shard partition, and
interrupted-then-resumed executions of one spec produce bit-identical
merged tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.log import get_logger
from repro.experiments.cache import CACHE_STATS, ResultCache, cache_enabled
from repro.experiments.report import render_table
from repro.experiments.runner import run_points
from repro.experiments.spec import (
    SWEEP_SPEC_VERSION,
    SweepPoint,
    SweepSpec,
    SweepSpecError,
    metric_value,
    shard_points,
)

log = get_logger("experiments.sweep")

MERGED_BASENAME = "table"
"""Stem of the merged output files (``table.csv`` etc.)."""


def default_sweep_dir(spec: SweepSpec) -> Path:
    """Spec-declared output directory, else ``results/sweeps/<name>``."""
    if spec.out_dir:
        return Path(spec.out_dir)
    return Path(__file__).resolve().parents[3] / "results" / "sweeps" / spec.name


def shard_path(out_dir: Path, shard: int, total: int) -> Path:
    return Path(out_dir) / f"shard-{shard}-of-{total}.json"


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
    shard_file: Path | None
    merged_files: list[Path] = field(default_factory=list)
    interrupted: bool = False


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
    resume: bool = False,
    limit: int | None = None,
    merge: bool = True,
) -> SweepOutcome:
    """Execute one shard of an expanded spec; see the module docstring.

    ``limit`` truncates the shard to its first N points and suppresses
    the shard manifest -- a deterministic stand-in for a sweep killed
    mid-flight (results of completed points are already in the cache;
    nothing else is recorded), which the resume tests and the
    differential harness use as their interruption injection.
    """
    k, total = shard
    owned = shard_points(points, k, total)
    selected = owned if limit is None else owned[: max(0, limit)]
    interrupted = limit is not None and len(selected) < len(owned)

    if resume and cache_enabled():
        disk = ResultCache()
        already = sum(1 for p in selected if disk.contains(p.point_id))
        log.info(
            "resume: %d of %d shard point(s) already in the result cache",
            already,
            len(selected),
        )

    hits_before = CACHE_STATS.get("cache_memo_hit") + CACHE_STATS.get("cache_disk_hit")
    sims_before = CACHE_STATS.get("sim_runs")
    results = run_points(
        ((p.workload, p.params) for p in selected),
        jobs=jobs,
        ledger_context={
            "spec": spec.name,
            "shard": k,
            "shard_total": total,
            "resumed": bool(resume),
        },
    )
    cache_hits = (
        CACHE_STATS.get("cache_memo_hit") + CACHE_STATS.get("cache_disk_hit") - hits_before
    )
    executed = CACHE_STATS.get("sim_runs") - sims_before

    rows = [_row(p, results[p.point_id], spec.metrics) for p in selected]
    outcome = SweepOutcome(
        spec=spec,
        shard=shard,
        points_total=len(points),
        points_shard=len(owned),
        executed=executed,
        cache_hits=cache_hits,
        rows=rows,
        shard_file=None,
        interrupted=interrupted,
    )
    if interrupted:
        # A requested stop, not a fault: `repro sweep --limit` says so
        # on stdout and exits 1, and the equivalence harness stops here
        # on purpose.
        log.info(
            "sweep interrupted after %d of %d point(s); no shard manifest written "
            "(re-run with --resume to finish from the cache)",
            len(selected),
            len(owned),
        )
        return outcome

    out_dir = Path(out_dir) if out_dir is not None else default_sweep_dir(spec)
    manifest = {
        "sweep_schema": SWEEP_SPEC_VERSION,
        "spec": spec.name,
        "spec_fingerprint": spec.fingerprint(),
        "shard": k,
        "shard_total": total,
        "points": [p.point_id for p in selected],
        "rows": rows,
    }
    outcome.shard_file = _write_atomic(
        shard_path(out_dir, k, total),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    if merge:
        siblings = [shard_path(out_dir, i, total) for i in range(1, total + 1)]
        if all(p.is_file() for p in siblings):
            outcome.merged_files = merge_sweep(spec, points, out_dir)
        else:
            missing = sum(1 for p in siblings if not p.is_file())
            log.info(
                "shard %d/%d done; %d sibling shard(s) still missing, merge deferred",
                k,
                total,
                missing,
            )
    return outcome


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _load_shards(spec: SweepSpec, out_dir: Path) -> list[dict]:
    manifests = []
    for path in sorted(Path(out_dir).glob("shard-*-of-*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SweepSpecError(f"unreadable shard manifest {path}: {exc}") from exc
        if not isinstance(payload, dict) or "rows" not in payload:
            raise SweepSpecError(f"{path} is not a shard manifest")
        payload["_path"] = str(path)
        manifests.append(payload)
    if not manifests:
        raise SweepSpecError(f"no shard manifests under {out_dir}")
    fingerprints = {m.get("spec_fingerprint") for m in manifests}
    if len(fingerprints) != 1 or fingerprints != {spec.fingerprint()}:
        raise SweepSpecError(
            "shard manifests disagree with the spec (stale outputs from an "
            "edited spec?); delete the output directory and re-run"
        )
    totals = {m.get("shard_total") for m in manifests}
    if len(totals) != 1:
        raise SweepSpecError(
            f"mixed shard totals {sorted(totals)} under {out_dir}; "
            "clean out stale shard files before merging"
        )
    total = manifests[0]["shard_total"]
    expected_shards = set(range(1, total + 1))
    got = {m.get("shard") for m in manifests}
    if got != expected_shards:
        missing = sorted(expected_shards - got)
        raise SweepSpecError(
            f"incomplete shard set for N={total}: missing shard(s) "
            f"{', '.join(map(str, missing))}"
        )
    return manifests


def merge_sweep(
    spec: SweepSpec, points: list[SweepPoint], out_dir: Path | str
) -> list[Path]:
    """Join per-shard manifests into the merged, figure-ready table.

    Validates full coverage before writing anything: the union of shard
    point sets must equal the expansion exactly -- no point missing, no
    point twice, no stranger points -- and every shard must carry the
    same spec fingerprint and shard total.  Outputs are deterministic
    (rows sorted by point ID, no timestamps): equal results always
    produce byte-identical ``table.csv`` / ``table.json`` / ``table.md``.
    """
    out_dir = Path(out_dir)
    manifests = _load_shards(spec, out_dir)

    expected = {p.point_id for p in points}
    seen: dict[str, str] = {}
    rows: list[dict] = []
    for manifest in manifests:
        for row in manifest["rows"]:
            pid = row["point"]
            if pid in seen:
                raise SweepSpecError(
                    f"point {pid[:16]} appears in both {seen[pid]} and "
                    f"{manifest['_path']} -- shards must be disjoint"
                )
            seen[pid] = manifest["_path"]
            rows.append(row)
    strangers = set(seen) - expected
    if strangers:
        raise SweepSpecError(
            f"{len(strangers)} point(s) in shard manifests are not part of "
            "this spec's expansion; stale outputs from an edited spec?"
        )
    missing = expected - set(seen)
    if missing:
        raise SweepSpecError(
            f"{len(missing)} expansion point(s) missing from shard manifests "
            "(incomplete shard run?)"
        )

    rows.sort(key=lambda r: r["point"])
    columns = ["point", "workload", "config", *spec.axes, *spec.metrics]
    payload = {
        "sweep_schema": SWEEP_SPEC_VERSION,
        "spec": spec.name,
        "spec_fingerprint": spec.fingerprint(),
        "points": len(rows),
        "columns": columns,
        "rows": rows,
    }
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
    log.info("merged %d shard(s) -> %s", len(manifests), written[0].parent)
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
