"""Sweep-level run ledger: JSONL job-lifecycle events plus summaries.

A sweep (:func:`repro.experiments.runner.run_points`) is a black box
without this module: N jobs fan out across a process pool and nothing
records which ran where, which came from the cache, or why the sweep
was slow.  The ledger fixes that with one append-only JSONL file per
sweep under ``results/ledger/<sweep-id>.jsonl``:

* every deduplicated (workload, params) point emits ``queued``;
* points resolved from the in-process memo or the disk cache emit a
  terminal ``cache_hit`` (``source`` names which);
* the remainder emit ``started`` -> ``finished`` (or ``failed``), with
  the worker pid, the work-unit id (one unit simulates one point),
  wall seconds and simulated instructions per second;
* ``sweep_begin`` / ``sweep_end`` bracket the run with the pool
  configuration and the reconciled totals.

Workers never touch the file: they return timing metadata with their
results and the *parent* process writes every event (a single writer,
no interleaving or locking).  The ledger only observes -- results of a
ledgered sweep are bit-identical to a plain one -- and is enabled by
``REPRO_LEDGER`` (``1`` for the default directory, or a directory
path).  ``repro sweep-report`` renders the progress view and the
post-hoc markdown/JSON summary from the file; see
``docs/OBSERVABILITY.md`` for the event schema.
"""

from __future__ import annotations

import datetime
import json
import os
import time
from pathlib import Path

LEDGER_SCHEMA_VERSION = 1
"""Bump when the event shapes below change incompatibly."""

ENV_LEDGER = "REPRO_LEDGER"
"""``1``/``true`` enables the ledger in the default directory; any
other non-empty value is used as the ledger directory path; ``0`` /
unset disables."""

#: Event names a job may carry, in lifecycle order.
JOB_EVENTS = ("queued", "cache_hit", "started", "finished", "failed")

#: Terminal events: exactly one per queued job in a complete ledger.
TERMINAL_EVENTS = ("cache_hit", "finished", "failed")

#: Fields that legitimately differ between a serial and a parallel run
#: of the same sweep (timing, process identity, interleaving).
TIMING_FIELDS = ("ts", "pid", "wall_seconds", "instrs_per_sec", "unit")


def ledger_enabled() -> bool:
    """Whether sweeps should write a run ledger (``REPRO_LEDGER``)."""
    raw = os.environ.get(ENV_LEDGER, "").strip()
    return bool(raw) and raw.lower() not in ("0", "off", "no", "false")


def default_ledger_dir() -> Path:
    """``REPRO_LEDGER`` as a path when it names one, else ``results/ledger``."""
    raw = os.environ.get(ENV_LEDGER, "").strip()
    if raw and raw.lower() not in ("0", "1", "off", "no", "false", "true", "yes", "on"):
        return Path(raw)
    return Path(__file__).resolve().parents[3] / "results" / "ledger"


_SWEEP_SEQ = 0


def new_sweep_id(clock=time.time) -> str:
    """A sortable, collision-safe sweep id (UTC timestamp + pid + seq).

    The per-process sequence number keeps two sweeps started within the
    same second (e.g. back-to-back figure scripts) in separate files.
    """
    global _SWEEP_SEQ
    _SWEEP_SEQ += 1
    stamp = datetime.datetime.fromtimestamp(clock(), tz=datetime.timezone.utc)
    return f"{stamp.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-{_SWEEP_SEQ:04d}"


class SweepLedger:
    """Single-writer JSONL event log for one sweep.

    All ``emit``-family methods append one self-contained JSON object
    per line and flush immediately, so a concurrently running
    ``repro sweep-report --follow`` always sees complete lines.  File
    I/O is best-effort: a full or read-only disk silences the ledger
    rather than failing the sweep.
    """

    def __init__(
        self,
        path: Path | str | None = None,
        sweep_id: str | None = None,
        clock=time.time,
        context: dict | None = None,
    ) -> None:
        self.sweep_id = sweep_id or new_sweep_id(clock)
        self.clock = clock
        #: Caller-supplied fields stamped into every event (the sweep
        #: scheduler passes the spec name and shard k/N here, so a
        #: multi-shard sweep's ledgers can be reconciled file by file).
        self.context = dict(context or {})
        self.path = Path(path) if path is not None else (
            default_ledger_dir() / f"{self.sweep_id}.jsonl"
        )
        self._fh = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
        except OSError:
            self._fh = None

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def emit(self, event: str, **fields) -> None:
        """Append one event line (``schema``/``sweep``/``event``/``ts`` + fields)."""
        if self._fh is None:
            return
        record = {
            "schema": LEDGER_SCHEMA_VERSION,
            "sweep": self.sweep_id,
            "event": event,
            "ts": fields.pop("ts", None) or self.clock(),
        }
        record.update(self.context)
        record.update(fields)
        try:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        except OSError:
            self._fh = None

    def begin(self, jobs: int) -> None:
        """Open the sweep: pool configuration snapshot."""
        self.emit("sweep_begin", jobs=jobs)

    def queued(self, key: str, workload: str, label: str) -> None:
        """A deduplicated point entered the sweep."""
        self.emit("queued", key=key, workload=workload, label=label)

    def cache_hit(self, key: str, workload: str, label: str, source: str) -> None:
        """Terminal: the point was resolved from the ``memo`` or ``disk`` cache."""
        self.emit("cache_hit", key=key, workload=workload, label=label, source=source)

    def started(self, key: str, workload: str, unit: str, pid: int, ts: float) -> None:
        """A worker began simulating the point (``ts`` is the worker's clock)."""
        self.emit("started", key=key, workload=workload, unit=unit, pid=pid, ts=ts)

    def finished(
        self,
        key: str,
        workload: str,
        label: str,
        unit: str,
        pid: int,
        wall_seconds: float,
        instructions: int,
        instrs_per_sec: float,
        ipc: float,
    ) -> None:
        """Terminal: the point simulated successfully."""
        self.emit(
            "finished",
            key=key,
            workload=workload,
            label=label,
            unit=unit,
            pid=pid,
            wall_seconds=wall_seconds,
            instructions=instructions,
            instrs_per_sec=instrs_per_sec,
            ipc=ipc,
        )

    def failed(self, key: str, workload: str, label: str, unit: str, error: str) -> None:
        """Terminal: the point's work unit raised."""
        self.emit("failed", key=key, workload=workload, label=label, unit=unit, error=error)

    def end(self, **totals) -> None:
        """Close the sweep with its reconciled totals, then close the file."""
        self.emit("sweep_end", **totals)
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None


def open_ledger(context: dict | None = None) -> SweepLedger | None:
    """Environment-gated ledger factory the sweep runner calls.

    Returns ``None`` when ``REPRO_LEDGER`` is off so the runner's fast
    path stays branch-only.  ``context`` fields (e.g. the sweep
    scheduler's spec name and shard k/N) are stamped into every event.
    """
    if not ledger_enabled():
        return None
    return SweepLedger(context=context)


# ----------------------------------------------------------------------
# Reading and summarising
# ----------------------------------------------------------------------
def read_ledger(path: Path | str) -> list[dict]:
    """Parse a ledger JSONL file; malformed lines are skipped.

    Skipping (rather than raising) lets ``--follow`` read a file whose
    final line is still being written.
    """
    events: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "event" in record:
                events.append(record)
    return events


def job_sequences(events: list[dict]) -> dict[str, list[str]]:
    """Per-job event-name sequences, keyed by run key, in file order."""
    sequences: dict[str, list[str]] = {}
    for record in events:
        key = record.get("key")
        if key is None:
            continue
        sequences.setdefault(key, []).append(record["event"])
    return sequences


_VALID_SEQUENCES = (
    ["queued", "cache_hit"],
    ["queued", "started", "finished"],
    ["queued", "started", "failed"],
    ["queued", "failed"],  # the unit raised before worker meta came back
    ["queued"],  # still pending (live sweep)
    ["queued", "started"],  # running (live sweep)
)


def invalid_sequences(events: list[dict]) -> dict[str, list[str]]:
    """Jobs whose lifecycle violates queued -> cache_hit | started -> end."""
    return {
        key: seq
        for key, seq in job_sequences(events).items()
        if seq not in _VALID_SEQUENCES
    }


def summarize_ledger(events: list[dict], top: int = 10) -> dict:
    """Aggregate one sweep's events into the sweep-report payload.

    The payload reconciles exactly: ``queued == finished + failed +
    cache_hits`` on a complete ledger (``reconciled`` flags it), and
    carries the slowest work units, the cache-hit rate, per-worker
    utilization and the aggregate simulation throughput.
    """
    counts = {name: 0 for name in JOB_EVENTS}
    hit_sources = {"memo": 0, "disk": 0}
    begin_ts = end_ts = None
    begin_cfg: dict = {}
    finished: list[dict] = []
    workers: dict[int, dict] = {}
    sweep_id = None
    for record in events:
        event = record["event"]
        sweep_id = record.get("sweep", sweep_id)
        if event == "sweep_begin":
            begin_ts = record["ts"]
            begin_cfg = {"jobs": record.get("jobs")}
        elif event == "sweep_end":
            end_ts = record["ts"]
        if event not in counts:
            continue
        counts[event] += 1
        if event == "cache_hit":
            source = record.get("source", "disk")
            hit_sources[source] = hit_sources.get(source, 0) + 1
        elif event == "finished":
            # A work unit simulates one point: one finished event each.
            finished.append(record)
            pid = record.get("pid")
            if pid is not None:
                worker = workers.setdefault(pid, {"units": 0, "busy_seconds": 0.0})
                worker["units"] += 1
                worker["busy_seconds"] += record.get("wall_seconds", 0.0)

    queued = counts["queued"]
    terminal = counts["finished"] + counts["failed"] + counts["cache_hit"]
    duration = (end_ts - begin_ts) if (begin_ts is not None and end_ts is not None) else None
    slowest = sorted(finished, key=lambda r: -r.get("wall_seconds", 0.0))[: max(0, top)]
    total_busy = sum(r.get("wall_seconds", 0.0) for r in finished)
    total_instr_rate = 0.0
    if total_busy > 0:
        total_instr = sum(
            r.get("instrs_per_sec", 0.0) * r.get("wall_seconds", 0.0) for r in finished
        )
        total_instr_rate = total_instr / total_busy
    worker_rows = []
    for pid, worker in sorted(workers.items()):
        row = {"pid": pid, **worker}
        if duration:
            row["utilization"] = min(1.0, worker["busy_seconds"] / duration)
        worker_rows.append(row)
    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "sweep": sweep_id,
        "config": begin_cfg,
        "complete": end_ts is not None,
        "duration_seconds": duration,
        "totals": {
            "queued": queued,
            "cache_hits": counts["cache_hit"],
            "started": counts["started"],
            "finished": counts["finished"],
            "failed": counts["failed"],
        },
        "reconciled": queued == terminal,
        "cache_hit_rate": (counts["cache_hit"] / queued) if queued else 0.0,
        "cache_hit_sources": hit_sources,
        "busy_seconds": total_busy,
        "instrs_per_sec": total_instr_rate,
        "slowest_units": [
            {
                "workload": r.get("workload", ""),
                "label": r.get("label", ""),
                "pid": r.get("pid"),
                "wall_seconds": r.get("wall_seconds", 0.0),
                "instrs_per_sec": r.get("instrs_per_sec", 0.0),
            }
            for r in slowest
        ],
        "workers": worker_rows,
        "invalid_sequences": {k: v for k, v in invalid_sequences(events).items()},
    }


def render_progress(summary: dict) -> str:
    """One-screen live progress view (``repro sweep-report`` default)."""
    totals = summary["totals"]
    queued = totals["queued"]
    done = totals["finished"] + totals["failed"] + totals["cache_hits"]
    frac = done / queued if queued else 0.0
    bar_width = 40
    filled = int(round(bar_width * frac))
    bar = "#" * filled + "." * (bar_width - filled)
    state = "complete" if summary["complete"] else "running"
    lines = [
        f"sweep {summary.get('sweep') or '?'} [{state}]",
        f"[{bar}] {done}/{queued} jobs ({100.0 * frac:.0f}%)",
        f"  finished={totals['finished']} cache_hits={totals['cache_hits']} "
        f"failed={totals['failed']} "
        f"hit_rate={100.0 * summary['cache_hit_rate']:.0f}%",
    ]
    if summary["instrs_per_sec"]:
        lines.append(f"  throughput {summary['instrs_per_sec']:,.0f} instrs/sec across workers")
    if summary["duration_seconds"] is not None:
        lines.append(f"  wall {summary['duration_seconds']:.2f}s")
    return "\n".join(lines)


def render_summary_md(summary: dict) -> str:
    """Post-hoc markdown sweep report (``repro sweep-report --format md``)."""
    totals = summary["totals"]
    lines = [
        f"# Sweep report: {summary.get('sweep') or '?'}",
        "",
        f"- status: {'complete' if summary['complete'] else 'running'}"
        + ("" if summary["reconciled"] else " (totals do NOT reconcile)"),
        f"- jobs queued: {totals['queued']}",
        f"- finished: {totals['finished']}, failed: {totals['failed']}, "
        f"cache hits: {totals['cache_hits']} "
        f"(memo {summary['cache_hit_sources'].get('memo', 0)}, "
        f"disk {summary['cache_hit_sources'].get('disk', 0)})",
        f"- cache hit rate: {100.0 * summary['cache_hit_rate']:.1f}%",
    ]
    if summary["duration_seconds"] is not None:
        lines.append(f"- sweep wall time: {summary['duration_seconds']:.2f}s")
    if summary["busy_seconds"]:
        lines.append(f"- worker busy time: {summary['busy_seconds']:.2f}s")
    if summary["instrs_per_sec"]:
        lines.append(f"- aggregate throughput: {summary['instrs_per_sec']:,.0f} instrs/sec")
    cfg = summary.get("config") or {}
    if any(v is not None for v in cfg.values()):
        lines.append(f"- pool: jobs={cfg.get('jobs')}")
    if summary["slowest_units"]:
        lines += [
            "",
            "## Slowest work units",
            "",
            "| workload | config | pid | wall (s) | instrs/sec |",
            "| --- | --- | --- | --- | --- |",
        ]
        for unit in summary["slowest_units"]:
            lines.append(
                f"| {unit['workload']} | {unit['label']} | {unit['pid']} "
                f"| {unit['wall_seconds']:.3f} | {unit['instrs_per_sec']:,.0f} |"
            )
    if summary["workers"]:
        lines += [
            "",
            "## Per-worker utilization",
            "",
            "| pid | units | busy (s) | utilization |",
            "| --- | --- | --- | --- |",
        ]
        for row in summary["workers"]:
            util = f"{100.0 * row['utilization']:.0f}%" if "utilization" in row else "n/a"
            lines.append(
                f"| {row['pid']} | {row['units']} | {row['busy_seconds']:.3f} | {util} |"
            )
    if summary["invalid_sequences"]:
        lines += ["", "## Invalid job lifecycles", ""]
        for key, seq in sorted(summary["invalid_sequences"].items()):
            lines.append(f"- `{key[:16]}`: {' -> '.join(seq)}")
    return "\n".join(lines) + "\n"


def latest_ledger(directory: Path | str | None = None) -> Path | None:
    """The most recent ledger file in ``directory`` (default dir), if any."""
    directory = Path(directory) if directory is not None else default_ledger_dir()
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob("*.jsonl"))
    return candidates[-1] if candidates else None
