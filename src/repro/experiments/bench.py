"""Simulator throughput benchmark (``repro bench``).

Measures *simulated instructions per second of wall clock* -- the
number that bounds every sweep -- on the quick workload set, and writes
``BENCH_core.json`` so the performance trajectory of the pure-Python
cycle loop is tracked PR over PR.

Methodology:

* Trace generation happens outside the timed region (sweeps amortise
  it across dozens of configurations; the cycle loop is what we track).
* Each workload runs ``repeats`` times single-process with caching
  bypassed (a benchmark that reads the result cache would measure
  pickle, not simulation); the best repeat is reported to suppress
  scheduler noise.
* The headline number is the geometric mean of per-workload rates
  (schema 2; it weights every workload equally, where the total-over-
  total ratio lets one slow workload dominate), with the totals kept
  alongside.
* ``--batched`` benchmarks the lockstep batch path
  (:mod:`repro.core.batch`): ``batch_width`` identical instances per
  workload advance in lockstep, and the rate counts every instance's
  instructions -- the sweep-throughput number a batch-grouped
  ``repro sweep`` actually sees, directly comparable to the scalar
  rate.

Every run can append one line to ``BENCH_history.jsonl`` (platform-
stamped) so the perf trajectory lives in-repo; ``compare_bench`` gates
per-workload, not aggregate-only, so a regression on one workload
cannot hide behind gains elsewhere.
"""

from __future__ import annotations

import datetime
import json
import platform
import time
from pathlib import Path

from repro.common.params import SimParams
from repro.common.stats import geomean
from repro.core.batch import run_batch
from repro.core.simulator import Simulator
from repro.core.typed import kernel_backend_for_params
from repro.experiments.configs import QUICK_WORKLOADS, default_params
from repro.trace.workloads import make_trace

BENCH_SCHEMA_VERSION = 2
DEFAULT_OUTPUT = "BENCH_core.json"
HISTORY_FILE = "BENCH_history.jsonl"
DEFAULT_BENCH_BATCH_WIDTH = 4


def bench_workload(
    workload: str,
    params: SimParams,
    repeats: int = 1,
) -> dict:
    """Time one workload; returns its per-run metrics (best of repeats)."""
    n = params.warmup_instructions + params.sim_instructions
    program, stream = make_trace(workload, n)  # untimed: setup, not simulation
    best_wall = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        sim = Simulator(params, program, stream)
        t0 = time.perf_counter()
        run = sim.run(workload_name=workload)
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall = wall
            result = run
    return {
        "instructions": n,
        "measured_instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "wall_seconds": best_wall,
        "instructions_per_second": n / best_wall if best_wall > 0 else 0.0,
    }


def bench_workload_batched(
    workload: str,
    params: SimParams,
    repeats: int = 1,
    width: int = DEFAULT_BENCH_BATCH_WIDTH,
) -> dict:
    """Time one workload on the lockstep batch path (best of repeats).

    ``width`` identical instances advance in lockstep; the rate counts
    all ``width * n`` simulated instructions over the batch's wall
    time, which is what a batch-grouped sweep gets per worker.  The
    members are bit-identical runs, so ``cycles``/``ipc`` report the
    first instance (all agree; pinned by ``tests/test_batch.py``).
    """
    n = params.warmup_instructions + params.sim_instructions
    width = max(1, width)
    program, stream = make_trace(workload, n)  # untimed: setup, not simulation
    best_wall = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        sims = [Simulator(params, program, stream) for _ in range(width)]
        t0 = time.perf_counter()
        runs = run_batch(sims, [workload] * width)
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall = wall
            result = runs[0]
    total = n * width
    return {
        "instructions": total,
        "batch_width": width,
        "measured_instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "wall_seconds": best_wall,
        "instructions_per_second": total / best_wall if best_wall > 0 else 0.0,
    }


def run_bench(
    workloads: list[str] | None = None,
    params: SimParams | None = None,
    repeats: int = 1,
    fast_warmup: bool = False,
    batched: bool = False,
    batch_width: int = DEFAULT_BENCH_BATCH_WIDTH,
) -> dict:
    """Benchmark the cycle loop; returns the BENCH_core payload.

    ``fast_warmup`` switches the runs to functional fast-forward warmup
    (``repro bench --fast-warmup``); the reported rate still counts the
    warmup instructions -- they are simulated, just architecturally --
    so the speedup from skipping cycle-accurate warmup shows up in
    ``instructions_per_second`` directly.  ``batched`` benchmarks the
    lockstep batch path instead of one scalar instance per workload.
    The backend the runs take (``typed-compiled`` / ``typed-python`` /
    ``interp``) is recorded in the payload's config, so benchmark
    numbers from different backends are never mistaken for the same
    series (batched runs always drive the interpreted stepping
    kernels).
    """
    workloads = workloads or list(QUICK_WORKLOADS)
    params = params or default_params()
    if fast_warmup:
        params = params.replace(warmup_mode="functional")
    kernel_backend = "interp" if batched else kernel_backend_for_params(params)
    per_workload: dict[str, dict] = {}
    for wl in workloads:
        if batched:
            per_workload[wl] = bench_workload_batched(
                wl, params, repeats=repeats, width=batch_width
            )
        else:
            per_workload[wl] = bench_workload(wl, params, repeats=repeats)
    total_instrs = sum(w["instructions"] for w in per_workload.values())
    total_wall = sum(w["wall_seconds"] for w in per_workload.values())
    rates = [w["instructions_per_second"] for w in per_workload.values()]
    config = {
        "warmup_instructions": params.warmup_instructions,
        "sim_instructions": params.sim_instructions,
        "warmup_mode": params.warmup_mode,
        "kernel_backend": kernel_backend,
        "label": params.label(),
        "repeats": repeats,
        "workloads": workloads,
        "mode": "batched" if batched else "scalar",
    }
    if batched:
        config["batch_width"] = max(1, batch_width)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "config": config,
        "workloads": per_workload,
        "aggregate": {
            "total_instructions": total_instrs,
            "total_wall_seconds": total_wall,
            "instructions_per_second": total_instrs / total_wall if total_wall > 0 else 0.0,
            "geomean_instructions_per_second": geomean(rates) if all(r > 0 for r in rates) else 0.0,
        },
    }


def write_bench(payload: dict, output: str | Path = DEFAULT_OUTPUT) -> Path:
    """Write the benchmark payload as pretty-printed JSON."""
    path = Path(output)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def append_history(payload: dict, path: str | Path = HISTORY_FILE) -> Path:
    """Append one platform-stamped line for ``payload`` to the history
    trail (``BENCH_history.jsonl``).

    Each line is a compact, self-contained record -- UTC timestamp,
    schema, platform, bench mode/config label, aggregate rates and
    per-workload rates -- so the perf trajectory is tracked in-repo
    instead of only in PR descriptions.  Lines only append; the file is
    human-diffable and trivially parsed with one ``json.loads`` per
    line.
    """
    path = Path(path)
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "schema": payload.get("schema"),
        "platform": payload.get("platform", {}),
        "mode": payload.get("config", {}).get("mode", "scalar"),
        "kernel_backend": payload.get("config", {}).get("kernel_backend", "interp"),
        "config": {
            k: payload.get("config", {}).get(k)
            for k in (
                "label",
                "warmup_instructions",
                "sim_instructions",
                "warmup_mode",
                "kernel_backend",
                "repeats",
                "batch_width",
            )
            if k in payload.get("config", {})
        },
        "aggregate": payload.get("aggregate", {}),
        "workloads": {
            name: row.get("instructions_per_second")
            for name, row in payload.get("workloads", {}).items()
        },
    }
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Trend reporting over BENCH_history.jsonl
# ----------------------------------------------------------------------
def load_history(path: str | Path = HISTORY_FILE) -> list[dict]:
    """Parse ``BENCH_history.jsonl``; malformed lines are skipped.

    Returns records in file (chronological) order.
    """
    path = Path(path)
    if not path.is_file():
        return []
    records: list[dict] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "aggregate" in record:
            records.append(record)
    return records


def machine_key(record: dict) -> str:
    """Grouping key for trend rows: machine + python + mode + backend.

    Rates are only comparable within one machine, bench mode *and*
    cycle-kernel backend; the history file may interleave entries from
    several (laptops, CI runners, typed and interpreted runs), so the
    trend table groups by this key.  Records predating the backend
    field were all interpreted runs.
    """
    plat = record.get("platform", {})
    return (
        f"{plat.get('machine', '?')}/{plat.get('implementation', '?')}"
        f"-{plat.get('python', '?')}/{record.get('mode', 'scalar')}"
        f"/{record.get('kernel_backend', 'interp')}"
    )


def _record_headline(record: dict) -> float | None:
    agg = record.get("aggregate", {})
    return (
        agg.get("geomean_instructions_per_second")
        or agg.get("instructions_per_second")
        or None
    )


def trend_report(records: list[dict], last: int = 10) -> dict:
    """Per-machine regression trend over the history trail.

    For each machine/mode group: the last ``last`` entries with their
    headline (geomean) rate and the relative delta versus the previous
    entry, plus per-workload deltas of the newest entry versus the
    oldest entry in the window (the "what drifted over this window"
    view ``repro bench --trend`` prints).
    """
    groups: dict[str, list[dict]] = {}
    for record in records:
        groups.setdefault(machine_key(record), []).append(record)
    out: dict[str, dict] = {}
    for key, entries in groups.items():
        window = entries[-max(1, last):]
        rows = []
        prev_rate = None
        for record in window:
            rate = _record_headline(record)
            delta = (
                (rate - prev_rate) / prev_rate
                if rate is not None and prev_rate
                else None
            )
            rows.append(
                {
                    "timestamp": record.get("timestamp"),
                    "geomean_instructions_per_second": rate,
                    "delta_vs_prev": delta,
                }
            )
            if rate is not None:
                prev_rate = rate
        first, latest = window[0], window[-1]
        per_workload: dict[str, float | None] = {}
        first_rates = first.get("workloads", {}) or {}
        latest_rates = latest.get("workloads", {}) or {}
        for name in sorted(set(first_rates) | set(latest_rates)):
            a, b = first_rates.get(name), latest_rates.get(name)
            per_workload[name] = (b - a) / a if a and b else None
        first_rate = _record_headline(first)
        latest_rate = _record_headline(latest)
        out[key] = {
            "entries": len(entries),
            "window": len(window),
            "rows": rows,
            "workload_delta_window": per_workload,
            "geomean_delta_window": (
                (latest_rate - first_rate) / first_rate
                if first_rate and latest_rate
                else None
            ),
        }
    return out


REGRESSION_THRESHOLD = 0.20
"""Per-workload slowdown beyond this fraction fails ``bench --baseline``."""


def payload_kernel_backend(payload: dict) -> str:
    """The cycle-kernel backend a BENCH payload's rates came from.

    Payloads predating the field (schema <= 2 without ``kernel_backend``)
    were all produced by the interpreted kernel.
    """
    return payload.get("config", {}).get("kernel_backend", "interp")


def _headline_rate(payload: dict) -> float:
    """The payload's headline aggregate rate (geomean, schema 2).

    Falls back to the total-over-total rate for schema-1 baselines that
    predate the geomean field.
    """
    agg = payload.get("aggregate", {})
    return (
        agg.get("geomean_instructions_per_second")
        or agg.get("instructions_per_second")
        or 0.0
    )


def compare_bench(
    current: dict,
    baseline: dict,
    threshold: float = REGRESSION_THRESHOLD,
) -> dict:
    """Compare two BENCH_core payloads (``repro bench --baseline``).

    Returns per-workload and aggregate relative deltas
    (``+0.10`` = 10% faster than baseline).  The regression gate is
    **per-workload**: ``regressed_workloads`` names every workload whose
    rate dropped by more than ``threshold``, and ``regressed`` is set
    when any did -- an aggregate-only gate would let a 25% regression on
    one workload hide behind gains elsewhere.  The aggregate delta
    compares headline (geomean) rates.  Workloads present in only one
    payload are listed but not compared.  Comparisons are only
    meaningful between runs on the same machine with the same windows
    and mode; the caller is trusted on that.

    Cross-backend comparisons are flagged, never silent: when the two
    payloads' cycle-kernel backends differ (``typed-compiled`` /
    ``typed-python`` / ``interp``; see :func:`payload_kernel_backend`)
    the deltas measure the backend change, not a code regression, so
    ``backend_mismatch`` is set and the regression gate stands down
    (``regressed`` stays False) -- the caller reports the mismatch
    loudly instead of failing or passing on a meaningless ratio.
    """

    def _rate(payload: dict, workload: str) -> float | None:
        row = payload.get("workloads", {}).get(workload)
        return row.get("instructions_per_second") if row else None

    deltas: dict[str, float | None] = {}
    names = sorted(
        set(current.get("workloads", {})) | set(baseline.get("workloads", {}))
    )
    for name in names:
        cur, base = _rate(current, name), _rate(baseline, name)
        deltas[name] = (cur - base) / base if cur and base else None

    cur_backend = payload_kernel_backend(current)
    base_backend = payload_kernel_backend(baseline)
    backend_mismatch = cur_backend != base_backend
    regressed_workloads = sorted(
        name for name, d in deltas.items() if d is not None and d < -threshold
    )
    cur_agg = _headline_rate(current)
    base_agg = _headline_rate(baseline)
    agg_delta = (cur_agg - base_agg) / base_agg if cur_agg and base_agg else None
    return {
        "workloads": deltas,
        "aggregate": agg_delta,
        "threshold": threshold,
        "kernel_backend": {"current": cur_backend, "baseline": base_backend},
        "backend_mismatch": backend_mismatch,
        "regressed_workloads": regressed_workloads,
        "regressed": bool(regressed_workloads) and not backend_mismatch,
    }
