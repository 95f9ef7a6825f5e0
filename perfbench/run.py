"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fdp-sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (``wall_s``, ``setup_s``,
``sim_kips``, ``peak_rss_mib``); ``--trace 1`` makes a traced run and
reports the per-layer metrics instead.  A human-readable report comes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run works
in a fresh directory under ``.perfbench/`` and removes it at the end;
the full report and, for traced runs, the spans are kept beside it.
``--update-expected`` re-records ``expected.json`` for one workload at
the default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench  # noqa: E402
from perfbench.hostspeed import SpeedClock  # noqa: E402
from perfbench.tracer import ROOT_LAYERS, Tracer, install_layer_spans, self_times  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
"""Set-ups per run: the run's own plus fresh-process probes."""
PROBE_TIMEOUT_S = 150

LAYER_METRICS = {
    "setup.import": "setup.import_s",
    "setup.spec": "setup.spec_s",
    "trace.materialize": "trace.materialize_s",
    "trace.program_gen": "trace.program_gen_s",
    "trace.oracle": "trace.oracle_s",
    "trace.champsim": "trace.champsim_s",
    "build": "build.s",
    "warmup": "warmup.s",
    "kernel.typed": "kernel.typed_s",
    "kernel.interp": "kernel.interp_s",
    "batch": "kernel.interp_s",
    "simulate": "simulate.self_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "runner": "runner.self_s",
    "runner.key": "runner.key_s",
    "sweep.expand": "sweep.expand_s",
    "sweep.run": "sweep.self_s",
    "sweep.merge": "sweep.merge_s",
}
"""Span layer -> per-layer metric of its self time (seconds).  A lockstep
batch's self time is its interleaved stepping, so it counts as
interpreted-kernel time."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-expected", action="store_true")
    return parser.parse_args(argv)


def probe_setups(workload: str, seed: int, scratch: Path, samples: int) -> list[tuple[float, float]]:
    """(wall, reference) set-up seconds of fresh processes with cold caches."""
    times = []
    for i in range(samples):
        env = dict(os.environ, REPRO_CACHE_DIR=str(scratch / f"probe-{i}"))
        proc = subprocess.run(
            [sys.executable, str(bench.BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            env=env,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["wall_s"], probe["reference_s"]))
    return times


def measure(args: argparse.Namespace, scratch: Path, windows: tuple[int, int] | None = None) -> dict:
    """Set up, run passes for ``args.seconds``, check them; return the report.

    ``windows`` shrinks every point's instruction windows (smoke tests).
    """
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        workload = bench.setup(args.workload, args.seed, tracer=tracer, windows=windows)
        tracer.uninstall()
        setup_spans, setup_counts = len(tracer.spans), dict(tracer.counts)
        setups = [(workload.setup_s, workload.setup_s)]
    else:
        with SpeedClock() as clock:
            workload = bench.setup(args.workload, args.seed, windows=windows)
        setups = [(clock.wall_s, clock.reference_s)] + probe_setups(
            args.workload, args.seed, scratch, SETUP_SAMPLES - 1
        )

    # Traced runs alternate untraced and traced passes, so the tracer's
    # own cost is measured in the same process.
    passes: list[tuple[bench.PassResult, bool]] = []
    min_passes = 2 if tracer is not None else 1
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            install_layer_spans(tracer)
        try:
            result = bench.run_pass(
                workload, scratch / f"pass-{len(passes)}", tracer if traced else None
            )
        finally:
            if traced:
                tracer.uninstall()
        passes.append((result, traced))
        elapsed = time.perf_counter() - start
        mean_pass = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + mean_pass > args.seconds:
            break

    expected = bench.load_expected(args.workload) if args.seed == bench.DEFAULT_SEED else None
    reference = passes[0][0].outputs
    failures = {}
    for i, (result, _traced) in enumerate(passes):
        for point, reason in bench.check_pass(result, reference, expected).items():
            failures[f"pass {i}: {point}"] = reason
    attempted = sum(result.points for result, _ in passes)

    untraced = [result for result, traced in passes if not traced]
    wall = statistics.median(result.reference_s for result in untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": _backend(),
        "python": platform.python_version(),
        "checked_against_expected": expected is not None,
        "passes": len(passes),
        "points_per_pass": passes[0][0].points,
        "attempted": attempted,
        "failures": failures,
        "fail_frac": len(failures) / attempted,
        "wall_s": bench.summary([result.reference_s for result in untraced]),
        "raw_wall_s": bench.summary([result.wall_s for result in untraced]),
        "setup_s": bench.summary([reference for _, reference in setups]),
        "raw_setup_s": bench.summary([raw for raw, _ in setups]),
        "sim_kips": statistics.median(r.instructions for r in untraced) / wall / 1e3,
        "peak_rss_mib": bench.peak_rss_mib(),
    }
    if tracer is not None:
        report["layers"] = layer_metrics(
            tracer, setup_spans, setup_counts, workload.setup_s,
            [result.wall_s for result, traced in passes if traced],
            [result.wall_s for result in untraced],
        )
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return report


def layer_metrics(
    tracer: Tracer,
    setup_spans: int,
    setup_counts: dict,
    setup_s: float,
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Per-layer metrics: set-up once plus the mean of the traced passes."""
    n = len(traced_walls)
    selfs = self_times(tracer.spans, 0, setup_spans)
    for layer, seconds in self_times(tracer.spans, setup_spans).items():
        selfs[layer] = selfs.get(layer, 0.0) + seconds / n
    counts = {
        key: setup_counts.get(key, 0.0) + (value - setup_counts.get(key, 0.0)) / n
        for key, value in tracer.counts.items()
    }
    count = lambda key: counts.get(key, 0.0)  # noqa: E731
    out = dict.fromkeys(LAYER_METRICS.values(), 0.0)
    for layer, metric in LAYER_METRICS.items():
        out[metric] += selfs.get(layer, 0.0)
    out.update(
        {
            "trace.materializations": count("trace.materializations"),
            "build.sims": count("build.sims"),
            "kernel.typed_runs": count("kernel.typed_runs"),
            "kernel.typed_ns_per_cycle": _ratio(
                out["kernel.typed_s"] * 1e9, count("kernel.typed_cycles")
            ),
            "kernel.interp_runs": count("kernel.interp_runs"),
            "kernel.interp_ns_per_cycle": _ratio(
                out["kernel.interp_s"] * 1e9, count("kernel.interp_cycles")
            ),
            "batch.s": count("batch.s"),
            "batch.units": count("batch.units"),
            "batch.lanes_per_unit": _ratio(count("batch.lanes"), count("batch.units")),
            "cache.lookups": count("cache.lookups"),
            "cache.hit_ratio": _ratio(count("cache.hits"), count("cache.lookups")),
            "cache.bytes_written": count("cache.bytes_written"),
            "unattributed_s": sum(selfs.get(layer, 0.0) for layer in ROOT_LAYERS),
            "traced.setup_s": setup_s,
            "traced.wall_s": statistics.fmean(traced_walls),
            "tracing.overhead_s": statistics.fmean(traced_walls) - statistics.fmean(untraced_walls),
        }
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _backend() -> str:
    from repro.core.typed import backend_name

    return backend_name()


def end_to_end_metrics(report: dict) -> dict:
    return {
        "wall_s": {"value": report["wall_s"]["median"], "unit": "s"},
        "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
        "sim_kips": {"value": report["sim_kips"], "unit": "kinstr/s"},
        "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
    }


COUNT_UNITS = {
    "trace.materializations": "count",
    "build.sims": "count",
    "kernel.typed_runs": "count",
    "kernel.typed_ns_per_cycle": "ns/cycle",
    "kernel.interp_runs": "count",
    "kernel.interp_ns_per_cycle": "ns/cycle",
    "batch.s": "s",
    "batch.units": "count",
    "batch.lanes_per_unit": "count",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes_written": "B",
}
"""Per-layer metrics that are not self times, with their units."""

PER_LAYER_METRICS = (
    *dict.fromkeys(LAYER_METRICS.values()),
    *COUNT_UNITS,
    "unattributed_s",
    "traced.setup_s",
    "traced.wall_s",
    "tracing.overhead_s",
)
"""Every per-layer metric, in report order."""


def layer_unit(name: str) -> str:
    return COUNT_UNITS.get(name, "s")


def print_report(report: dict) -> None:
    checked = "checked" if report["checked_against_expected"] else "not checked (non-default seed)"
    print(
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"backend={report['backend']} python={report['python']} "
        f"expected-values={checked} passes={report['passes']} "
        f"points/pass={report['points_per_pass']}"
    )
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for name in ("wall_s", "raw_wall_s", "setup_s", "raw_setup_s"):
        s = report[name]
        print(f"{name:<28}{s['median']:>14.4f}{s['q1']:>14.4f}{s['q3']:>14.4f}{s['n']:>4}  s")
    print(f"{'sim_kips':<28}{report['sim_kips']:>14.2f}{'':>32}  kinstr/s")
    print(f"{'peak_rss_mib':<28}{report['peak_rss_mib']:>14.1f}{'':>32}  MiB")
    print(
        f"{'fail_frac':<28}{report['fail_frac']:>14.4f}{'':>32}  "
        f"ratio ({len(report['failures'])} of {report['attempted']} points)"
    )
    for point, reason in report["failures"].items():
        print(f"FAIL {point}: {reason}")
    layers = report.get("layers")
    if layers:
        print("per-layer (set-up once + mean traced pass; *_s are self times):")
        for name, value in layers.items():
            print(f"  {name:<26}{value:>14.4f}  {layer_unit(name)}")
        total = layers["traced.setup_s"] + layers["traced.wall_s"]
        covered = 1 - layers["unattributed_s"] / total
        print(f"  layer self-times cover {covered:.1%} of traced setup_s + wall_s")


def update_expected(name: str, scratch: Path) -> None:
    workload = bench.setup(name, bench.DEFAULT_SEED)
    result = bench.run_pass(workload, scratch / "pass")
    if result.errors:
        raise SystemExit(f"cannot record expected values: {result.errors}")
    data = json.loads(bench.EXPECTED_PATH.read_text()) if bench.EXPECTED_PATH.exists() else {}
    data[name] = {key: list(value) for key, value in sorted(result.outputs.items())}
    bench.EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(result.outputs)} points of {name} in {bench.EXPECTED_PATH}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        bench.isolate_env(scratch / "setup-cache")
        if args.update_expected:
            update_expected(args.workload, scratch)
            return 0
        report = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"report-{suffix}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    if args.trace:
        metrics = {
            name: {"value": report["layers"][name], "unit": layer_unit(name)}
            for name in PER_LAYER_METRICS
        }
    else:
        metrics = end_to_end_metrics(report)
    failed = len(report["failures"])
    line = {"correct": failed == 0, "attempted": report["attempted"], "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
