"""Command-line interface.

Eleven subcommands::

    python -m repro run   --workload srv_web --ftq 24 --btb 8192 ...
    python -m repro list                  # workloads, prefetchers, predictors, experiments
    python -m repro workload info NAME    # one workload: footprint, branch mix, provenance
    python -m repro report fig7 fig14     # regenerate + archive paper experiments
    python -m repro trace --workload ...  # telemetry run -> JSONL + report
    python -m repro profile --workload .. # per-stage self-time profile
    python -m repro check [--fuzz N]      # correctness harness (docs/TESTING.md)
    python -m repro kernel                # which cycle-kernel backend runs here
    python -m repro cache info|clear      # persistent result cache
    python -m repro sweep spec.yaml       # declarative sweep (--shard k/N, --merge)
    python -m repro sweep-report [LEDGER] # sweep progress/summary from a run ledger

``run`` simulates one (workload, configuration) pair and prints the
metric summary; every microarchitectural knob the evaluation sweeps is
exposed as a flag (``--stats-json`` dumps the full raw counter set).
``trace`` re-runs one point with the observability layer on and writes
the event/time-series JSONL plus a markdown/JSON report; ``profile``
re-runs one point with the stage profiler and prints where
the cycle loop's wall time goes (see docs/OBSERVABILITY.md).
``report`` prints each experiment's table and archives the same text
under ``results/<name>.txt``.  It honours ``REPRO_JOBS`` (parallel
sweep workers), the persistent result cache (one JSON entry per result
under ``REPRO_CACHE_DIR``; ``cache info --manifests`` lists their
provenance) and the run ledger (``REPRO_LEDGER``, read back with
``sweep-report``); see docs/PERFORMANCE.md.  The global
``--log-level`` flag (or the ``REPRO_LOG`` environment variable)
controls diagnostic logging.

Every ``--workload``/``--workloads`` flag accepts catalogue names,
registered trace sources (``REPRO_TRACES``) and ChampSim trace file
paths interchangeably (see docs/TRACES.md).  An unknown workload, a
malformed trace file or a flag value the parameters reject exits 2 with
one error line.

Simulator throughput is measured by ``perfbench/`` (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.common.log import configure as configure_logging
from repro.common.log import get_logger, level_names
from repro.common.params import DirectionPredictorKind, HistoryPolicy, SimParams
from repro.core.simulator import simulate
from repro.experiments.analysis import ALL_ABLATIONS
from repro.experiments.cache import ResultCache, cache_stats
from repro.experiments.figures import ALL_EXPERIMENTS as _FIGURES
from repro.experiments.report import render_table, render_trace_report
from repro.prefetch import prefetcher_names
from repro.trace.champsim import TraceFormatError
from repro.trace.workloads import default_workloads

ALL_EXPERIMENTS = {**_FIGURES, **ALL_ABLATIONS}

log = get_logger("cli")

DEFAULT_TRACE_DIR = "results/telemetry"
"""Where ``repro trace`` writes its JSONL and reports by default."""

RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"
"""Where ``repro report`` archives each experiment's text: ``results/``
at the repository root, beside the result cache and the run ledger."""


def _direction_names() -> list[str]:
    """Direction-predictor names, sorted (``--direction``, ``repro list``)."""
    return sorted(k.value for k in DirectionPredictorKind)


def _add_sim_flags(cmd: argparse.ArgumentParser) -> None:
    """Add the shared (workload, configuration) flags to a subcommand."""
    cmd.add_argument("--workload", default="srv_web")
    cmd.add_argument("--warmup", type=int, default=25_000)
    cmd.add_argument("--instructions", type=int, default=60_000)
    cmd.add_argument("--ftq", type=int, default=24, help="FTQ entries (2 disables FDP)")
    cmd.add_argument("--no-pfc", action="store_true", help="disable post-fetch correction")
    cmd.add_argument("--btb", type=int, default=8192, help="BTB entries")
    cmd.add_argument("--btb-latency", type=int, default=2)
    cmd.add_argument(
        "--history",
        choices=sorted(p.value for p in HistoryPolicy),
        default=HistoryPolicy.THR.value,
        help="history management policy (Table V)",
    )
    cmd.add_argument(
        "--direction",
        choices=_direction_names(),
        default="tage",
        help="conditional direction predictor (Fig 12)",
    )
    cmd.add_argument("--tage-kib", type=int, default=18, choices=[9, 18, 36])
    cmd.add_argument(
        "--prefetcher",
        choices=["none", "perfect", *prefetcher_names()],
        default="none",
        help="dedicated L1I prefetcher (Section V)",
    )
    cmd.add_argument("--predict-width", type=int, default=12)
    cmd.add_argument("--max-taken", type=int, default=1)
    cmd.add_argument("--perfect-btb", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FDP frontend simulator (ISPASS 2021 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        choices=level_names(),
        default=None,
        help="diagnostic log verbosity (default: REPRO_LOG env var, else warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload/configuration")
    _add_sim_flags(run)
    run.add_argument("--stats", action="store_true", help="dump all raw counters")
    run.add_argument(
        "--stats-json",
        metavar="PATH",
        default=None,
        help="write the full raw counter set (sorted) as JSON to PATH",
    )

    sub.add_parser("list", help="list workloads, prefetchers, predictors and experiments")

    workload = sub.add_parser(
        "workload", help="inspect one workload: footprint, branch mix, provenance"
    )
    workload.add_argument("action", choices=["info"])
    workload.add_argument(
        "name", help="catalogue name, registered trace name, or trace file path"
    )
    workload.add_argument(
        "--instructions",
        type=int,
        default=20_000,
        help="committed-instruction window for the footprint/branch-mix "
        "measurement (default 20000)",
    )

    trace = sub.add_parser(
        "trace", help="simulate with full telemetry; write JSONL + trace report"
    )
    _add_sim_flags(trace)
    trace.add_argument(
        "--out", default=DEFAULT_TRACE_DIR, help=f"output directory (default {DEFAULT_TRACE_DIR})"
    )
    trace.add_argument(
        "--stride", type=int, default=10_000, help="interval sample stride in instructions"
    )
    trace.add_argument("--events", type=int, default=8192, help="event ring capacity")
    trace.add_argument(
        "--format", choices=["md", "json", "both"], default="both", help="report format(s)"
    )

    report = sub.add_parser("report", help="regenerate paper tables/figures")
    report.add_argument("experiments", nargs="*", help="subset (default: all)")
    report.add_argument("--plot", action="store_true", help="add ASCII bar charts")

    profile = sub.add_parser(
        "profile", help="simulate with the stage profiler; print self-time"
    )
    _add_sim_flags(profile)
    profile.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the profile report as JSON to PATH",
    )

    sweep = sub.add_parser(
        "sweep", help="run a declarative sweep spec (sharded; docs/SWEEPS.md)"
    )
    sweep.add_argument("spec", help="sweep spec file (.yaml/.yml via PyYAML, else JSON)")
    sweep.add_argument(
        "--shard",
        default="1/1",
        metavar="K/N",
        help="run only this shard of the expansion (e.g. 2/4; default 1/1)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, help="parallel workers (default REPRO_JOBS)"
    )
    sweep.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="output directory (default: the spec's output.dir, else results/sweeps/<name>)",
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expansion and this shard's points without simulating",
    )
    sweep.add_argument(
        "--merge",
        action="store_true",
        help="write the table from the result cache without simulating; "
        "exit 1 when any point has no cached result",
    )

    sweep_report = sub.add_parser(
        "sweep-report", help="render progress/summary from a sweep run ledger"
    )
    sweep_report.add_argument(
        "ledger",
        nargs="?",
        default=None,
        help="ledger JSONL path (default: newest file in the ledger directory)",
    )
    sweep_report.add_argument(
        "--format",
        choices=["progress", "md", "json", "both"],
        default="progress",
        help="progress view (default), markdown/JSON summary, or both files",
    )
    sweep_report.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write md/json summaries into DIR instead of printing",
    )
    sweep_report.add_argument(
        "--top", type=int, default=10, metavar="N", help="slowest work units to list"
    )
    sweep_report.add_argument(
        "--follow",
        action="store_true",
        help="poll the ledger and redraw the progress view until the sweep ends",
    )

    check = sub.add_parser(
        "check", help="correctness harness: differential + invariants + fuzzing"
    )
    check.add_argument(
        "--fuzz",
        type=int,
        metavar="N",
        default=None,
        help="run N seeded random trials instead of the workload catalogue",
    )
    check.add_argument("--seed", type=int, default=0, help="base fuzz seed (trial i uses seed+i)")
    check.add_argument(
        "--workloads",
        default="quick",
        help="'quick' (default), 'all', or comma-separated workload names "
        "or trace file paths (catalogue mode only)",
    )
    check.add_argument("--warmup", type=int, default=5_000, help="warmup instructions")
    check.add_argument(
        "--instructions", type=int, default=20_000, help="measured instructions"
    )
    check.add_argument(
        "--parallel-every",
        type=int,
        default=5,
        metavar="K",
        help="add the worker-process bit-identity property to every K-th "
        "fuzz trial (0 disables)",
    )
    check.add_argument(
        "--no-minimize",
        action="store_true",
        help="report the first fuzz failure without shrinking it",
    )
    check.add_argument(
        "--out",
        default="results/check",
        help="directory for failure reproducer JSON (default results/check)",
    )
    check.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="re-run a failure reproducer JSON instead of fuzzing",
    )
    check.add_argument(
        "--sweep",
        metavar="SPEC",
        default=None,
        help="differential sweep-equivalence harness: run SPEC serially, in "
        "parallel, sharded 2- and 3-way, and killed half-way then re-run; all "
        "five merged tables must be bit-identical with every point run at "
        "most once (docs/SWEEPS.md)",
    )

    sub.add_parser("kernel", help="show which cycle-kernel backend a run uses")

    cache = sub.add_parser("cache", help="manage the persistent result cache")
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument(
        "--manifests",
        action="store_true",
        help="info only: list the provenance fields of each cached entry",
    )
    cache.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="manifest rows to show, newest first (default 20; 0 = all)",
    )

    return parser


def _params_from_args(args: argparse.Namespace) -> SimParams:
    """Build a :class:`SimParams` bundle from parsed CLI flags.

    Component names are passed through as strings; the frozen
    dataclasses coerce them to their enums.  A value the parameters
    reject raises ``ValueError``.
    """
    params = SimParams(
        warmup_instructions=args.warmup,
        sim_instructions=args.instructions,
        prefetcher=args.prefetcher,
    )
    params = params.with_frontend(
        ftq_entries=args.ftq,
        pfc_enabled=not args.no_pfc,
        history_policy=args.history,
        predict_width=args.predict_width,
        max_taken_per_cycle=args.max_taken,
    )
    params = params.with_branch(
        btb_entries=args.btb,
        btb_latency=args.btb_latency,
        direction_kind=args.direction,
        tage_storage_kib=args.tage_kib,
        perfect_btb=args.perfect_btb,
    )
    return params


def _resolve_workload(name: str):
    """Resolve one ``--workload`` value to its workload source.

    Logs the resolver's message, which lists the known names, and
    returns ``None`` for an unknown workload, so callers can exit 2
    before simulating anything.
    """
    from repro.trace.source import resolve_workload

    try:
        return resolve_workload(name)
    except KeyError as exc:
        log.error("%s", exc.args[0])
        return None


def cmd_run(args: argparse.Namespace) -> int:
    """Simulate one (workload, configuration) pair and print metrics."""
    source = _resolve_workload(args.workload)
    if source is None:
        return 2
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    log.debug("simulating %s (%d+%d instructions)", source.name, args.warmup, args.instructions)
    result = simulate(source, params)
    print(result.summary())
    exposure = result.miss_exposure()
    print(
        f"misses: covered={exposure['covered']} "
        f"partial={exposure['partially_exposed']} full={exposure['fully_exposed']}"
    )
    if args.stats:
        for name in result.stats.names():
            print(f"  {name} = {result.stats.get(name)}")
    if args.stats_json:
        path = _write_stats_json(result, args.stats_json)
        print(f"wrote {path}")
    return 0


def _write_stats_json(result, output: str) -> Path:
    """Dump a run's full raw counter set (sorted) as JSON.

    Besides the counters, the payload records which code produced them
    (``schema`` = :data:`repro.experiments.cache.SIM_SCHEMA_VERSION`)
    and the *resolved* run modes -- the ``run`` path resolves
    ``warmup_mode="auto"`` to cycle-accurate warmup -- plus the kernel
    backend that ran, so a stats dump is comparable across PRs without
    guessing which defaults were in force.
    """
    from repro.experiments.cache import SIM_SCHEMA_VERSION

    path = Path(output)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    params = result.params
    warmup_mode = params.warmup_mode
    payload = {
        "schema": SIM_SCHEMA_VERSION,
        "workload": result.workload,
        "label": result.label,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "modes": {
            "warmup_mode": "cycle" if warmup_mode == "auto" else warmup_mode,
            "check_invariants": params.check_invariants,
            "kernel_backend": result.kernel_backend,
        },
        "counters": {name: result.stats.get(name) for name in result.stats.names()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def cmd_trace(args: argparse.Namespace) -> int:
    """Simulate one point with telemetry on; write JSONL + trace report."""
    from repro.common.telemetry import Telemetry, TelemetryConfig

    source = _resolve_workload(args.workload)
    if source is None:
        return 2
    try:
        params = _params_from_args(args)
        config = TelemetryConfig(interval_stride=args.stride, ring_capacity=args.events)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    telemetry = Telemetry(config)
    log.debug("tracing %s (stride=%d, ring=%d)", source.name, args.stride, args.events)
    result = simulate(source, params, telemetry=telemetry)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    # The resolved name, not the argument: a trace file path would name
    # files outside ``--out``.
    base = result.workload
    paths = [
        telemetry.write_events_jsonl(outdir / f"{base}.events.jsonl"),
        telemetry.write_timeseries_jsonl(outdir / f"{base}.timeseries.jsonl"),
    ]
    summary = telemetry.summary(result)
    if args.format in ("json", "both"):
        path = outdir / f"{base}.trace.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    if args.format in ("md", "both"):
        path = outdir / f"{base}.trace.md"
        path.write_text(render_trace_report(summary))
        paths.append(path)

    print(result.summary())
    accounting = summary["cycle_accounting"]
    fractions = summary["cycle_accounting_fraction"]
    print(
        render_table(
            f"Cycle accounting: {result.workload} "
            f"({sum(accounting.values())} of {result.cycles} cycles)",
            ["bucket", "cycles", "share"],
            [
                (name, count, f"{100.0 * fractions[name]:.1f}%")
                for name, count in accounting.items()
            ],
        )
    )
    prefetch = summary["prefetch"]
    if prefetch["issued"]:
        print(
            f"prefetch: issued={prefetch['issued']} timely={prefetch['timely']} "
            f"late={prefetch['late']} evicted={prefetch['unused_evicted']} "
            f"accuracy={100.0 * prefetch['accuracy']:.1f}% "
            f"coverage={100.0 * prefetch['coverage']:.1f}% "
            f"timeliness={100.0 * prefetch['timeliness']:.1f}%"
        )
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    """List workloads, prefetchers, direction predictors and experiments."""
    from repro.trace.source import registered_workloads

    print("workloads:")
    for wl in [*default_workloads(), *registered_workloads()]:
        print(f"  {wl.name:14s} {wl.source_kind:10s} {wl.category}")
    print("prefetchers: none perfect " + " ".join(prefetcher_names()))
    print("predictors: " + " ".join(_direction_names()))
    print("experiments: " + " ".join(ALL_EXPERIMENTS))
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    """The ``repro workload info NAME`` detail view.

    Resolves the workload (catalogue name, registered trace, or trace
    file path), prints its source provenance, then materialises a
    window and measures static footprint and dynamic branch mix from
    the committed stream.
    """
    from repro.isa.instructions import BranchKind
    from repro.trace.workloads import make_trace

    source = _resolve_workload(args.name)
    if source is None:
        return 2
    print(f"workload: {source.name}")
    print(f"category: {source.category}")
    print(f"source:   {source.source_kind}")
    _program, stream = make_trace(source, args.instructions)
    for key, value in sorted(source.info().items()):
        print(f"  {key} = {value}")

    addrs: set[int] = set()
    kind_counts: dict[BranchKind, int] = {}
    taken_counts: dict[BranchKind, int] = {}
    for seg in stream.segments:
        addrs.update(range(seg.start, seg.limit, 4))
        for _addr, kind, taken, _target in seg.branches:
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            if taken:
                taken_counts[kind] = taken_counts.get(kind, 0) + 1
    lines = {addr >> 6 for addr in addrs}
    total = stream.total_instructions
    print(f"window:   {total} committed instructions (requested {args.instructions} + slack)")
    print(
        f"footprint: {len(addrs)} static instructions "
        f"({4 * len(addrs) / 1024:.1f} KiB), {len(lines)} x 64B lines "
        f"({64 * len(lines) / 1024:.1f} KiB)"
    )
    print(
        f"branches: {stream.total_branches} "
        f"({stream.total_taken} taken, "
        f"{stream.taken_per_kilo:.1f} taken/kilo-instruction)"
    )
    for kind in sorted(kind_counts, key=lambda k: k.value):
        count = kind_counts[kind]
        share = 100.0 * count / max(1, stream.total_branches)
        print(
            f"  {kind.name:14s} {count:8d} ({share:5.1f}%, "
            f"{taken_counts.get(kind, 0)} taken)"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the requested paper tables/figures.

    Each experiment's table, plus its ``paper reference:`` line when it
    has one, goes to stdout and to ``results/<name>.txt``; ``--plot``
    charts go to stdout only.  Wall times and the closing cache summary
    go to stderr, so stdout stays deterministic.
    """
    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        log.error("unknown experiments: %s", ", ".join(unknown))
        return 2
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    for i, name in enumerate(names):
        t0 = time.time()
        data = ALL_EXPERIMENTS[name]()
        text = render_table(data["title"], data["headers"], data["rows"])
        if "paper" in data:
            text += "\npaper reference: " + ", ".join(
                f"{k}={v}" for k, v in data["paper"].items()
            )
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if i:
            print()
        print(text)
        if args.plot:
            from repro.experiments.viz import chart_for_experiment

            chart = chart_for_experiment(data)
            if chart:
                print()
                print(chart)
        print(f"[{name} done in {time.time() - t0:.1f}s]", file=sys.stderr, flush=True)
    stats = cache_stats()
    print(
        f"[cache: {stats.get('sim_runs')} simulated, "
        f"{stats.get('cache_memo_hit')} memo hits, "
        f"{stats.get('cache_disk_hit')} disk hits, "
        f"{stats.get('cache_stale')} stale]",
        file=sys.stderr,
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the correctness harness; exit 0 clean, 1 on any violation."""
    if args.sweep is not None:
        return _check_sweep(args.sweep)
    if args.replay is not None:
        return _check_replay(args.replay)
    if args.fuzz is not None:
        return _check_fuzz(args)
    return _check_catalogue(args)


def _check_sweep(spec_path: str) -> int:
    """Differential sweep-equivalence harness on one spec file."""
    from repro.check.sweepdiff import check_sweep_equivalence
    from repro.experiments.spec import SweepSpecError, expand, load_spec

    try:
        spec = load_spec(spec_path)
        expand(spec)  # malformed specs exit 2 before any strategy runs
    except (OSError, SweepSpecError) as exc:
        log.error("%s", exc)
        return 2
    print(f"sweep-equivalence: {spec.name} ({spec_path})")
    report = check_sweep_equivalence(spec, log=print)
    for strategy in report.strategies:
        status = "ok" if not strategy.problems else "FAIL"
        print(f"  {strategy.name:10s} {status}")
    if report.ok:
        print(
            f"sweep-equivalence: {report.n_points} point(s) bit-identical "
            f"across {len(report.strategies)} strategies, no point run twice"
        )
        return 0
    for problem in report.all_problems():
        print(f"  {problem}")
    log.error("sweep-equivalence FAILED for %s", spec.name)
    return 1


def _check_catalogue(args: argparse.Namespace) -> int:
    """Differential + invariant check of catalogue workloads."""
    from repro.check import DifferentialDivergence, check_workload
    from repro.check.invariants import InvariantViolation
    from repro.experiments.configs import default_params, parse_workloads

    try:
        params = default_params().replace(
            warmup_instructions=args.warmup, sim_instructions=args.instructions
        )
        names = parse_workloads(args.workloads, "--workloads")
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    failures = 0
    for name in names:
        try:
            report = check_workload(name, params)
        except (DifferentialDivergence, InvariantViolation) as exc:
            failures += 1
            print(f"{name:14s} FAIL\n{exc}")
            continue
        print(
            f"{name:14s} ok  ({report.branches_checked} branches, "
            f"{report.committed_instructions} instructions checked)"
        )
    if failures:
        log.error("%d of %d workloads failed the differential check", failures, len(names))
        return 1
    print(f"all {len(names)} workload(s) clean")
    return 0


def _check_fuzz(args: argparse.Namespace) -> int:
    """Seeded random fuzzing with reproducer dump on failure."""
    from repro.check import fuzz, write_reproducer

    if args.fuzz <= 0:
        log.error("--fuzz must be positive, got %d", args.fuzz)
        return 2
    report = fuzz(
        args.fuzz,
        seed=args.seed,
        parallel_every=args.parallel_every,
        log=print,
        do_minimize=not args.no_minimize,
    )
    if report.ok:
        print(f"fuzz: {report.trials_run} trial(s) clean (seeds {args.seed}.."
              f"{args.seed + args.fuzz - 1})")
        return 0
    failure = report.failure
    path = write_reproducer(
        Path(args.out) / f"failure-{failure.trial.seed}.json", failure.to_dict()
    )
    print(f"fuzz: FAIL at trial {report.trials_run} (seed {failure.trial.seed}, "
          f"property {failure.prop}, {report.minimize_attempts} shrink attempts)")
    print(failure.message)
    print(f"reproducer written to {path}")
    print(f"replay with: python -m repro check --replay {path}")
    return 1


def _check_replay(path: str) -> int:
    """Re-run a saved reproducer; exit 0 when it no longer fails."""
    from repro.check import load_reproducer, replay

    try:
        record = load_reproducer(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        log.error("cannot load reproducer %s: %s", path, exc)
        return 2
    print(f"replaying seed {record['seed']} (original property: {record['property']})")
    failure = replay(record)
    if failure is None:
        print("replay: clean (failure no longer reproduces)")
        return 0
    print(f"replay: FAIL (property {failure.prop})")
    print(failure.message)
    return 1


def cmd_profile(args: argparse.Namespace) -> int:
    """Simulate one point with the stage profiler; print self-time."""
    from repro.core.prof import StageProfiler

    source = _resolve_workload(args.workload)
    if source is None:
        return 2
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    profiler = StageProfiler()
    log.debug("profiling %s (%d+%d instructions)", source.name, args.warmup, args.instructions)
    result = simulate(source, params, profiler=profiler)
    print(result.summary())
    report = profiler.report()
    print(
        render_table(
            f"Stage self-time: {result.workload} "
            f"({report['cycles']:,} cycles, {report['total_self_ns'] / 1e6:.1f} ms "
            f"in stages, {report['cycles_per_sec']:,.0f} cycles/sec)",
            ["stage", "kind", "self (ms)", "share", "ns/cycle", "cycles/sec alone"],
            [
                (
                    row["stage"],
                    row["kind"],
                    f"{row['self_ns'] / 1e6:.2f}",
                    f"{100.0 * row['share']:.1f}%",
                    f"{row['ns_per_cycle']:.0f}",
                    f"{row['cycles_per_sec']:,.0f}",
                )
                for row in report["stages"]
            ],
        )
    )
    if args.json:
        path = Path(args.json)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": result.workload,
            "label": result.label,
            "instructions": result.instructions,
            "ipc": result.ipc,
            **report,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one shard of a declarative sweep spec, or write its table
    from the result cache (``--merge``)."""
    from repro.experiments.cache import cache_enabled
    from repro.experiments.spec import (
        SweepSpecError,
        expand,
        load_spec,
        parse_shard,
        shard_points,
    )
    from repro.experiments.sweep import (
        SweepIncomplete,
        default_sweep_dir,
        merge_sweep,
        run_sweep,
    )

    try:
        spec = load_spec(args.spec)
        shard = parse_shard(args.shard)
        points = expand(spec)
    except (OSError, SweepSpecError) as exc:
        log.error("%s", exc)
        return 2
    out_dir = Path(args.out) if args.out else default_sweep_dir(spec)
    k, total = shard
    # A fresh process has an empty memo, so results that other shards
    # (or earlier runs) made reach it only through the disk cache.
    if (args.merge or (total > 1 and not args.dry_run)) and not cache_enabled():
        what = "--merge" if args.merge else f"shard {k}/{total}"
        log.error(
            "%s reads other runs' results from the result cache, which "
            "REPRO_CACHE=0 turns off; unset REPRO_CACHE",
            what,
        )
        return 2

    if args.merge:
        try:
            written = merge_sweep(spec, points, out_dir)
        except SweepIncomplete as exc:
            log.error("%s", exc)
            return 1
        for path in written:
            print(f"wrote {path}")
        return 0

    if args.dry_run:
        owned = shard_points(points, k, total)
        print(
            f"sweep {spec.name}: {len(points)} point(s) "
            f"({len(spec.workloads)} workload(s) x "
            f"{len(points) // max(1, len(spec.workloads))} config(s)); "
            f"shard {k}/{total} owns {len(owned)}"
        )
        for point in owned:
            print(f"  {point.point_id[:16]}  {point.workload:14s} {point.label}")
        return 0

    outcome = run_sweep(spec, points, shard=shard, jobs=args.jobs, out_dir=out_dir)
    print(
        f"sweep {spec.name} shard {k}/{total}: {outcome.points_shard} of "
        f"{outcome.points_total} point(s), {outcome.executed} simulated, "
        f"{outcome.cache_hits} from cache"
    )
    for path in outcome.merged_files:
        print(f"wrote {path}")
    if not outcome.merged_files:
        print("merge deferred: run the sibling shards, then repro sweep ... --merge")
    return 0


def cmd_sweep_report(args: argparse.Namespace) -> int:
    """Render progress/summary views from a sweep run ledger."""
    from repro.common.ledger import (
        latest_ledger,
        read_ledger,
        render_progress,
        render_summary_md,
        summarize_ledger,
    )

    path = Path(args.ledger) if args.ledger else latest_ledger()
    if path is None or not Path(path).is_file():
        log.error(
            "no ledger file %s; run a sweep with REPRO_LEDGER=1 first",
            f"at {path}" if path else "found",
        )
        return 2
    summary = summarize_ledger(read_ledger(path), top=max(0, args.top))
    if args.follow and not summary["complete"]:
        while not summary["complete"]:
            print(render_progress(summary))
            print()
            time.sleep(0.5)
            summary = summarize_ledger(read_ledger(path), top=max(0, args.top))
    if args.format == "progress":
        print(render_progress(summary))
        if summary["invalid_sequences"]:
            log.error(
                "%d job(s) have invalid lifecycles", len(summary["invalid_sequences"])
            )
            return 1
        return 0
    outputs: list[tuple[str, str]] = []
    if args.format in ("md", "both"):
        outputs.append(("md", render_summary_md(summary)))
    if args.format in ("json", "both"):
        outputs.append(("json", json.dumps(summary, indent=2, sort_keys=True) + "\n"))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        base = summary.get("sweep") or Path(path).stem
        for suffix, text in outputs:
            target = outdir / f"{base}.sweep.{suffix}"
            target.write_text(text)
            print(f"wrote {target}")
    else:
        for _, text in outputs:
            print(text, end="")
    return 0


def _print_manifests(cache: ResultCache, limit: int) -> None:
    """The ``repro cache info --manifests`` provenance listing."""
    manifests = cache.manifests()
    if not manifests:
        print("no provenance manifests")
        return
    shown = manifests if limit <= 0 else manifests[:limit]
    print(
        render_table(
            f"Provenance manifests ({len(shown)} of {len(manifests)}, newest first)",
            ["key", "workload", "config", "warmup", "ipc", "wall (s)", "created (UTC)"],
            [
                (
                    (m.get("key") or "?")[:12],
                    m.get("workload", "?"),
                    m.get("label", "?"),
                    m.get("warmup_mode", "?"),
                    f"{m['ipc']:.3f}" if isinstance(m.get("ipc"), float) else "n/a",
                    (
                        f"{m['wall_seconds']:.2f}"
                        if isinstance(m.get("wall_seconds"), (int, float))
                        else "n/a"
                    ),
                    (m.get("created_utc") or "?").replace("+00:00", ""),
                )
                for m in shown
            ],
        )
    )


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent result cache."""
    cache = ResultCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    info = cache.info()
    print(f"cache dir: {info['directory']}")
    print(f"schema:    v{info['schema']}")
    print(f"entries:   {info['entries']} ({info['total_bytes']:,} bytes)")
    unreachable = f"{info['unreachable']} ({info['unreachable_bytes']:,} bytes)"
    if info["unreachable"]:
        unreachable += " of another schema, never read; `repro cache clear` removes them"
    print(f"unreachable: {unreachable}")
    session = cache_stats().as_dict()
    if session:
        print(f"this session (hit rate {100.0 * info['session_hit_rate']:.0f}%):")
        for name in sorted(session):
            print(f"  {name} = {session[name]}")
    if getattr(args, "manifests", False):
        _print_manifests(cache, args.limit)
    return 0


def cmd_kernel(_args: argparse.Namespace) -> int:
    """Show which cycle-kernel backend runs on this host.

    The summary answers "which kernel would a run use here?" -- the
    concrete typed backend (compiled ``.so`` shadowing
    :mod:`repro.core.typedkern` vs its pure-Python form), the module
    file that answer came from, and the rule that picks between it and
    the interpreted reference kernel (:func:`repro.core.typed.supported`).
    """
    from repro.core import typedkern
    from repro.core.typed import backend_name

    print(f"typed backend:    {backend_name()}")
    print(f"typedkern module: {typedkern.__file__}")
    print(
        f"a run uses:       {backend_name()} unless an observer is active; "
        "interp under checker, profile, telemetry"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    handlers = {
        "run": cmd_run,
        "list": cmd_list,
        "workload": cmd_workload,
        "trace": cmd_trace,
        "report": cmd_report,
        "profile": cmd_profile,
        "check": cmd_check,
        "cache": cmd_cache,
        "kernel": cmd_kernel,
        "sweep": cmd_sweep,
        "sweep-report": cmd_sweep_report,
    }
    try:
        return handlers[args.command](args)
    except TraceFormatError as exc:
        # The message names the file and the defect; a traceback adds
        # nothing for a malformed input.
        log.error("%s", exc)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
