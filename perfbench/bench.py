"""Benchmark workloads: set-up, timed passes and output checks.

A run of one workload has three parts:

* **set-up** -- import ``repro``, load the spec (or build the point
  list), and materialise every trace the passes use, so the passes hit
  ``make_trace``'s memo.  :func:`setup` times this from its first line;
  interpreter start-up is not included.
* **passes** -- the timed body, repeated for the run's duration.  A
  sweep pass expands the spec, runs every point serially through
  ``run_sweep`` (``REPRO_JOBS=1``) into a fresh, empty result cache, and
  merges the table; a ``oneshot`` pass calls ``simulate()`` once per
  point, as ``repro run`` does.
* **checks** -- every point's ``instructions`` and ``cycles`` must equal
  the first pass's, and at the default seed also the committed values
  in ``expected.json``.

This module imports only the standard library at import time, so
:func:`setup` can time the import of ``repro`` itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.hostspeed import SpeedClock

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
SPEC_DIR = BENCH_DIR / "specs"

WORKLOADS = ("fdp-sweep", "prefetch-sweep", "oneshot")
DEFAULT_SEED = 0
"""The seed that reproduces the catalogue; the only seed with expected values."""

CATALOGUE = (
    "srv_web",
    "srv_db",
    "srv_cache",
    "clt_browser",
    "clt_media",
    "spc_int_a",
    "spc_int_b",
    "spc_fp",
)
GOLDEN_TRACE = REPO_ROOT / "tests" / "data" / "golden.champsim.xz"
GOLDEN_WINDOWS = (6_000, 20_000)
"""Warmup and measured windows for the golden trace: its 30,006 usable
instructions less the 4,000-instruction run-ahead slack."""

ISOLATED_ENV = (
    "REPRO_LEDGER",
    "REPRO_CHECK",
    "REPRO_KERNEL",
    "REPRO_SIM",
    "REPRO_WORKLOADS",
    "REPRO_TRACES",
    "REPRO_CACHE",
)
"""Environment knobs that would change what a run simulates or records
(plus every ``REPRO_BATCH*`` and ``REPRO_WARMUP*``)."""


def isolate_env(cache_dir: Path) -> None:
    """Pin the serial, cold-cache configuration every run measures."""
    for name in list(os.environ):
        if name in ISOLATED_ENV or name.startswith(("REPRO_BATCH", "REPRO_WARMUP")):
            del os.environ[name]
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def derived_seed(seed: int, workload: str, role: str) -> int:
    """A program or oracle seed for ``workload`` under benchmark ``seed``."""
    digest = hashlib.sha256(f"{seed}:{workload}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def seeded_name(workload: str, seed: int) -> str:
    return workload if seed == DEFAULT_SEED else f"{workload}.s{seed}"


def register_seeded(seed: int) -> dict[str, str]:
    """Map each catalogue name to the name the runs use under ``seed``.

    The default seed maps the catalogue to itself.  Any other seed
    registers a copy of each catalogue shape with derived program and
    oracle seeds, named ``<workload>.s<seed>``.
    """
    if seed == DEFAULT_SEED:
        return {name: name for name in CATALOGUE}
    from repro.trace.source import register_workload
    from repro.trace.workloads import WorkloadSpec, default_workloads

    names = {}
    for wl in default_workloads():
        copy = WorkloadSpec(
            seeded_name(wl.name, seed),
            wl.category,
            wl.program_spec,
            derived_seed(seed, wl.name, "program"),
            derived_seed(seed, wl.name, "oracle"),
        )
        names[wl.name] = register_workload(copy).name
    return names


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """One benchmark workload, set up and ready for timed passes."""

    name: str
    seed: int
    spec: object | None
    """The parsed sweep spec; ``None`` for ``oneshot``."""
    points: list[tuple[str, object]]
    """``(run workload name, SimParams)`` per oneshot point."""
    base_names: dict[str, str]
    """Run workload name -> catalogue (or trace) name, for expected keys."""
    traces: list[tuple[str, int]] = field(default_factory=list)
    """``(run workload name, window)`` of every materialised trace."""
    setup_s: float = 0.0


def load_sweep_spec(name: str, names: dict[str, str], windows: tuple[int, int] | None):
    """Parse ``specs/<name>.yaml`` with workloads renamed for the seed."""
    import yaml

    from repro.experiments.spec import parse_spec

    data = yaml.safe_load((SPEC_DIR / f"{name}.yaml").read_text())
    data["workloads"] = [names[w] for w in data["workloads"]]
    if windows is not None:
        data["base"].update(warmup_instructions=windows[0], sim_instructions=windows[1])
    return parse_spec(data, name_hint=name)


def oneshot_points(names: dict[str, str], windows: tuple[int, int] | None):
    """One default-config point per catalogue workload plus the golden trace."""
    from repro.experiments.configs import default_params
    from repro.trace.source import resolve_workload

    params = default_params()
    golden = params.replace(
        warmup_instructions=GOLDEN_WINDOWS[0], sim_instructions=GOLDEN_WINDOWS[1]
    )
    if windows is not None:
        params = params.replace(warmup_instructions=windows[0], sim_instructions=windows[1])
        golden = params
    golden_name = resolve_workload(str(GOLDEN_TRACE)).name
    return [(names[wl], params) for wl in CATALOGUE] + [(golden_name, golden)]


def setup(name: str, seed: int, tracer=None, windows: tuple[int, int] | None = None) -> Workload:
    """Import ``repro``, load the workload and materialise its traces.

    ``windows`` overrides every point's (warmup, measured) instruction
    windows; the benchmark itself always runs the paper's defaults.
    With a ``tracer``, layer spans are installed right after the import
    and stay installed until the caller uninstalls them.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    start = time.perf_counter()
    span = tracer.span if tracer is not None else _no_span
    with span("setup"):
        with span("setup.import"):
            import repro.experiments.sweep  # noqa: F401
            from repro.trace.fbmeta import stream_meta
            from repro.trace.workloads import make_trace
        if tracer is not None:
            from perfbench.tracer import install_layer_spans

            install_layer_spans(tracer)
        with span("setup.spec"):
            names = register_seeded(seed)
            if name == "oneshot":
                spec, points = None, oneshot_points(names, windows)
                traces = [(wl, p.warmup_instructions + p.sim_instructions) for wl, p in points]
            else:
                spec, points = load_sweep_spec(name, names, windows), []
                base = dict(spec.base)
                n = base["warmup_instructions"] + base["sim_instructions"]
                traces = [(wl, n) for wl in spec.workloads]
        base_names = {run: base for base, run in names.items()}
        for wl, n in traces:
            base_names.setdefault(wl, wl)
            with span("trace.materialize", wl):
                _program, stream = make_trace(wl, n)
                stream_meta(stream)
    workload = Workload(name, seed, spec, points, base_names, traces)
    workload.setup_s = time.perf_counter() - start
    return workload


def _no_span(*_args):
    return nullcontext()


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    wall_s: float
    """Wall time of the body (calibration ticks excluded)."""
    reference_s: float
    """``wall_s`` corrected for host speed; equals ``wall_s`` when traced."""
    points: int
    """Points attempted."""
    instructions: int
    """Simulated instructions (warmup + measured) over every point."""
    outputs: dict[str, tuple[int, int]]
    """``"<workload>|<config>"`` -> (instructions, cycles)."""
    errors: dict[str, str]
    """Points that raised, with the error."""


def run_pass(workload: Workload, scratch: Path, tracer=None) -> PassResult:
    """One timed pass of the workload body from an empty result cache.

    Untraced passes are timed by a :class:`~perfbench.hostspeed.SpeedClock`;
    traced passes by the wall clock alone, so calibration ticks never land
    inside a span.
    """
    from repro.experiments import cache, runner

    scratch.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    runner.clear_cache()
    cache.run_key.cache_clear()
    cache.workload_fingerprint.cache_clear()
    cache.params_fingerprint.cache_clear()
    try:
        if tracer is None:
            with SpeedClock() as clock:
                result = _body(workload, scratch, _no_span)
            result.wall_s, result.reference_s = clock.wall_s, clock.reference_s
        else:
            start = time.perf_counter()
            with tracer.span("pass"):
                result = _body(workload, scratch, tracer.span)
            result.wall_s = result.reference_s = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result


def _body(workload: Workload, scratch: Path, span) -> PassResult:
    if workload.spec is None:
        return _oneshot_body(workload)
    return _sweep_body(workload, scratch, span)


def _point_key(workload: Workload, run_name: str, config: str) -> str:
    return f"{workload.base_names.get(run_name, run_name)}|{config}"


def _oneshot_body(workload: Workload) -> PassResult:
    from repro.core import simulator

    outputs, errors, instructions = {}, {}, 0
    for wl, params in workload.points:
        key = _point_key(workload, wl, "default")
        try:
            result = simulator.simulate(wl, params)
        except Exception as exc:  # a failing point is counted, not fatal
            errors[key] = f"{type(exc).__name__}: {exc}"
            continue
        outputs[key] = (result.instructions, result.cycles)
        instructions += params.warmup_instructions + params.sim_instructions
    return PassResult(0.0, 0.0, len(workload.points), instructions, outputs, errors)


def _sweep_body(workload: Workload, scratch: Path, span) -> PassResult:
    from repro.experiments.spec import expand
    from repro.experiments.sweep import run_sweep

    spec = workload.spec
    with span("sweep.expand"):
        points = expand(spec)
    keys = [_point_key(workload, p.workload, p.label) for p in points]
    try:
        with span("sweep.run"):
            outcome = run_sweep(spec, points, jobs=1, out_dir=scratch / "sweep")
    except Exception as exc:  # run_points raises after draining every unit
        errors = {key: f"{type(exc).__name__}: {exc}" for key in keys}
        return PassResult(0.0, 0.0, len(points), 0, {}, errors)
    if outcome.cache_hits or outcome.executed != len(points) or not outcome.merged_files:
        raise RuntimeError(
            f"pass was not a cold, merged sweep: {outcome.executed} of {len(points)} "
            f"simulated, {outcome.cache_hits} cache hits"
        )
    outputs = {
        key: (row["instructions"], row["cycles"]) for key, row in zip(keys, outcome.rows)
    }
    instructions = sum(p.params.warmup_instructions + p.params.sim_instructions for p in points)
    return PassResult(0.0, 0.0, len(points), instructions, outputs, {})


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def load_expected(name: str) -> dict[str, list[int]]:
    return json.loads(EXPECTED_PATH.read_text())[name]


def check_pass(
    result: PassResult, reference: dict[str, tuple[int, int]], expected: dict | None
) -> dict[str, str]:
    """Failed points of one pass, each with the reason.

    ``reference`` is the first pass's outputs; ``expected`` the
    committed values (only at the default seed).  A point fails when it
    raised, is missing, or differs from either.
    """
    failures = dict(result.errors)
    keys = set(reference) | set(result.outputs) | set(expected or ())
    for key in sorted(keys - set(failures)):
        got = result.outputs.get(key)
        if got is None:
            failures[key] = "missing from the pass output"
        elif key in reference and tuple(reference[key]) != tuple(got):
            failures[key] = f"(instructions, cycles) {got} != first pass {tuple(reference[key])}"
        elif expected is not None and tuple(expected.get(key, ())) != tuple(got):
            failures[key] = (
                f"(instructions, cycles) {got} != expected {tuple(expected.get(key, ()))}"
            )
    return failures


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summary(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile, and count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
