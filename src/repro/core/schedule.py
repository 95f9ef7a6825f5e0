"""The declarative per-cycle stage schedule and the cycle-kernel builder.

This module is the **single source of truth for the simulator's cycle
loop**.  :data:`CYCLE_SCHEDULE` declares, in execution order, the six
per-cycle pipeline stages plus the named hook points that optional
subsystems attach to:

========  ==================  ===========  =================================
order     point               kind         active when
========  ==================  ===========  =================================
1         profile_prologue    hook         a stage profiler is attached
2         telemetry_clock     hook         a telemetry hub is attached
3         memory_fill         stage        always
4         retire_count        hook         a telemetry hub is attached
5         backend_retire      stage        always
6         measure_boundary    hook         always
7         telemetry_tick      hook         a telemetry hub is attached
8         fetch               stage        always
9         predict             stage        always
10        probe               stage        always
11        prefetch            stage        a dedicated prefetcher is built
12        invariant_sweep     hook         ``params.check_invariants``
13        livelock_guard      hook         always
========  ==================  ===========  =================================

The composed kernel runs every cycle, one after another: it has no
idle skip and no retire-only drain.  That makes it the plain
cycle-by-cycle reference (``Simulator.run(reference=True)``) that the
typed kernel's cycle compression (:mod:`repro.core.typedkern`) is
checked against.

Under the ``profile`` feature (:mod:`repro.core.prof`) the emitter
additionally wraps each composed point's body with perf-counter reads
accumulating per-stage self time -- timers only observe, so profiled
runs stay bit-identical to plain runs.

:func:`build_kernel` *specializes* one loop body from the schedule at
``Simulator`` construction time: it composes only the points whose
feature is active into Python source, compiles it once per feature
combination (memoised process-wide), and returns the kernel function.
The composed loop keeps the bound-locals speed of a hand-written tight
loop, while every telemetry x checker combination is generated from
the same declaration instead of hand-copied variants --
observing hooks compose in, they never fork the loop, so checked /
traced runs stay bit-identical to plain runs (pinned by the fuzzer's
``checked_bit_identity`` / ``traced_bit_identity`` properties).

Each point also declares its *bindings*: the ``sim`` attributes it
snapshots into locals before the loop starts.  Bound methods stay valid
across the measurement-boundary stats swap because only ``.stats``
attributes are replaced, never the component objects.  The bindings
double as the stage-interface conformance contract: a component wired
by :mod:`repro.core.build` must expose exactly the callables its stage
binds (checked by :func:`validate_stage_interfaces`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Feature flags a schedule point may require.  A kernel is specialized
#: for one subset of these (the simulator's active features).
#: ``profile`` additionally changes how the kernel is *emitted*: every
#: composed point body is wrapped with perf-counter self-time
#: accumulation (see :mod:`repro.core.prof`).
FEATURES = ("telemetry", "checker", "prefetcher", "profile")


@dataclass(frozen=True)
class SchedulePoint:
    """One stage or hook point of the per-cycle schedule.

    ``binds`` are prologue source lines (run once, before the loop)
    that snapshot ``sim`` attributes into locals; ``body`` are the
    per-cycle source lines.  ``requires`` names the feature flag that
    must be active for the point to be composed into the kernel
    (``None`` means always active).
    """

    name: str
    kind: str  # "stage" | "hook"
    body: tuple[str, ...]
    binds: tuple[str, ...] = ()
    requires: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("stage", "hook"):
            raise ValueError(f"schedule point kind must be stage|hook, got {self.kind!r}")
        if self.requires is not None and self.requires not in FEATURES:
            raise ValueError(f"unknown feature {self.requires!r}; known: {FEATURES}")


def _stage(name: str, body: tuple[str, ...], binds: tuple[str, ...] = (), requires=None):
    """Shorthand for a pipeline-stage schedule point."""
    return SchedulePoint(name, "stage", body, binds, requires)


def _hook(name: str, body: tuple[str, ...], binds: tuple[str, ...] = (), requires=None):
    """Shorthand for a hook-point schedule point."""
    return SchedulePoint(name, "hook", body, binds, requires)


CYCLE_SCHEDULE: tuple[SchedulePoint, ...] = (
    # Stage-profiler bindings (no per-cycle body of its own: the
    # emitter wraps every *other* point's body with `_clk`/`_pacc`
    # accesses when the profile feature is active).
    _hook(
        "profile_prologue",
        requires="profile",
        binds=("_clk = sim.profiler.clock", "_pacc = sim.profiler.acc"),
        body=(),
    ),
    # Refresh the telemetry clock before any stage can emit an event.
    _hook(
        "telemetry_clock",
        requires="telemetry",
        binds=("tel = sim.telemetry",),
        body=("tel.now = cycle",),
    ),
    # 1. Memory fill completion -> FTQ wakeups.
    _stage(
        "memory_fill",
        binds=(
            "memory_tick = sim.memory.tick",
            "complete_fills = sim.fetch.complete_fills",
        ),
        body=(
            "fills = memory_tick(cycle)",
            "if fills:",
            "    complete_fills(fills, cycle)",
        ),
    ),
    # Snapshot the retire counter so telemetry_tick sees this cycle's delta.
    _hook(
        "retire_count",
        requires="telemetry",
        body=("before = backend.committed",),
    ),
    # 2. Backend retire (may trigger a misprediction flush).
    _stage(
        "backend_retire",
        binds=("backend = sim.backend", "backend_cycle = backend.cycle"),
        body=("backend_cycle(cycle)",),
    ),
    # Warmup -> measurement boundary: swap in fresh counters exactly once.
    _hook(
        "measure_boundary",
        body=(
            "if not sim._measuring and backend.committed >= warmup:",
            "    sim.cycle = cycle",
            "    sim._begin_measurement()",
        ),
    ),
    # Cycle accounting + interval sampling, fed the cycle's retire count.
    _hook(
        "telemetry_tick",
        requires="telemetry",
        binds=("tel_tick = sim.telemetry.tick",),
        body=("tel_tick(cycle, backend.committed - before, sim._measuring)",),
    ),
    # 3. Fetch stage (head FTQ entries -> decode queue; PFC fires here).
    _stage(
        "fetch",
        binds=("fetch_stage = sim.fetch.fetch_stage",),
        body=("fetch_stage(cycle)",),
    ),
    # 4. Branch prediction (new FTQ entries).
    _stage(
        "predict",
        binds=("ftq = sim.ftq", "bpu_cycle = sim.bpu.cycle"),
        body=("bpu_cycle(cycle, ftq)",),
    ),
    # 5. Probe stage (I-TLB + I-cache tag lookups; fills start here).
    _stage(
        "probe",
        binds=("probe_stage = sim.fetch.probe_stage",),
        body=("probe_stage(cycle)",),
    ),
    # 6. Dedicated prefetcher tick.
    _stage(
        "prefetch",
        requires="prefetcher",
        binds=("prefetcher_cycle = sim.prefetcher.cycle",),
        body=("prefetcher_cycle(cycle)",),
    ),
    # End-of-cycle invariant sweep (repro check / the fuzzer).
    _hook(
        "invariant_sweep",
        requires="checker",
        binds=("check_cycle = sim.checker.check_cycle",),
        body=("check_cycle(cycle)",),
    ),
    # A run exceeding the guard indicates a livelock; fail with context.
    _hook(
        "livelock_guard",
        body=(
            "if cycle > guard:",
            "    sim.cycle = cycle",
            "    raise sim._livelock_error(target)",
        ),
    ),
)


def active_points(features: frozenset[str]) -> list[SchedulePoint]:
    """The schedule points composed into a kernel for ``features``."""
    unknown = features.difference(FEATURES)
    if unknown:
        raise ValueError(f"unknown feature(s) {sorted(unknown)}; known: {FEATURES}")
    return [p for p in CYCLE_SCHEDULE if p.requires is None or p.requires in features]


def profiled_points(features: frozenset[str]) -> list[SchedulePoint]:
    """The points the ``profile`` feature wraps with self-time timers.

    Every composed point with a per-cycle body, in emission order --
    the index into this list is the index into
    :attr:`repro.core.prof.StageProfiler.acc` the emitted kernel
    accumulates into.
    """
    return [p for p in active_points(features) if p.body]


def kernel_source(features: frozenset[str]) -> str:
    """Python source of the cycle kernel specialized for ``features``.

    The kernel signature is ``_kernel(sim, target, warmup, guard)``:
    run cycles until ``sim.backend.committed`` reaches ``target``,
    beginning measurement once ``warmup`` instructions have committed.
    ``cycle += 1`` is loop bookkeeping emitted between the last stage
    and the livelock guard, mirroring the original hand-written loop.
    When the ``profile`` feature is active each point body is bracketed
    with ``_clk`` reads feeding the per-stage accumulator ``_pacc``
    (bound by the ``profile_prologue`` point); the wrap adds observation
    only, never control flow.
    """
    points = active_points(features)
    profiling = "profile" in features
    profile_index = {id(p): i for i, p in enumerate(profiled_points(features))}
    lines = ["def _kernel(sim, target, warmup, guard):"]
    for point in points:
        for bind in point.binds:
            lines.append(f"    {bind}")
    lines.append("    cycle = sim.cycle")
    lines.append("    while backend.committed < target:")
    for point in points:
        if point.name == "livelock_guard":
            lines.append("        cycle += 1")
        if not point.body:
            continue
        if profiling:
            lines.append("        _pt = _clk()")
        for stmt in point.body:
            lines.append(f"        {stmt}")
        if profiling:
            lines.append(f"        _pacc[{profile_index[id(point)]}] += _clk() - _pt")
    lines.append("    sim.cycle = cycle")
    return "\n".join(lines) + "\n"


_KERNELS: dict[frozenset[str], object] = {}
"""Process-wide memo of compiled kernels, keyed by active feature set."""


def build_kernel(features: frozenset[str]):
    """Compile (memoised) and return the cycle kernel for ``features``."""
    features = frozenset(features)
    kernel = _KERNELS.get(features)
    if kernel is None:
        namespace: dict[str, object] = {}
        code = compile(kernel_source(features), f"<cycle-kernel {sorted(features)}>", "exec")
        exec(code, namespace)  # noqa: S102 - trusted, schedule-generated source
        kernel = _KERNELS[features] = namespace["_kernel"]
    return kernel


def validate_stage_interfaces(sim) -> list[str]:
    """Stage-interface conformance: every binding resolves on ``sim``.

    Returns a list of problems (empty when conformant).  Used by tests
    to pin that the components :mod:`repro.core.build` wires expose
    exactly the callables the schedule binds.
    """
    problems: list[str] = []
    env: dict[str, object] = {"sim": sim}
    for point in active_points(sim.active_features()):
        for bind in point.binds:
            name, expr = (s.strip() for s in bind.split("=", 1))
            try:
                value = eval(expr, env)  # noqa: S307 - introspection of own schedule
            except AttributeError as exc:
                problems.append(f"{point.name}: binding {expr!r} failed: {exc}")
                continue
            env[name] = value
            object_binds = (".telemetry", ".ftq", ".backend", ".profiler.acc")
            if not expr.endswith(object_binds) and not callable(value):
                problems.append(f"{point.name}: binding {expr!r} is not callable")
    return problems
