"""Top-level cycle-accurate simulator.

Wires together the decoupled FDP frontend (BPU -> FTQ -> fetch), the
instruction memory hierarchy, an optional dedicated prefetcher, and the
consuming backend, then runs the oracle stream through it.

Construction is delegated to :class:`repro.core.build.SimBuilder`: every
pluggable component (direction predictor, history policy, BTB variant,
dedicated prefetcher) is resolved through its registry, and optional
subsystems attach through declared hook points (``sim.hooks``,
``trainer.add_branch_listener``, ``sim.observables``).

The per-cycle stage order lives in one place --
:data:`repro.core.schedule.CYCLE_SCHEDULE` -- from which
:func:`repro.core.schedule.build_kernel` specializes the cycle loop for
this simulator's active features (telemetry / invariant checker /
prefetcher).  Inactive hooks are not composed in at all, so the
uninstrumented path keeps bound-locals tight-loop speed, and because
observers only *observe*, traced and checked runs stay bit-identical to
plain runs (pinned by the fuzzer's bit-identity properties).  That
interpreted kernel steps every cycle.  Runs without an observer take
the flat typed kernel (:mod:`repro.core.typedkern`) instead, the only
kernel that skips idle cycles, and the interpreted kernel is the
reference it is checked against.
"""

from __future__ import annotations

from repro.common.log import get_logger
from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.core.build import SimBuilder, resolve_btb_variant
from repro.core.metrics import RunResult
from repro.core.schedule import build_kernel
from repro.core.typed import backend_name, supported, typed_kernel
from repro.core.warmup import functional_warmup
from repro.trace.cfg import Program
from repro.trace.oracle import OracleStream
from repro.trace.source import resolve_workload
from repro.trace.workloads import WorkloadSpec, make_trace

_CYCLE_GUARD_FACTOR = 400
"""A run exceeding this many cycles per instruction indicates a livelock."""

log = get_logger("core.simulator")


class Simulator:
    """One simulated core bound to one program + oracle stream."""

    def __init__(
        self,
        params: SimParams,
        program: Program,
        stream: OracleStream,
        telemetry=None,
        profiler=None,
    ) -> None:
        if not stream.segments:
            raise ValueError("oracle stream is empty")
        total_needed = params.warmup_instructions + params.sim_instructions
        if stream.total_instructions < total_needed:
            raise ValueError(
                f"stream has {stream.total_instructions} instructions; "
                f"run needs {total_needed}"
            )
        self.params = params
        self.program = program
        self.stream = stream
        self.workload_name = ""
        self.cycle = 0
        self._measuring = False
        self._measure_start_cycle = 0
        self._measure_start_committed = 0
        self.warmup_stats: StatSet | None = None
        """Warmup-window counters, stashed at the measurement boundary."""
        self.profiler = profiler
        """Optional :class:`repro.core.prof.StageProfiler`; activates the
        ``profile`` kernel feature (per-stage self-time accumulation)."""
        self.kernel_backend = "interp"
        """Which cycle-loop backend the last :meth:`run` selected:
        ``typed-compiled`` / ``typed-python`` / ``interp``.  A run takes
        ``interp`` only under an observer (telemetry, checker, profiler)
        or as the ``reference=True`` run; the value stays ``interp``
        until a run decides otherwise."""
        SimBuilder(params, program, stream).wire(self, telemetry)
        if profiler is not None:
            profiler.bind_to(self)

    def _fill_lines(self, cache, start: int, end: int) -> None:
        """Fill every cache line overlapping ``[start, end)`` into ``cache``."""
        line_bytes = self.params.memory.line_bytes
        fill = cache.fill
        for line in range(start & ~(line_bytes - 1), end, line_bytes):
            fill(line)

    def _prewarm_l2(self, program: Program) -> None:
        """Install the code image into the L2 before simulation.

        The paper warms for 50M instructions, after which server code is
        L2-resident and I-cache misses are L2 hits, not DRAM accesses.
        Our scaled windows cannot amortise compulsory DRAM misses the
        same way, so the steady state is established directly (the L2
        comfortably holds every catalogue footprint).  L1I, BTB and
        predictor warm-up still happens architecturally during the
        warmup window.
        """
        self._fill_lines(self.memory.l2, program.code_start, program.code_end)

    # ------------------------------------------------------------------
    # Flush handling
    # ------------------------------------------------------------------
    def _on_flush(self, fault, cycle: int) -> None:
        """Backend-detected misprediction: flush and restart at commit PC."""
        self.ftq.flush_all()
        self.decode_queue.flush()
        self.memory.flush_waiters()
        self.bpu.ras.copy_from(self.trainer.arch_ras)
        self.hooks.run_spec_sync()
        point = self.trainer.resume_point()
        if point is None:
            return  # stream exhausted; the run is about to end
        seg_idx, commit_pc = point
        self.bpu.resteer(
            commit_pc,
            self.trainer.arch_hist,
            seg_idx,
            cycle + self.params.core.mispredict_penalty,
            reason=f"flush:{fault.kind_label}",
        )

    # ------------------------------------------------------------------
    # Measurement window
    # ------------------------------------------------------------------
    def _begin_measurement(self) -> None:
        """Swap in fresh counters at the warmup -> measurement boundary."""
        self._measuring = True
        self._measure_start_cycle = self.cycle
        self._measure_start_committed = self.backend.committed
        fresh = StatSet()
        self.warmup_stats = self.stats
        self.stats = fresh
        self.memory.set_stats(fresh)
        self.bpu.stats = fresh
        self.fetch.stats = fresh
        self.backend.stats = fresh
        self.trainer.stats = fresh
        if self.prefetcher is not None:
            self.prefetcher.stats = fresh

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def active_features(self) -> frozenset[str]:
        """The schedule features active on this simulator.

        Selects which cycle kernel :meth:`run` executes; see
        :data:`repro.core.schedule.FEATURES`.
        """
        features = set()
        if self.telemetry is not None:
            features.add("telemetry")
        if self.checker is not None:
            features.add("checker")
        if self.prefetcher is not None:
            features.add("prefetcher")
        if self.profiler is not None:
            features.add("profile")
        return frozenset(features)

    def _livelock_error(self, target: int) -> RuntimeError:
        """Build the livelock RuntimeError with full run attribution.

        Includes the workload name, committed/target progress and the
        key parameters so a failure inside a sweep worker is
        attributable without re-running it.
        """
        params = self.params
        policy = params.frontend.history_policy
        return RuntimeError(
            f"livelock: workload {self.workload_name or '<unnamed>'!r} "
            f"[{params.label()}] stuck after {self.cycle} cycles with "
            f"{self.backend.committed}/{target} instructions committed "
            f"(warmup={params.warmup_instructions}, sim={params.sim_instructions}); "
            f"prefetcher={params.prefetcher!r}, "
            f"ftq_entries={params.frontend.ftq_entries}, "
            f"btb={resolve_btb_variant(params.branch)}/{params.branch.btb_entries}, "
            f"history={getattr(policy, 'value', policy)!r}"
        )

    def run(self, workload_name: str = "", *, reference: bool = False) -> RunResult:
        """Simulate warmup + measurement windows; return the result.

        ``params.warmup_mode == "functional"`` fast-forwards the warmup
        window architecturally (:func:`repro.core.warmup.functional_warmup`)
        and starts the cycle-accurate loop at the measurement boundary;
        ``"cycle"`` (and ``"auto"``, for this direct API) warms through
        the full pipeline as before.

        The cycle loop is the flat typed kernel
        (:mod:`repro.core.typedkern`, bit-identical by contract) whenever
        :func:`repro.core.typed.supported` holds, and otherwise the
        schedule-specialized interpreted kernel for this simulator's
        :meth:`active_features` (the reason is logged at debug level).
        ``reference=True`` forces the interpreted kernel, which steps
        every cycle (only the typed kernel skips idle cycles): it is the
        reference path the correctness harness compares the typed
        kernel against.  The backend that ran is recorded in
        :attr:`kernel_backend`.

        Observers (telemetry hub, invariant checker) point back at the
        simulator until the run ends, also when the kernel raises, so a
        failed run leaves no reference cycle behind.
        """
        params = self.params
        if workload_name:
            self.workload_name = workload_name
        target = params.warmup_instructions + params.sim_instructions
        warmup = params.warmup_instructions
        guard = _CYCLE_GUARD_FACTOR * target + 100_000
        if (
            params.warmup_mode == "functional"
            and warmup > 0
            and not self._measuring
            and self.backend.committed == 0
        ):
            functional_warmup(self)
            self._begin_measurement()
        ok = False
        if not reference:
            ok, reason = supported(self)
            if not ok:
                log.debug(
                    "kernel fallback for %s [%s]: %s",
                    self.workload_name or "<unnamed>",
                    params.label(),
                    reason,
                )
        try:
            if ok:
                self.kernel_backend = backend_name()
                typed_kernel(self, target, warmup, guard)
            else:
                self.kernel_backend = "interp"
                kernel = build_kernel(self.active_features())
                kernel(self, target, warmup, guard)
        except BaseException:
            if self.telemetry is not None:
                self.telemetry.detach()
            if self.checker is not None:
                self.checker.sim = None
            raise
        if not self._measuring:
            self._begin_measurement()
        result = RunResult(
            workload=workload_name,
            label=params.label(),
            params=params,
            instructions=self.backend.committed - self._measure_start_committed,
            cycles=max(self.cycle - self._measure_start_cycle, 1),
            stats=self.stats,
        )
        if self.telemetry is not None:
            self.telemetry.finalize(self, result)
        if self.checker is not None:
            self.checker.check_end(result)
        if self.profiler is not None:
            self.profiler.finalize(self, result)
        return result

def simulate(
    workload: WorkloadSpec | str, params: SimParams, telemetry=None, profiler=None
) -> RunResult:
    """Convenience wrapper: generate the trace and run one simulation.

    ``telemetry`` (a :class:`repro.common.telemetry.Telemetry`) opts the
    run into the telemetry-instrumented cycle kernel; ``profiler`` (a
    :class:`repro.core.prof.StageProfiler`) into the stage-profiled
    one; ``None`` keeps the uninstrumented fast path.
    """
    n = params.warmup_instructions + params.sim_instructions
    program, stream = make_trace(workload, n)
    sim = Simulator(params, program, stream, telemetry=telemetry, profiler=profiler)
    if isinstance(workload, str):
        # Record the canonical registry name, not the argument spelling
        # (a trace file path resolves to its registered source name).
        try:
            name = resolve_workload(workload).name
        except KeyError:
            name = workload
    else:
        name = workload.name
    return sim.run(workload_name=name)
