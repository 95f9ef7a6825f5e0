"""Top-level cycle-accurate simulator.

Wires together the decoupled FDP frontend (BPU -> FTQ -> fetch), the
instruction memory hierarchy, an optional dedicated prefetcher, and the
consuming backend, then runs the oracle stream through it.

``Simulator.__init__`` builds every component straight from its
parameters: the history policy and direction predictor the enums name
(Table V, Fig 12), a two-level BTB exactly when ``btb_l1_entries`` is
set (Section II-B), and the :data:`repro.prefetch.PREFETCHERS` entry
``params.prefetcher`` names.  Observers attach through
``trainer.add_branch_listener`` (committed branches) and
``sim.observables`` (the components a telemetry hub instruments).

Two kernels run the cycle loop.  :func:`reference_kernel`, written out
below, steps every cycle through the six pipeline stages in reverse
pipeline order -- memory fill, backend retire, fetch, predict, probe
and the dedicated prefetcher -- and calls the observers (telemetry hub,
invariant checker, stage profiler) only when they are attached.
Observers only *observe*, so traced, checked and profiled runs stay
bit-identical to plain runs (pinned by the fuzzer's bit-identity
properties).  Runs without an observer take the flat typed kernel
(:mod:`repro.core.typedkern`) instead, the only kernel that skips idle
cycles, and the reference kernel is what it is checked against.
"""

from __future__ import annotations

import weakref

from repro.branch.btb import BTB
from repro.branch.btb2l import TwoLevelBTB
from repro.branch.gshare import Gshare
from repro.branch.history import HistoryManager
from repro.branch.ittage import ITTAGE
from repro.branch.loop import LoopPredictor
from repro.branch.perceptron import Perceptron
from repro.branch.tage import TAGE, TageConfig
from repro.common.log import get_logger
from repro.common.params import BranchPredictorParams, DirectionPredictorKind, SimParams
from repro.common.stats import StatSet
from repro.core.backend import Backend, CommitTrainer, DecodeQueue
from repro.core.metrics import RunResult
from repro.core.typed import backend_name, supported, typed_kernel
from repro.core.warmup import functional_warmup
from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.fetch import FetchUnit
from repro.frontend.ftq import FTQ
from repro.memory.hierarchy import InstructionMemory
from repro.prefetch import PREFETCHERS, build_profile
from repro.trace.cfg import Program
from repro.trace.fbmeta import stream_meta
from repro.trace.oracle import OracleStream
from repro.trace.source import resolve_workload
from repro.trace.workloads import WorkloadSpec, make_trace

_CYCLE_GUARD_FACTOR = 400
"""A run exceeding this many cycles per instruction indicates a livelock."""

log = get_logger("core.simulator")


def _direction_predictor(branch: BranchPredictorParams, hist_bits: int):
    """The conditional direction predictor ``branch`` selects (Fig 12).

    ``None`` under perfect direction prediction: the oracle stream
    supplies every outcome.
    """
    if branch.perfect_direction:
        return None
    kind = branch.direction_kind
    if kind is DirectionPredictorKind.TAGE:
        return TAGE(TageConfig.for_budget_kib(branch.tage_storage_kib, hist_bits))
    if kind is DirectionPredictorKind.GSHARE:
        return Gshare(branch.gshare_storage_kib)
    return Perceptron(branch.gshare_storage_kib)


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
        """Optional :class:`repro.core.prof.StageProfiler`; the reference
        kernel times each stage call into it."""
        self.kernel_backend = "interp"
        """Which cycle-loop backend the last :meth:`run` selected:
        ``typed-compiled`` / ``typed-python`` / ``interp``.  A run takes
        ``interp`` only under an observer (telemetry, checker, profiler)
        or as the ``reference=True`` run; the value stays ``interp``
        until a run decides otherwise."""
        branch = params.branch
        self.stats = StatSet()
        self.memory = InstructionMemory(params.memory, self.stats)
        self._prewarm_l2(program)

        if branch.btb_l1_entries:
            self.btb = TwoLevelBTB(
                branch.btb_l1_entries,
                branch.btb_l1_assoc,
                branch.btb_entries,
                branch.btb_assoc,
                branch.btb_l2_extra_latency,
            )
        else:
            self.btb = BTB(branch.btb_entries, branch.btb_assoc)
        self.ittage = ITTAGE(branch.ittage_entries, branch.history_bits)

        policy = params.frontend.history_policy
        hist_bits = (
            branch.history_bits if policy.uses_target_history else branch.direction_history_bits
        )
        self.hist_mgr = HistoryManager(policy, hist_bits)
        self.direction = _direction_predictor(branch, hist_bits)
        self.loop = (
            LoopPredictor(branch.loop_predictor_entries) if branch.loop_predictor_entries else None
        )
        # TAGE and ITTAGE keep the histories they fold in software in the
        # stream's fold stores, under every policy.  Under THR and Ideal
        # the committed-path histories are known from the trace; they
        # read those folds from bulk rows, and TAGE trains from the
        # stream's record of its training.
        smeta = stream_meta(stream)
        if isinstance(self.direction, TAGE):
            self.direction.use_fold_store(smeta)
        self.ittage.use_fold_store(smeta)
        arch = smeta.arch_histories(self.hist_mgr)
        if arch is not None:
            if isinstance(self.direction, TAGE):
                self.direction.use_arch_histories(arch)
            if type(self.direction) is TAGE:
                # A subclass may change the rules the record replays.
                record = smeta.tage_record(self.hist_mgr, self.direction.config)
                if record is not None:
                    self.direction.bind_record(record)
            self.ittage.use_arch_histories(arch)

        self.ftq = FTQ(params.frontend.ftq_entries)
        self.decode_queue = DecodeQueue(params.frontend.decode_queue_size)
        self.trainer = CommitTrainer(
            stream=stream,
            mgr=self.hist_mgr,
            btb=self.btb,
            direction=self.direction,
            ittage=self.ittage,
            stats=self.stats,
            train_direction=not branch.perfect_direction,
            loop=self.loop,
        )
        self.backend = Backend(
            params, self.decode_queue, self.trainer, self.stats, _weak_flush(self)
        )
        self.bpu = BranchPredictionUnit(
            params, program, stream, self.btb, self.direction, self.ittage, self.hist_mgr,
            self.stats,
        )
        self.bpu.loop = self.loop

        self.memory.perfect = params.prefetcher == "perfect"
        self.prefetcher = None
        if params.prefetcher in PREFETCHERS:
            self.prefetcher = PREFETCHERS[params.prefetcher](
                params, self.memory, self.btb, program, self.stats
            )
            if params.prefetcher == "profile_guided":
                # Software prefetching: the offline profiling pass runs
                # over the warmup window only, like training on a
                # separate profiling run.
                self.prefetcher.profile = build_profile(
                    stream,
                    training_instructions=max(params.warmup_instructions, 1_000),
                    l1i_lines=params.memory.l1i_lines,
                    assoc=params.memory.l1i_assoc,
                    line_bytes=params.memory.line_bytes,
                )
            self.trainer.add_branch_listener(self.prefetcher.on_commit_branch)

        self.fetch = FetchUnit(
            params=params,
            program=program,
            stream=stream,
            ftq=self.ftq,
            memory=self.memory,
            bpu=self.bpu,
            hist_mgr=self.hist_mgr,
            direction=self.direction,
            decode_queue=self.decode_queue,
            stats=self.stats,
            prefetcher=self.prefetcher,
        )

        self.observables = {
            "ftq": self.ftq,
            "bpu": self.bpu,
            "fetch": self.fetch,
            "backend": self.backend,
            "memory": self.memory,
        }
        """The components a telemetry hub instruments."""
        if self.prefetcher is not None:
            self.observables["prefetcher"] = self.prefetcher

        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self)
        self.checker = None
        if params.check_invariants:
            # Imported lazily: the check layer is opt-in tooling and the
            # core simulator must not depend on it by default.
            from repro.check.invariants import InvariantChecker

            self.checker = InvariantChecker(self)

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
        if self.loop is not None:
            self.loop.flush_spec()
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
    def _livelock_error(self, target: int) -> RuntimeError:
        """Build the livelock RuntimeError with full run attribution.

        Includes the workload name, committed/target progress and the
        key parameters so a failure inside a sweep worker is
        attributable without re-running it.
        """
        params = self.params
        return RuntimeError(
            f"livelock: workload {self.workload_name or '<unnamed>'!r} "
            f"[{params.label()}] stuck after {self.cycle} cycles with "
            f"{self.backend.committed}/{target} instructions committed "
            f"(warmup={params.warmup_instructions}, sim={params.sim_instructions}); "
            f"prefetcher={params.prefetcher!r}, "
            f"ftq_entries={params.frontend.ftq_entries}, "
            f"btb_entries={params.branch.btb_entries}, "
            f"btb_l1_entries={params.branch.btb_l1_entries}, "
            f"history={params.frontend.history_policy.value!r}"
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
        :func:`repro.core.typed.supported` holds, and otherwise
        :func:`reference_kernel` (the reason is logged at debug level).
        ``reference=True`` forces the reference kernel, which steps
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
                build_kernel(self)(self, target, warmup, guard)
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


def _weak_flush(sim: Simulator):
    """``sim._on_flush`` as a callback that does not keep ``sim`` alive.

    ``sim`` owns the backend, so handing the backend the bound method
    would put every simulator in a reference cycle, freed only by a
    full cyclic-GC pass; with a weak reference it is freed as soon as
    its last user drops it.
    """
    ref = weakref.ref(sim)

    def flush(fault, cycle: int) -> None:
        ref()._on_flush(fault, cycle)

    return flush


def reference_kernel(sim: Simulator, target: int, warmup: int, guard: int) -> None:
    """Step ``sim`` cycle by cycle until ``target`` instructions commit.

    Each cycle runs the stages back to front, so retire and fetch see
    what the stage behind them produced in the previous cycle; the probe
    stage runs after predict, so a new FTQ entry can probe in the cycle
    it was pushed:

    1. ``memory_fill`` -- completed fills wake their FTQ entries;
    2. ``backend_retire`` -- the backend consumes the decode queue and
       may flush on a misprediction;
    3. ``fetch`` -- head FTQ entries feed the decode queue (PFC fires);
    4. ``predict`` -- the BPU pushes new FTQ entries;
    5. ``probe`` -- FTQ entries probe the I-TLB and I-cache tags;
    6. ``prefetch`` -- the dedicated prefetcher issues, if one is built.

    Measurement begins once ``warmup`` instructions have committed, and
    a run past ``guard`` cycles raises the livelock error.  The
    telemetry hub (clock, then ``telemetry_tick`` after retire) and the
    invariant checker (``invariant_sweep`` after the stages) are called
    only when attached; a stage profiler times every stage call.  The
    stage methods are bound once: the measurement boundary replaces
    only ``.stats`` attributes, never the components.
    """
    backend = sim.backend
    ftq = sim.ftq
    memory_tick = sim.memory.tick
    complete_fills = sim.fetch.complete_fills
    backend_cycle = backend.cycle
    fetch_stage = sim.fetch.fetch_stage
    bpu_cycle = sim.bpu.cycle
    probe_stage = sim.fetch.probe_stage
    prefetcher_cycle = sim.prefetcher.cycle if sim.prefetcher is not None else None
    check_cycle = sim.checker.check_cycle if sim.checker is not None else None
    tel = sim.telemetry
    tel_tick = tel.tick if tel is not None else None
    if sim.profiler is not None:
        timed = sim.profiler.timed
        memory_tick = timed("memory_fill", memory_tick)
        complete_fills = timed("memory_fill", complete_fills)
        backend_cycle = timed("backend_retire", backend_cycle)
        fetch_stage = timed("fetch", fetch_stage)
        bpu_cycle = timed("predict", bpu_cycle)
        probe_stage = timed("probe", probe_stage)
        if prefetcher_cycle is not None:
            prefetcher_cycle = timed("prefetch", prefetcher_cycle)
        if check_cycle is not None:
            check_cycle = timed("invariant_sweep", check_cycle)
        if tel_tick is not None:
            tel_tick = timed("telemetry_tick", tel_tick)
    cycle = sim.cycle
    while backend.committed < target:
        if tel is not None:
            tel.now = cycle
            before = backend.committed
        fills = memory_tick(cycle)
        if fills:
            complete_fills(fills, cycle)
        backend_cycle(cycle)
        if not sim._measuring and backend.committed >= warmup:
            sim.cycle = cycle
            sim._begin_measurement()
        if tel is not None:
            tel_tick(cycle, backend.committed - before, sim._measuring)
        fetch_stage(cycle)
        bpu_cycle(cycle, ftq)
        probe_stage(cycle)
        if prefetcher_cycle is not None:
            prefetcher_cycle(cycle)
        if check_cycle is not None:
            check_cycle(cycle)
        cycle += 1
        if cycle > guard:
            sim.cycle = cycle
            raise sim._livelock_error(target)
    sim.cycle = cycle


def build_kernel(sim: Simulator):
    """The reference kernel for ``sim``: always :func:`reference_kernel`.

    ``Simulator.run`` reaches the loop through this name so that
    perfbench's layer tracer can rebind it to time reference runs.
    """
    return reference_kernel


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
