"""Batched lockstep simulation of N independent instances.

A parameter sweep runs many simulations of the *same* workload trace
with different configurations.  Each instance is fully independent --
the only shared objects are the immutable program image, the oracle
stream, and their compiled metadata
(:class:`~repro.trace.fbmeta.FetchBlockMeta` /
:class:`~repro.trace.fbmeta.StreamMeta`) -- so a batch shares one trace
generation and one metadata compilation across all members, and the
lockstep interleaving keeps the shared read-only arrays hot across
instances instead of re-walking them one full run at a time.

:class:`BatchKernelBuilder` sits beside the scalar memoising kernel
builder (:func:`repro.core.schedule.build_kernel`): it emits, per
active-feature set, the *stepping* form of the same schedule-composed
loop body (:func:`repro.core.schedule.build_step_kernel`) and drives
one generator per instance round-robin, one simulated cycle per turn.
Because the per-cycle source is generated from the same
:data:`~repro.core.schedule.CYCLE_SCHEDULE` declaration, a batched run
is bit-identical to N scalar runs by construction (pinned by
``tests/test_batch.py`` across every registered predictor/prefetcher
combination and by the fuzzer's ``batched_scalar_identity`` property).

Scalar fallback: a config is *batchable* unless an observing subsystem
needs the run to itself -- an attached telemetry hub (one hub serves
one run) or the per-cycle invariant checker (diagnostic path, kept on
the scalar kernel where failures attribute to a single instance).  The
sweep runner checks :func:`batchable` per point and falls back to the
scalar path for the rest; mixed feature sets within one batch are fine
because every instance steps its own specialized kernel.

Batching always drives the *interpreted* stepping kernels: the flat
typed kernel (:mod:`repro.core.typed`) has no stepping form, and the
sweep runner prefers the typed scalar path for typed-eligible points
anyway (``_plan_batches``), so batches are formed only from points the
typed backend would not take.  A
batched run therefore leaves each instance's ``kernel_backend`` at
``interp``, and stays bit-identical to scalar runs of either backend.
"""

from __future__ import annotations

from repro.common.params import SimParams
from repro.core.metrics import RunResult
from repro.core.schedule import build_step_kernel
from repro.core.simulator import Simulator
from repro.trace.workloads import WorkloadSpec, make_trace


def batchable(params: SimParams, telemetry=None, profiler=None) -> tuple[bool, str]:
    """Whether a config can join a lockstep batch.

    Returns ``(ok, reason)``; ``reason`` names the scalar-fallback
    trigger when ``ok`` is False (see the module docstring).
    """
    if telemetry is not None:
        return False, "telemetry hub attached (one hub serves one run)"
    if profiler is not None:
        return False, "stage profiler attached (per-instance self-time attribution)"
    if params.check_invariants:
        return False, "per-cycle invariant checking (diagnostic scalar path)"
    return True, ""


class BatchKernelBuilder:
    """Builds and drives lockstep batches of simulator instances.

    The builder is stateless apart from the process-wide step-kernel
    memo it shares with :func:`~repro.core.schedule.build_step_kernel`;
    one instance (:data:`BATCH_BUILDER`) serves the whole process.
    """

    def launch(self, sim: Simulator, workload_name: str = ""):
        """Prepare ``sim`` and return its stepping generator.

        Equivalent to the prologue of :meth:`Simulator.run` (functional
        warmup included) followed by instantiating the stepping kernel;
        the caller drives the generator to exhaustion and then calls
        ``sim._finish_run``.
        """
        target, warmup, guard = sim._prepare_run(workload_name)
        kernel = build_step_kernel(sim.active_features())
        return kernel(sim, target, warmup, guard)

    def run_batch(
        self, sims: list[Simulator], workload_names: list[str] | None = None
    ) -> list[RunResult]:
        """Advance ``sims`` in lockstep until every instance finishes.

        One simulated cycle per instance per round; an instance that
        reaches its target drops out of the rotation (StopIteration)
        while the rest keep stepping.  Results are returned in input
        order, each identical to what ``sims[i].run(names[i])`` would
        have produced.
        """
        if workload_names is None:
            workload_names = [""] * len(sims)
        if len(workload_names) != len(sims):
            raise ValueError("need one workload name per simulator")
        live = [
            (i, self.launch(sim, name))
            for i, (sim, name) in enumerate(zip(sims, workload_names))
        ]
        while live:
            still = []
            for item in live:
                try:
                    next(item[1])
                except StopIteration:
                    continue
                still.append(item)
            live = still
        return [
            sim._finish_run(name) for sim, name in zip(sims, workload_names)
        ]


BATCH_BUILDER = BatchKernelBuilder()
"""The process-wide batch builder."""


def run_batch(
    sims: list[Simulator], workload_names: list[str] | None = None
) -> list[RunResult]:
    """Module-level convenience over :data:`BATCH_BUILDER`."""
    return BATCH_BUILDER.run_batch(sims, workload_names)


def simulate_batch(
    workload: WorkloadSpec | str, params_list: list[SimParams]
) -> list[RunResult]:
    """Generate one shared trace and run ``params_list`` over it in batch.

    Every config must need the same trace length (equal warmup + sim
    instructions) so all instances predict against the *same* oracle
    stream -- a longer stream changes BPU run-ahead behaviour near the
    stream end, which would break bit-identity with scalar runs of the
    shorter trace.  Non-batchable configs are rejected; group them out
    with :func:`batchable` first.
    """
    if not params_list:
        return []
    lengths = {p.warmup_instructions + p.sim_instructions for p in params_list}
    if len(lengths) != 1:
        raise ValueError(
            f"batch members need one shared trace length, got {sorted(lengths)}"
        )
    for p in params_list:
        ok, reason = batchable(p)
        if not ok:
            raise ValueError(f"config {p.label()!r} is not batchable: {reason}")
    program, stream = make_trace(workload, lengths.pop())
    name = workload if isinstance(workload, str) else workload.name
    sims = [Simulator(p, program, stream) for p in params_list]
    return run_batch(sims, [name] * len(sims))
