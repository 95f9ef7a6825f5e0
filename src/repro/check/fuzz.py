"""Seeded config/program fuzzer (``repro check --fuzz N --seed S``).

Each trial derives, from one integer seed, a random synthetic program
(a :class:`~repro.trace.cfg.ProgramSpec` drawn from wide-but-valid
ranges) and a random-but-valid :class:`~repro.common.params.SimParams`
point (FTQ depth, BTB geometry, history policy, direction predictor,
PFC on/off, prefetcher choice, warmup mode, ...), then runs the
simulator under the full correctness harness:

* **invariants + differential** -- the primary run executes with
  :mod:`repro.check.invariants` sweeping every cycle and the commit
  stream checked branch-by-branch against an independently regenerated
  oracle (:mod:`repro.check.differential`);
* **checked == unchecked** -- a plain re-run must be bit-identical in
  every counter (the check layer only observes);
* **typed == interp** -- when the plain run took the typed flat kernel
  (:mod:`repro.core.typed`), a re-run on the interpreted reference
  kernel must be bit-identical in every counter (the typed kernel is an
  optimisation, never a semantic change);
* **traced == untraced** -- a telemetry re-run must match once the
  telemetry-only counters are stripped;
* **functional == cycle warmup** -- measured IPC of the two warmup
  modes agrees within :data:`WARMUP_IPC_TOLERANCE` (the catalogue pins
  2% at realistic windows; fuzz windows are tiny and noisier);
* **perfect BTB helps** -- a perfect-BTB run's IPC is not materially
  below the finite-BTB run (slack :data:`PERFECT_BTB_SLACK`: a perfect
  BTB also exposes never-taken conditionals to the direction predictor,
  so tiny windows can pay small transient penalties);
* **parallel == serial** -- every ``parallel_every``-th trial re-runs
  in a worker process and must be bit-identical;
* **sweep specs round-trip** -- a random declarative sweep spec
  (:mod:`repro.check.sweepdiff`) expands deterministically, survives a
  ``to_dict``/``parse_spec`` round trip, and shard-partitions with no
  lost, duplicated or skewed points (checked first: simulation-free).
* **bulk folds == scalar folds** -- for every history policy, a
  simulator built on the trial's stream gets bulk fold rows
  (:meth:`repro.trace.fbmeta.StreamMeta.arch_histories`) exactly when
  the policy's commit history ignores BTB detection, and every row of
  its TAGE and ITTAGE geometry equals :func:`repro.common.bits.fold`
  (simulation-free); after the trial's runs, so does every row those
  runs left in the stream's fold stores
  (:meth:`repro.trace.fbmeta.StreamMeta.fold_store`).
* **mutated traces decode or fail cleanly** -- the trial's stream,
  written as a raw ChampSim trace and mutated from the trial seed (bit
  flips, a truncation or one random 64-byte record), either fails
  :func:`~repro.trace.workloads.make_trace` with a
  :class:`~repro.trace.champsim.TraceFormatError` (leaving the cyclic
  collector as it was) or decodes to at most the file's records and
  runs clean under invariants and the differential check.

Failures are minimised (greedy parameter shrinking toward defaults)
and dumped as a JSON reproducer (:mod:`repro.check.reproducer`) so any
violation is a one-command repro.
"""

from __future__ import annotations

import gc
import random
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from repro.common.bits import fold
from repro.common.params import (
    BranchPredictorParams,
    CoreParams,
    DirectionPredictorKind,
    FrontendParams,
    HistoryPolicy,
    MemoryParams,
    SimParams,
    params_from_dict,
)
from repro.common.telemetry import Telemetry, TelemetryConfig
from repro.core.simulator import Simulator
from repro.prefetch import prefetcher_names
from repro.trace.cfg import ProgramSpec, generate_program
from repro.trace.fbmeta import stream_meta
from repro.trace.champsim import (
    RECORD_BYTES,
    ChampSimTrace,
    TraceFormatError,
    write_champsim_trace,
)
from repro.trace.oracle import OracleStream, run_oracle
from repro.trace.workloads import TRACE_SLACK, collector_paused, make_trace

from repro.check.differential import (
    CommitRecorder,
    _end_state_problems,
    flatten_branches,
    run_differential,
)
from repro.check.reproducer import failure_to_dict

WARMUP_IPC_TOLERANCE = 0.30
"""Relative IPC tolerance between functional and cycle warmup on fuzz
trials.  Fuzz windows are a few thousand instructions, so the bounded
second-order warmup differences (docs/PERFORMANCE.md) are far noisier
than on the catalogue, where tests pin 2%."""

PERFECT_BTB_SLACK = 0.05
"""A perfect BTB must not *lose* more than this fraction of IPC, with
direction and indirect prediction held perfect in both runs.  Holding
the predictors perfect isolates the detection/reach benefit the
property is about: without it, perfect detection also exposes
random-target indirects and random conditionals to the real
predictors, which can legitimately cost more than the detection gains
on adversarial programs.  The residual slack absorbs wrong-path-fill
warming: a finite-BTB run's undetected-branch resteers briefly fetch
fall-through lines that can act as accidental next-line prefetches."""

MINIMIZE_BUDGET = 24
"""Maximum re-runs spent shrinking a failing trial."""

_TELEMETRY_ONLY = ("prefetch_inflight_end", "prefetch_resident_end")
"""Counters only a telemetry run writes (plus the ``cyc_*`` family)."""


@dataclass(frozen=True)
class FuzzTrial:
    """One deterministic trial: everything regenerates from this."""

    seed: int
    spec: ProgramSpec
    program_seed: int
    oracle_seed: int
    params: SimParams


@dataclass
class FuzzFailure:
    """A violated property, with its (possibly minimised) trial."""

    trial: FuzzTrial
    prop: str
    message: str

    def to_dict(self) -> dict:
        t = self.trial
        return failure_to_dict(
            t.seed, self.prop, self.message, t.spec, t.program_seed, t.oracle_seed, t.params
        )


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign."""

    trials_run: int
    failure: FuzzFailure | None
    minimize_attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


# ----------------------------------------------------------------------
# Random generation (all via one random.Random so trials are seed-stable)
# ----------------------------------------------------------------------
def random_spec(rng: random.Random) -> ProgramSpec:
    """Draw a random-but-valid program spec."""
    # Terminator mixture: scale a random simplex to <= 0.9 total.
    weights = [rng.random() for _ in range(6)]
    scale = rng.uniform(0.4, 0.9) / sum(weights)
    cond, jump, call, ijump, icall, eret = (w * scale for w in weights)
    # Conditional behaviours: a random simplex summing to exactly 1.
    beh = [rng.random() + 0.05 for _ in range(4)]
    beh_total = sum(beh)
    never, mostly, pattern = (b / beh_total for b in beh[:3])
    block_lo = rng.randint(2, 4)
    instr_lo = rng.randint(1, 3)
    n_functions = rng.randint(20, 120)
    return ProgramSpec(
        n_functions=n_functions,
        blocks_per_function=(block_lo, block_lo + rng.randint(1, 8)),
        instrs_per_block=(instr_lo, instr_lo + rng.randint(1, 9)),
        cond_fraction=cond,
        jump_fraction=jump,
        call_fraction=call,
        indirect_jump_fraction=ijump,
        indirect_call_fraction=icall,
        early_return_fraction=eret,
        loops_per_function=(0, rng.randint(0, 2)),
        loop_trip=(2, rng.randint(3, 24)),
        frac_never_taken=never,
        frac_mostly_taken=mostly,
        frac_pattern=pattern,
        frac_random=max(0.0, 1.0 - never - mostly - pattern),
        pattern_len=(2, rng.randint(3, 9)),
        indirect_fanout=(2, rng.randint(2, 5)),
        call_budget=rng.choice([150, 300, 400, 600]),
        n_phases=rng.randint(2, 4),
        functions_per_phase=min(n_functions - 1, rng.randint(4, 20)),
        phase_repeats=rng.randint(1, 3),
    )


def random_params(rng: random.Random) -> SimParams:
    """Draw a random-but-valid simulation parameter point."""
    fetch_width = rng.choice([4, 6, 8])
    block_bytes = rng.choice([16, 32])
    line_bytes = rng.choice([32, 64])
    if block_bytes > line_bytes:
        block_bytes = line_bytes  # an FTQ entry must fit one cache line
    frontend = FrontendParams(
        ftq_entries=rng.choice([2, 4, 8, 16, 24, 32]),
        fetch_width=fetch_width,
        predict_width=fetch_width * 2,
        max_taken_per_cycle=rng.choice([1, 1, 2]),
        decode_queue_size=rng.choice([32, 64]),
        fetch_probe_width=rng.randint(1, 3),
        pfc_enabled=rng.random() < 0.5,
        history_policy=rng.choice(list(HistoryPolicy)),
        block_bytes=block_bytes,
        wrong_path_fills=rng.random() < 0.85,
    )
    btb_entries = rng.choice([384, 512, 1024, 2048, 8192])
    branch = BranchPredictorParams(
        direction_kind=rng.choice(
            [
                DirectionPredictorKind.TAGE,
                DirectionPredictorKind.TAGE,
                DirectionPredictorKind.GSHARE,
                DirectionPredictorKind.PERCEPTRON,
                DirectionPredictorKind.PERFECT,
            ]
        ),
        tage_storage_kib=rng.choice([9, 18, 36]),
        btb_entries=btb_entries,
        btb_assoc=4,
        btb_latency=rng.randint(1, 3),
        btb_l1_entries=rng.choice([0, 0, 0, 256]) if btb_entries > 256 else 0,
        perfect_direction=rng.random() < 0.1,
        perfect_indirect=rng.random() < 0.1,
        loop_predictor_entries=rng.choice([0, 0, 64]),
        ras_entries=rng.choice([16, 64]),
    )
    memory = MemoryParams(
        l1i_kib=rng.choice([16, 32]),
        l1i_assoc=rng.choice([4, 8]),
        line_bytes=line_bytes,
        l2_kib=rng.choice([256, 1024]),
        mshr_entries=rng.choice([2, 4, 8, 16]),
        itlb_entries=rng.choice([16, 64]),
    )
    core = CoreParams(
        retire_width=rng.choice([4, 6, 8]),
        mispredict_penalty=rng.choice([8, 14, 20]),
    )
    prefetchers = ["none", "none", "none", "perfect", *prefetcher_names()]
    return SimParams(
        frontend=frontend,
        branch=branch,
        memory=memory,
        core=core,
        warmup_instructions=rng.choice([0, 500, 1500, 3000]),
        sim_instructions=rng.randint(2500, 6000),
        prefetcher=rng.choice(prefetchers),
        warmup_mode=rng.choice(["cycle", "functional"]),
        check_invariants=True,
    )


def build_trial(seed: int) -> FuzzTrial:
    """Derive one trial deterministically from its seed."""
    rng = random.Random(seed)
    spec = random_spec(rng)
    program_seed = rng.randint(1, 2**31)
    oracle_seed = rng.randint(1, 2**31)
    params = random_params(rng)
    return FuzzTrial(seed, spec, program_seed, oracle_seed, params)


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------
def _materialize(trial: FuzzTrial):
    """(program, stream) for a trial, regenerated deterministically."""
    program = generate_program(trial.spec, trial.program_seed)
    n = trial.params.warmup_instructions + trial.params.sim_instructions
    stream = run_oracle(program, n + TRACE_SLACK, trial.oracle_seed)
    return program, stream


def _run(params: SimParams, program, stream, telemetry=None):
    """One simulation; returns (result, sim)."""
    sim = Simulator(params, program, stream, telemetry=telemetry)
    result = sim.run()
    return result, sim


def arch_fold_problem(params: SimParams, program, stream) -> str | None:
    """Property 10: the bulk fold rows a simulator reads are the scalar folds.

    Builds (never runs) one simulator per history policy on ``stream``,
    with a TAGE direction predictor so its geometry is always covered.
    Rows must be attached exactly when the policy's commit history
    ignores BTB detection, and every attached row of TAGE and ITTAGE
    must equal :func:`~repro.common.bits.fold` of the masked history
    and of the masked history times 3.  Returns the first mismatch.
    """
    branch = replace(
        params.branch, direction_kind=DirectionPredictorKind.TAGE, perfect_direction=False
    )
    for policy in HistoryPolicy:
        sim = Simulator(
            params.replace(check_invariants=False, branch=branch).with_frontend(
                history_policy=policy
            ),
            program,
            stream,
        )
        for predictor in (sim.direction, sim.ittage):
            name = f"{policy.value} {type(predictor).__name__}"
            rows = predictor._arch_rows
            if (rows is not None) != sim.hist_mgr.ignores_detection:
                return f"{name}: bulk rows attached={rows is not None}"
            if rows is None:
                continue
            geometry = (predictor.lengths, predictor._idx_bits, predictor._tag_bits)
            for hist, row in predictor._arch_index.items():
                if rows[row].tolist() != _scalar_fold_row(hist, *geometry):
                    return f"{name}: row {row} (history {hist:#x}) differs from the scalar folds"
    return None


def fold_store_problem(stream) -> str | None:
    """Property 10, after the trial's runs: every row those runs left in
    the stream's fold stores (:meth:`~repro.trace.fbmeta.StreamMeta.fold_store`)
    equals the scalar folds of its history.  Returns the first mismatch."""
    for geometry, store in stream_meta(stream)._fold_stores.items():
        for hist, row in store.items():
            if list(row) != _scalar_fold_row(hist, *geometry):
                return f"fold store of lengths {geometry[0]}: history {hist:#x} differs from the scalar folds"
    return None


def _scalar_fold_row(hist: int, lengths, idx_bits: int, tag_bits: int) -> list[int]:
    """:func:`~repro.common.bits.fold` of ``hist`` masked to each length,
    and of that times 3, in the flat layout of a fold row."""
    row = []
    for length in lengths:
        masked = hist & ((1 << length) - 1)
        row += (fold(masked, idx_bits), fold(masked * 3, tag_bits))
    return row


def mutate_trace(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One seeded mutation of raw trace bytes: ``(description, mutant)``.

    Bit flips, a truncation (record-aligned half the time, so the
    decoder also sees short but well-formed files) or one 64-byte
    record overwritten with random bytes.
    """
    mutant = bytearray(data)
    kind = rng.choice(("bit_flips", "truncation", "random_record"))
    if kind == "bit_flips":
        flips = [(rng.randrange(len(mutant)), rng.randrange(8)) for _ in range(rng.randint(1, 8))]
        for offset, bit in flips:
            mutant[offset] ^= 1 << bit
        return f"bit flips (byte, bit) {flips}", bytes(mutant)
    if kind == "truncation":
        size = rng.randrange(len(mutant))
        if rng.random() < 0.5:
            size -= size % RECORD_BYTES
        return f"truncated to {size} of {len(mutant)} bytes", bytes(mutant[:size])
    record = rng.randrange(len(mutant) // RECORD_BYTES)
    start = record * RECORD_BYTES
    mutant[start : start + RECORD_BYTES] = rng.randbytes(RECORD_BYTES)
    return f"random record #{record}", bytes(mutant)


def decode_mutant_problem(trial: FuzzTrial, stream: OracleStream) -> str | None:
    """Property 11: a mutated ChampSim trace decodes or fails cleanly.

    Writes ``stream`` as a raw ``.champsim`` file, applies
    :func:`mutate_trace` seeded from the trial, and materialises the
    mutant through :func:`~repro.trace.workloads.make_trace` over the
    trial's window.  A :class:`TraceFormatError` is a clean outcome if
    the collector is left as it was; a decoded trace must hold no more
    instructions than the file has records and must run clean under
    invariants and the differential check against an independent
    re-decode.  Any other exception is a failure.
    """
    n = trial.params.warmup_instructions + trial.params.sim_instructions
    rng = random.Random(f"decode-mutant-{trial.seed}")
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-decode-") as tmp:
        path = Path(tmp) / "mutant.champsim"
        write_champsim_trace(path, stream)
        mutation, data = mutate_trace(path.read_bytes(), rng)
        path.write_bytes(data)
        source = ChampSimTrace(str(path))
        collector_enabled = gc.isenabled()
        try:
            try:
                program, decoded = make_trace(source, n)
            except TraceFormatError:
                if gc.isenabled() != collector_enabled:
                    return f"{mutation}: TraceFormatError left the cyclic collector toggled"
                return None
            records = len(data) // RECORD_BYTES
            if decoded.total_instructions > records - 1:
                return (
                    f"{mutation}: decoded {decoded.total_instructions} instructions "
                    f"from {records} records"
                )
            with collector_paused():
                expected = source.expected_stream(n)
            run_differential(
                trial.params.replace(check_invariants=True),
                program,
                decoded,
                expected,
                workload_name=source.name,
            )
        except Exception as exc:
            return f"{mutation}: {type(exc).__name__}: {exc}"
    return None


def _run_worker(trial: FuzzTrial) -> tuple[int, int, dict]:
    """Process-pool entry point: regenerate and run, plain configuration."""
    program, stream = _materialize(trial)
    params = trial.params.replace(check_invariants=False)
    sim = Simulator(params, program, stream)
    result = sim.run()
    return result.cycles, result.instructions, result.stats.as_dict()


def _strip_telemetry(counters: dict) -> dict:
    return {
        k: v
        for k, v in counters.items()
        if not k.startswith("cyc_") and k not in _TELEMETRY_ONLY
    }


def run_trial(trial: FuzzTrial, pool: ProcessPoolExecutor | None = None) -> FuzzFailure | None:
    """Run one trial under every property; None when all hold."""
    # Property 9 (first: cheap and simulation-free): a random declarative
    # sweep spec expands deterministically, round-trips through its dict
    # form, and shard-partitions with no loss, overlap or skew.
    from repro.check.sweepdiff import check_spec_expansion, random_sweep_spec

    try:
        problem = check_spec_expansion(random_sweep_spec(random.Random(trial.seed)))
    except Exception as exc:
        problem = f"{type(exc).__name__}: {exc}"
    if problem is not None:
        return FuzzFailure(trial, "sweep_spec_roundtrip", problem)

    try:
        program, stream = _materialize(trial)
    except Exception as exc:  # spec ranges are meant to be always-valid
        return FuzzFailure(trial, "generation", f"{type(exc).__name__}: {exc}")

    # Property 10 (simulation-free): bulk fold rows equal scalar folds.
    problem = arch_fold_problem(trial.params, program, stream)
    if problem is not None:
        return FuzzFailure(trial, "bulk_fold_identity", problem)

    n = trial.params.warmup_instructions + trial.params.sim_instructions
    params = trial.params.replace(check_invariants=True)

    # Property 1: invariants + differential oracle agreement.
    try:
        sim = Simulator(params, program, stream)
        expected = run_oracle(program, n + TRACE_SLACK, trial.oracle_seed)
        recorder = CommitRecorder(sim.trainer, flatten_branches(expected))
        result = sim.run()
        problems = _end_state_problems(sim, recorder.expected, recorder)
        if problems:
            return FuzzFailure(trial, "differential_end_state", "\n".join(problems))
    except Exception as exc:
        return FuzzFailure(trial, "invariants_differential", f"{type(exc).__name__}: {exc}")
    base_counters = result.stats.as_dict()

    # Property 2: the check layer only observes (checked == unchecked).
    plain, plain_sim = _run(trial.params.replace(check_invariants=False), program, stream)
    if (
        plain.cycles != result.cycles
        or plain.instructions != result.instructions
        or plain.stats.as_dict() != base_counters
    ):
        return FuzzFailure(
            trial,
            "checked_bit_identity",
            f"checked run differs from unchecked: cycles {result.cycles} vs "
            f"{plain.cycles}, instructions {result.instructions} vs {plain.instructions}",
        )

    # Property 8 (ordering: needs `plain` from property 2): when the
    # plain run took the typed flat kernel, a re-run on the interpreted
    # reference kernel must be bit-identical -- the typed backend is an
    # optimisation, never a semantic change.  Every plain trial takes
    # the typed kernel, dedicated prefetchers included, and the
    # reference kernel steps every cycle, so this pins the typed idle
    # skip and drain against per-cycle stepping, including the skip's
    # empty-queue guard and the drain's stop under a prefetcher.  (The
    # checked-vs-unchecked comparison above crosses backends too.)
    if plain_sim.kernel_backend != "interp":
        interp = Simulator(
            trial.params.replace(check_invariants=False), program, stream
        ).run(reference=True)
        if (
            interp.cycles != plain.cycles
            or interp.instructions != plain.instructions
            or interp.stats.as_dict() != plain.stats.as_dict()
        ):
            return FuzzFailure(
                trial,
                "typed_interp_identity",
                f"typed run ({plain_sim.kernel_backend}) differs from interp: "
                f"cycles {plain.cycles} vs {interp.cycles}, instructions "
                f"{plain.instructions} vs {interp.instructions}",
            )

    # Property 3: telemetry only observes (traced == untraced).
    tel = Telemetry(TelemetryConfig(interval_stride=2_000, ring_capacity=256))
    traced, _ = _run(
        trial.params.replace(check_invariants=False), program, stream, telemetry=tel
    )
    if traced.cycles != result.cycles or _strip_telemetry(
        traced.stats.as_dict()
    ) != _strip_telemetry(base_counters):
        return FuzzFailure(
            trial,
            "traced_bit_identity",
            f"traced run differs from untraced: cycles {traced.cycles} vs {result.cycles}",
        )

    # Property 4: functional and cycle warmup agree on measured IPC.
    if trial.params.warmup_instructions >= 1500:
        other_mode = "cycle" if trial.params.warmup_mode == "functional" else "functional"
        flipped, _ = _run(
            trial.params.replace(check_invariants=False, warmup_mode=other_mode),
            program,
            stream,
        )
        rel = abs(flipped.ipc - result.ipc) / max(result.ipc, 1e-9)
        if rel > WARMUP_IPC_TOLERANCE:
            return FuzzFailure(
                trial,
                "warmup_mode_ipc",
                f"IPC {result.ipc:.4f} ({trial.params.warmup_mode}) vs "
                f"{flipped.ipc:.4f} ({other_mode}): {100 * rel:.1f}% apart "
                f"(tolerance {100 * WARMUP_IPC_TOLERANCE:.0f}%)",
            )

    # Property 5: with perfect direction/indirect prediction in both
    # runs, a perfect BTB must not materially hurt.
    if not trial.params.branch.perfect_btb:
        oracle_pred = replace(
            trial.params.branch, perfect_direction=True, perfect_indirect=True
        )
        finite, _ = _run(
            trial.params.replace(check_invariants=False, branch=oracle_pred),
            program,
            stream,
        )
        perfect, _ = _run(
            trial.params.replace(
                check_invariants=False,
                branch=replace(oracle_pred, perfect_btb=True, btb_l1_entries=0),
            ),
            program,
            stream,
        )
        if perfect.ipc < finite.ipc * (1.0 - PERFECT_BTB_SLACK):
            return FuzzFailure(
                trial,
                "perfect_btb_monotonic",
                f"perfect-BTB IPC {perfect.ipc:.4f} below finite-BTB IPC "
                f"{finite.ipc:.4f} by more than {100 * PERFECT_BTB_SLACK:.0f}% "
                f"(direction/indirect prediction perfect in both runs)",
            )

    # Property 6: a worker process reproduces the run bit-identically.
    if pool is not None:
        w_cycles, w_instrs, w_counters = pool.submit(_run_worker, trial).result()
        if (
            w_cycles != plain.cycles
            or w_instrs != plain.instructions
            or w_counters != plain.stats.as_dict()
        ):
            return FuzzFailure(
                trial,
                "parallel_serial",
                f"worker-process run differs from in-process: cycles "
                f"{w_cycles} vs {plain.cycles}",
            )

    # Property 10, after the runs: the rows the runs above folded in
    # software and kept in the stream's fold stores are the scalar folds.
    problem = fold_store_problem(stream)
    if problem is not None:
        return FuzzFailure(trial, "bulk_fold_identity", problem)

    # Property 11: a mutated ChampSim encoding of the stream decodes to
    # a clean run or fails with a TraceFormatError, nothing else.
    problem = decode_mutant_problem(trial, stream)
    if problem is not None:
        return FuzzFailure(trial, "decode_mutant", problem)
    return None


# ----------------------------------------------------------------------
# Minimisation
# ----------------------------------------------------------------------
def _shrink_candidates(params: SimParams):
    """Yield simpler parameter bundles, most aggressive first."""
    defaults = SimParams()
    if params.prefetcher != "none":
        yield params.replace(prefetcher="none")
    if params.warmup_instructions > 0:
        yield params.replace(warmup_instructions=0)
    if params.sim_instructions > 1000:
        yield params.replace(sim_instructions=max(1000, params.sim_instructions // 2))
    if params.warmup_mode != "cycle":
        yield params.replace(warmup_mode="cycle")
    if params.branch.btb_l1_entries:
        yield params.with_branch(btb_l1_entries=0)
    if params.branch.loop_predictor_entries:
        yield params.with_branch(loop_predictor_entries=0)
    if params.frontend.history_policy is not defaults.frontend.history_policy:
        yield params.with_frontend(history_policy=defaults.frontend.history_policy)
    if not params.frontend.wrong_path_fills:
        yield params.with_frontend(wrong_path_fills=True)
    if params.frontend.pfc_enabled != defaults.frontend.pfc_enabled:
        yield params.with_frontend(pfc_enabled=defaults.frontend.pfc_enabled)
    if params.frontend.ftq_entries > 2:
        yield params.with_frontend(ftq_entries=max(2, params.frontend.ftq_entries // 2))
    if params.memory.mshr_entries < 16:
        yield params.replace(memory=replace(params.memory, mshr_entries=16))
    if params.branch.direction_kind is not defaults.branch.direction_kind:
        yield params.with_branch(direction_kind=defaults.branch.direction_kind)


def minimize(failure: FuzzFailure, budget: int = MINIMIZE_BUDGET) -> tuple[FuzzFailure, int]:
    """Greedily shrink a failing trial's parameters, keeping the failure.

    Re-runs the whole property suite on each candidate; a candidate is
    accepted when *any* property still fails (the failure may shift to a
    simpler property, which is fine -- it is still a violation at a
    simpler point).  Returns the minimised failure and attempts used.
    """
    attempts = 0
    current = failure
    progress = True
    while progress and attempts < budget:
        progress = False
        for candidate_params in _shrink_candidates(current.trial.params):
            if attempts >= budget:
                break
            attempts += 1
            candidate = replace(current.trial, params=candidate_params)
            result = run_trial(candidate)
            if result is not None:
                current = result
                progress = True
                break
    return current, attempts


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def fuzz(
    n_trials: int,
    seed: int = 0,
    parallel_every: int = 5,
    log=None,
    do_minimize: bool = True,
) -> FuzzReport:
    """Run ``n_trials`` seeded trials; stop and minimise on first failure.

    Trial ``i`` uses seed ``seed + i``, so a campaign is a fixed seed
    matrix: re-running with the same arguments replays identical trials.
    ``parallel_every`` > 0 adds the worker-process bit-identity property
    to every that-many-th trial (0 disables it).
    """
    pool = None
    try:
        for i in range(n_trials):
            trial = build_trial(seed + i)
            use_pool = parallel_every > 0 and i % parallel_every == 0
            if use_pool and pool is None:
                pool = ProcessPoolExecutor(max_workers=1)
            failure = run_trial(trial, pool=pool if use_pool else None)
            if log is not None:
                label = trial.params.label()
                status = "FAIL" if failure else "ok"
                log(f"  trial {i + 1}/{n_trials} seed={trial.seed} {label}: {status}")
            if failure is not None:
                attempts = 0
                if do_minimize:
                    failure, attempts = minimize(failure)
                return FuzzReport(trials_run=i + 1, failure=failure, minimize_attempts=attempts)
        return FuzzReport(trials_run=n_trials, failure=None)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def replay(record: dict) -> FuzzFailure | None:
    """Re-run a loaded reproducer record; None when it no longer fails."""
    from repro.check.reproducer import spec_from_dict

    trial = FuzzTrial(
        seed=record["seed"],
        spec=spec_from_dict(record["program_spec"]),
        program_seed=record["program_seed"],
        oracle_seed=record["oracle_seed"],
        params=params_from_dict(record["params"]),
    )
    return run_trial(trial)
