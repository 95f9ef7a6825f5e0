"""Differential oracle checking.

The functional oracle (:func:`repro.trace.oracle.run_oracle`) and the
cycle-accurate simulator must agree on the *committed* instruction
stream: timing never changes architecture.  This module replays an
independently regenerated oracle stream against the simulator's commit
stream and asserts:

* **per-branch equality** -- every branch the
  :class:`~repro.core.backend.CommitTrainer` trains (i.e. every
  committed dynamic branch, warmup included) matches the oracle's
  record exactly: PC, kind, direction, and target;
* **end-state agreement** -- committed-instruction and
  committed-branch counters match between backend, trainer and stats;
  the number of branches trained equals the number the oracle commits
  in the same instruction window; and the trainer's architectural RAS
  and (for the THR/Ideal policies, whose architectural history is a
  pure function of the committed stream) its architectural history
  equal an independent replay of the oracle stream.

The expected stream is *independently derived* (regenerated from the
(program, seed) pair for synthetic workloads; re-decoded bypassing the
chunk-artifact cache for trace-backed ones) rather than shared with the
simulator, so in-place corruption of the cached stream cannot hide a
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.history import HistoryManager
from repro.branch.ras import ReturnAddressStack
from repro.common.params import HistoryPolicy, SimParams
from repro.common.stats import StatSet
from repro.core.metrics import RunResult
from repro.core.simulator import Simulator
from repro.trace.cfg import Program
from repro.trace.oracle import OracleStream
from repro.trace.workloads import collector_paused, make_trace, workload_by_name


class DifferentialDivergence(AssertionError):
    """The simulator's commit stream disagrees with the oracle replay."""


@dataclass(frozen=True)
class DifferentialReport:
    """Summary of one clean differential run."""

    workload: str
    branches_checked: int
    committed_instructions: int
    result: RunResult


def flatten_branches(stream: OracleStream) -> list[tuple]:
    """All dynamic branch records of ``stream``, in commit order."""
    out: list[tuple] = []
    for seg in stream.segments:
        out.extend(seg.branches)
    return out


class CommitRecorder:
    """Subscribed to the ``CommitTrainer.add_branch_listener`` hook point.

    Compares each trained (committed) branch against the independent
    expected stream as it happens, failing fast with full context.  It
    registers with ``first=True`` so the comparison observes each
    branch before any previously installed listener (e.g. a
    prefetcher's commit hook) can react; training behaviour is
    unchanged because the recorder only observes.
    """

    __slots__ = ("expected", "index")

    def __init__(self, trainer, expected: list[tuple]) -> None:
        self.expected = expected
        self.index = 0
        trainer.add_branch_listener(self.on_branch, first=True)

    def on_branch(self, pc: int, kind, taken: bool, target: int) -> None:
        """Check one committed branch against the oracle stream."""
        i = self.index
        expected = self.expected
        if i >= len(expected):
            raise DifferentialDivergence(
                f"commit stream longer than the oracle: branch #{i} "
                f"pc={pc:#x} {kind.name} taken={taken}"
            )
        e_pc, e_kind, e_taken, e_target = expected[i]
        if pc != e_pc or kind is not e_kind or taken != e_taken or target != e_target:
            raise DifferentialDivergence(
                f"commit stream diverges at branch #{i}:\n"
                f"  simulator committed pc={pc:#x} {kind.name} taken={taken} "
                f"target={target:#x}\n"
                f"  oracle expects     pc={e_pc:#x} {e_kind.name} taken={e_taken} "
                f"target={e_target:#x}"
            )
        self.index = i + 1


def _expected_branches_within(stream: OracleStream, committed: int) -> int:
    """Branches the oracle commits within its first ``committed`` instructions."""
    count = 0
    for seg, base in zip(stream.segments, stream.cumulative):
        if base >= committed:
            break
        if base + seg.n_instrs <= committed:
            count += len(seg.branches)
            continue
        limit = committed - base
        count += sum(1 for addr, _, _, _ in seg.branches if ((addr - seg.start) >> 2) < limit)
        break
    return count


def _end_state_problems(
    sim: Simulator, expected: list[tuple], recorder: CommitRecorder
) -> list[str]:
    """Architectural end-state agreement between simulator and oracle."""
    problems: list[str] = []
    params = sim.params
    combined = StatSet()
    if sim.warmup_stats is not None:
        combined.merge(sim.warmup_stats)
    combined.merge(sim.stats)

    committed = sim.backend.committed
    target = params.warmup_instructions + params.sim_instructions
    if committed < target:
        problems.append(f"run ended at {committed} committed instructions, target {target}")
    if sim.trainer.committed != committed:
        problems.append(
            f"trainer committed {sim.trainer.committed} != backend committed {committed}"
        )
    if combined.get("committed_instructions") != committed:
        problems.append(
            f"committed_instructions counter {combined.get('committed_instructions')} "
            f"!= backend committed {committed}"
        )
    if combined.get("committed_branches") != recorder.index:
        problems.append(
            f"committed_branches counter {combined.get('committed_branches')} "
            f"!= {recorder.index} branches checked"
        )
    oracle_branches = _expected_branches_within(sim.stream, committed)
    if recorder.index != oracle_branches:
        problems.append(
            f"simulator trained {recorder.index} branches; the oracle commits "
            f"{oracle_branches} in the same {committed}-instruction window"
        )

    # Architectural RAS: replay calls/returns of the checked prefix.
    ras = ReturnAddressStack()
    for addr, kind, taken, _target in expected[: recorder.index]:
        if not taken:
            continue
        if kind.is_call:
            ras.push(addr + 4)
        elif kind.is_return:
            ras.pop()
    if ras.snapshot() != sim.trainer.arch_ras.snapshot():
        problems.append(
            f"architectural RAS mismatch: depth {len(sim.trainer.arch_ras)} "
            f"vs oracle replay depth {len(ras)}"
        )

    # Architectural history: for THR/Ideal the commit-time history is a
    # pure function of the committed stream (the `detected` argument is
    # ignored), so an independent replay must reproduce it bit-exactly.
    # GHR* histories depend on BTB contents at commit time and are
    # covered by the per-branch stream equality instead.
    policy = params.frontend.history_policy
    if policy in (HistoryPolicy.THR, HistoryPolicy.IDEAL):
        mgr = HistoryManager(policy, sim.hist_mgr.bits)
        hist = 0
        for addr, kind, taken, target in expected[: recorder.index]:
            hist, _ = mgr.commit_push(hist, addr, taken, target, True)
        if hist != sim.trainer.arch_hist:
            problems.append(
                f"architectural {policy.value} history mismatch vs oracle replay"
            )
    return problems


def run_differential(
    params: SimParams,
    program: Program,
    stream: OracleStream,
    expected_stream: OracleStream,
    workload_name: str = "",
    telemetry=None,
) -> tuple[RunResult, DifferentialReport]:
    """Run one simulation under differential oracle checking.

    ``stream`` drives the simulator as usual; ``expected_stream`` is the
    independently regenerated oracle run it is checked against.  Raises
    :class:`DifferentialDivergence` on the first disagreement (or on
    end-state mismatch); invariant checking composes freely via
    ``params.check_invariants``.
    """
    sim = Simulator(params, program, stream, telemetry=telemetry)
    recorder = CommitRecorder(sim.trainer, flatten_branches(expected_stream))
    result = sim.run(workload_name=workload_name)
    problems = _end_state_problems(sim, recorder.expected, recorder)
    if problems:
        raise DifferentialDivergence(
            f"end-state disagreement ({workload_name or 'custom program'}):\n  "
            + "\n  ".join(problems)
        )
    report = DifferentialReport(
        workload=workload_name,
        branches_checked=recorder.index,
        committed_instructions=sim.backend.committed,
        result=result,
    )
    return result, report


def check_workload(name: str, params: SimParams) -> DifferentialReport:
    """Differential + invariant check of one workload (any source).

    The expected stream comes from the source's own independent
    derivation (:meth:`~repro.trace.source.WorkloadSource.expected_stream`):
    a fresh seeded regeneration for synthetic workloads, a fresh
    cache-bypassing decode for trace-backed ones.
    """
    params = params.replace(check_invariants=True)
    n = params.warmup_instructions + params.sim_instructions
    program, stream = make_trace(name, n)
    with collector_paused():
        expected = workload_by_name(name).expected_stream(n)
    _result, report = run_differential(params, program, stream, expected, workload_name=name)
    return report

