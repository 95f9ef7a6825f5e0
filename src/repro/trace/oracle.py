"""Oracle execution of a synthetic program.

The interpreter walks a :class:`~repro.trace.cfg.Program` and produces
the *committed* dynamic instruction stream as a list of
:class:`Segment` records: maximal sequential runs separated by taken
control transfers.  The simulator's backend commits this stream; the
decoupled frontend must *predict* it, and every divergence between
prediction and oracle is a branch misprediction.

Segments also record every dynamic branch instance they contain
(including not-taken conditionals), which is what predictor training,
architectural history and the RAS consume at commit time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.common.rng import SplitMix64
from repro.isa.instructions import BranchKind
from repro.trace.cfg import Program


@dataclass(slots=True)
class Segment:
    """A maximal sequential run of committed instructions.

    ``branches`` holds ``(addr, kind, taken, target)`` for every dynamic
    branch instance inside the run, in program order.  If the run ends
    with a taken transfer, its last entry is that transfer and
    ``next_start`` is its destination; a ``next_start`` of 0 marks the
    end of the stream.
    """

    start: int
    n_instrs: int
    next_start: int = 0
    branches: list[tuple[int, BranchKind, bool, int]] = field(default_factory=list)

    @property
    def end(self) -> int:
        """Address of the last instruction in the run."""
        return self.start + 4 * (self.n_instrs - 1)

    @property
    def limit(self) -> int:
        """First address past the run."""
        return self.start + 4 * self.n_instrs

    @property
    def taken_branch(self) -> tuple[int, BranchKind, bool, int] | None:
        """The terminating taken transfer, if the run ends with one."""
        if self.next_start and self.branches:
            last = self.branches[-1]
            if last[2]:
                return last
        return None


@dataclass
class OracleStream:
    """The committed stream: segments plus summary statistics."""

    segments: list[Segment]
    total_instructions: int
    total_branches: int
    total_taken: int
    cumulative: list[int] = field(default_factory=list)
    """``cumulative[i]`` = committed instructions before segment ``i``."""

    def __post_init__(self) -> None:
        if not self.cumulative:
            acc = 0
            cum = []
            for seg in self.segments:
                cum.append(acc)
                acc += seg.n_instrs
            self.cumulative = cum

    def __getstate__(self) -> dict:
        # The compiled StreamMeta (repro.trace.fbmeta.stream_meta) is a
        # per-process memo stashed on the instance; drop it from pickles
        # so sweep workers receive the lean stream and recompile locally.
        state = dict(self.__dict__)
        state.pop("_stream_meta", None)
        return state

    def segment_at_instruction(self, n: int) -> int:
        """Index of the segment containing committed instruction ``n``.

        The last segment starting at or before ``n``; 0 for an empty
        stream or a negative ``n``.
        """
        return max(bisect_right(self.cumulative, n) - 1, 0)

    @property
    def taken_per_kilo(self) -> float:
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.total_taken / self.total_instructions


def run_oracle(program: Program, max_instructions: int, seed: int = 1) -> OracleStream:
    """Execute ``program`` for at least ``max_instructions`` instructions.

    Execution may overshoot by at most one basic block so that the final
    segment ends at a block boundary.  Behaviour state is reset first,
    so repeated calls with the same arguments are identical.
    """
    if max_instructions <= 0:
        raise ValueError("max_instructions must be positive")
    program.reset_behaviours()
    rng = SplitMix64(seed)
    behaviours = program.behaviours
    blocks = program.blocks
    # This loop runs once per executed block: kinds are compared by
    # identity, block geometry is read from fields, and the open
    # segment lives in locals until a taken transfer closes it.
    NONE = BranchKind.NONE
    COND = BranchKind.COND_DIRECT
    JUMP = BranchKind.UNCOND_DIRECT
    CALL = BranchKind.CALL_DIRECT
    RETURN = BranchKind.RETURN
    INDIRECT = BranchKind.INDIRECT
    INDIRECT_CALL = BranchKind.INDIRECT_CALL

    stack: list[int] = []
    segments: list[Segment] = []
    total = 0
    total_branches = 0
    total_taken = 0

    cur = blocks[program.entry]
    seg_start = cur.start
    seg_n = 0
    seg_branches: list[tuple[int, BranchKind, bool, int]] = []

    while total < max_instructions:
        start = cur.start
        n = cur.n_instrs
        seg_n += n
        total += n
        kind = cur.kind
        if kind is NONE:
            cur = blocks[start + 4 * n]
            continue

        term = start + 4 * (n - 1)
        total_branches += 1
        if kind is COND:
            if not behaviours[cur.behaviour].outcome(rng):
                seg_branches.append((term, kind, False, cur.target))
                cur = blocks[start + 4 * n]
                continue
            target = cur.target
        elif kind is JUMP:
            target = cur.target
        elif kind is CALL:
            stack.append(start + 4 * n)
            target = cur.target
        elif kind is RETURN:
            if not stack:
                # main's dead terminal return; the driver loop prevents
                # this in practice, but end the stream gracefully.
                break
            target = stack.pop()
        elif kind is INDIRECT or kind is INDIRECT_CALL:
            target = cur.targets[behaviours[cur.behaviour].select(rng)]
            if kind is INDIRECT_CALL:
                stack.append(start + 4 * n)
        else:  # pragma: no cover - exhaustive over BranchKind
            raise AssertionError(f"unhandled terminator kind {kind}")
        # A taken transfer: it ends the open segment.
        total_taken += 1
        seg_branches.append((term, kind, True, target))
        segments.append(Segment(seg_start, seg_n, target, seg_branches))
        seg_start = target
        seg_n = 0
        seg_branches = []
        cur = blocks[target]

    if seg_n:
        segments.append(Segment(seg_start, seg_n, 0, seg_branches))

    return OracleStream(
        segments=segments,
        total_instructions=total,
        total_branches=total_branches,
        total_taken=total_taken,
    )
