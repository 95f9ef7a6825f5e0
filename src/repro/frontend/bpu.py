"""Branch prediction pipeline (Section IV-B).

The BPU runs ahead of instruction fetch, walking the *predicted* path:
each step scans one fetch block against the BTB, asks the direction
predictor about detected conditionals, resolves taken targets (BTB /
ITTAGE / RAS), pushes the result into the FTQ, and updates the
speculative global history according to the active policy.

The simulator tracks, per FTQ entry, where the predicted path first
diverges from the oracle stream (:func:`compute_fault`).  The machine
does not see this annotation -- it learns about the divergence when the
backend consumes the faulting instruction (pipeline flush) or when PFC
catches it at pre-decode.

Perfect-predictor modes (Figs 1/6a/12) consult the oracle directly
while the BPU is on the correct path; on the wrong path they fall back
to 'not taken' / no target, which is the only meaningful semantics for
an oracle.

Stage interface: the ``predict`` stage of the reference loop
(:func:`repro.core.simulator.reference_kernel`) binds ``cycle(cycle,
ftq)`` once before the loop starts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.branch.btb import BTB
from repro.branch.history import HistoryManager
from repro.branch.ittage import ITTAGE
from repro.branch.ras import ReturnAddressStack
from repro.common.params import DirectionPredictorKind, SimParams
from repro.common.stats import StatSet
from repro.frontend.ftq import FTQ, FTQEntry
from repro.isa.instructions import BranchKind
from repro.trace.cfg import Program
from repro.trace.oracle import OracleStream

WRONG_PATH = -1
"""Cursor value meaning the predicted stream has left the oracle path."""


@dataclass(slots=True)
class Fault:
    """First divergence between an FTQ entry's prediction and the oracle."""

    pc: int
    kind_label: str
    """'pred_taken_wrong' | 'wrong_target' | 'dir_nt' | 'btb_miss' | 'oracle_end'"""
    branch_kind: BranchKind
    taken: bool
    """Actual (oracle) outcome of the faulting branch."""
    target: int
    """Actual target when taken."""
    correct_next: int
    next_seg: int
    """Oracle segment index at ``correct_next``."""


def compute_fault(
    stream: OracleStream,
    seg_idx: int,
    start: int,
    term_addr: int,
    pred_taken: bool,
    pred_target: int,
    detected: tuple[int, ...] | frozenset | set,
    program: Program,
) -> tuple[Fault | None, int]:
    """Compare a predicted entry [start..term_addr] against the oracle.

    Returns ``(fault, cont_seg)``: the first divergence (or None) and
    the oracle segment index the *predicted* stream continues in when
    there is no fault.  ``cont_seg`` is :data:`WRONG_PATH` when the
    oracle stream is exhausted.

    Precondition: ``start`` lies on the oracle path inside segment
    ``seg_idx`` (the BPU maintains this invariant).
    """
    segments = stream.segments
    seg = segments[seg_idx]
    transfer = seg.taken_branch
    if transfer is None or seg.next_start == 0:
        # Stream end inside the run-ahead window; with the generation
        # slack this only happens at the very end of a simulation.
        return None, WRONG_PATH

    t_addr = seg.end  # address of the oracle's next taken transfer

    if t_addr > term_addr:
        # Oracle continues sequentially past this entry.
        if pred_taken:
            instr = program.instruction_at(term_addr)
            return (
                Fault(
                    pc=term_addr,
                    kind_label="pred_taken_wrong",
                    branch_kind=instr.kind if instr else BranchKind.NONE,
                    taken=False,
                    target=0,
                    correct_next=term_addr + 4,
                    next_seg=seg_idx,
                ),
                seg_idx,
            )
        return None, seg_idx

    if t_addr == term_addr:
        _, kind, _, target = transfer
        if pred_taken:
            if pred_target == seg.next_start:
                return None, seg_idx + 1
            return (
                Fault(
                    pc=term_addr,
                    kind_label="wrong_target",
                    branch_kind=kind,
                    taken=True,
                    target=seg.next_start,
                    correct_next=seg.next_start,
                    next_seg=seg_idx + 1,
                ),
                seg_idx + 1,
            )
        return (
            Fault(
                pc=term_addr,
                kind_label="dir_nt" if term_addr in detected else "btb_miss",
                branch_kind=kind,
                taken=True,
                target=seg.next_start,
                correct_next=seg.next_start,
                next_seg=seg_idx + 1,
            ),
            seg_idx + 1,
        )

    # t_addr < term_addr: the oracle takes a branch inside the entry
    # that the prediction sailed past.
    _, kind, _, target = transfer
    return (
        Fault(
            pc=t_addr,
            kind_label="dir_nt" if t_addr in detected else "btb_miss",
            branch_kind=kind,
            taken=True,
            target=seg.next_start,
            correct_next=seg.next_start,
            next_seg=seg_idx + 1,
        ),
        seg_idx + 1,
    )


class BranchPredictionUnit:
    """The run-ahead prediction pipeline feeding the FTQ."""

    def __init__(
        self,
        params: SimParams,
        program: Program,
        stream: OracleStream,
        btb: BTB,
        direction,
        ittage: ITTAGE,
        hist_mgr: HistoryManager,
        stats: StatSet,
    ) -> None:
        self.params = params
        self.program = program
        self.stream = stream
        self.btb = btb
        self.direction = direction
        self.ittage = ittage
        self.mgr = hist_mgr
        self.stats = stats
        self.ras = ReturnAddressStack(params.branch.ras_entries)
        self.loop = None
        """Optional LoopPredictor; attached by the simulator when enabled."""
        self.telemetry = None
        """Optional telemetry hub (set by Telemetry.attach on traced runs)."""
        self.last_resteer_reason = ""
        """Cause label of the most recent re-steer (cycle accounting)."""
        self.last_resteer_until = 0
        """Cycle at which the most recent re-steer stall expires."""

        self.pc = stream.segments[0].start if stream.segments else program.entry
        self.hist = 0
        self.cursor_seg = 0 if stream.segments else WRONG_PATH
        self.stall_until = 0
        self._uid = 0
        self._block_mask = ~(params.frontend.block_bytes - 1)
        self._block_last = params.frontend.block_bytes - 4
        # Per-cycle loop constants, bound once (hot path).
        self._predict_width = params.frontend.predict_width
        self._max_taken = params.frontend.max_taken_per_cycle
        self._two_level_btb = bool(params.branch.btb_l1_entries)
        self._perfect_btb = params.branch.perfect_btb
        self._perfect_direction = (
            params.branch.direction_kind is DirectionPredictorKind.PERFECT
        )
        self._perfect_indirect = params.branch.perfect_indirect
        self._segments = stream.segments
        # Precompiled static-image branch arrays (repro.trace.fbmeta):
        # the perfect-BTB candidate scan slices these instead of probing
        # the image dictionary 4 bytes at a time.
        meta = program.fetch_meta()
        self._meta_addrs = meta.addrs
        self._meta_triples = meta.triples

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------
    def cycle(self, cycle: int, ftq: FTQ) -> None:
        """Produce up to ``predict_width`` instructions of fetch targets."""
        if cycle < self.stall_until:
            return
        budget = self._predict_width
        taken_budget = self._max_taken
        while budget > 0 and not ftq.full:
            entry = self._predict_entry()
            ftq.push(entry)
            self.stats.bump("ftq_entries_created")
            budget -= entry.n_instrs
            if entry.pred_taken:
                # A taken prediction served by the second-level BTB
                # bubbles the prediction pipeline (two-level hierarchy,
                # Section II-B).
                if self._two_level_btb and self.btb.was_l2_sourced(entry.term_addr):
                    self.stats.bump("btb_l2_taken_predictions")
                    self.stall_until = max(
                        self.stall_until,
                        cycle + 1 + self.params.branch.btb_l2_extra_latency,
                    )
                    break
                taken_budget -= 1
                if taken_budget <= 0:
                    break

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate_state(self) -> list[str]:
        """On-path cursor invariants (:mod:`repro.check`); side-effect free.

        Whenever the BPU believes it is on the oracle path, its PC must
        actually lie inside the segment its cursor points at -- this is
        the precondition :func:`compute_fault` documents, maintained by
        every re-steer and entry-continuation path.
        """
        problems: list[str] = []
        if self.cursor_seg == WRONG_PATH:
            return problems
        segs = self._segments
        if not 0 <= self.cursor_seg < len(segs):
            problems.append(f"BPU cursor segment {self.cursor_seg} outside [0, {len(segs)})")
            return problems
        if self.pc % 4:
            problems.append(f"BPU pc {self.pc:#x} not instruction aligned")
        seg = segs[self.cursor_seg]
        if not seg.start <= self.pc <= seg.end:
            problems.append(
                f"BPU on-path pc {self.pc:#x} outside segment {self.cursor_seg} "
                f"[{seg.start:#x}..{seg.end:#x}]"
            )
        return problems

    # ------------------------------------------------------------------
    # Re-steer (backend flush, PFC, history fixup)
    # ------------------------------------------------------------------
    def resteer(
        self, pc: int, hist: int, cursor_seg: int, ready_cycle: int, reason: str = ""
    ) -> None:
        """Restart prediction at ``pc``; the caller restores the RAS.

        ``reason`` labels the cause (``flush:<fault>`` from a backend
        flush, ``pfc``/``fixup`` from pre-decode) so cycle accounting
        can attribute the refill stall that follows; it has no
        architectural effect.
        """
        self.pc = pc
        self.hist = hist
        self.cursor_seg = cursor_seg
        # The prediction pipeline must refill through the BTB.
        until = ready_cycle + self.params.branch.btb_latency
        self.stall_until = max(self.stall_until, until)
        self.last_resteer_reason = reason
        self.last_resteer_until = until
        tel = self.telemetry
        if tel is not None:
            tel.event("resteer", pc=pc, reason=reason or "unspecified", until=until)

    # ------------------------------------------------------------------
    # Entry formation
    # ------------------------------------------------------------------
    def _predict_entry(self) -> FTQEntry:
        start = self.pc
        on_path = self.cursor_seg != WRONG_PATH
        seg = self._segments[self.cursor_seg] if on_path else None
        block_last = (start & self._block_mask) + self._block_last
        mgr = self.mgr
        target_history = mgr._target_history
        ideal = mgr._ideal

        hist = self.hist
        hist_snapshot = hist
        detected: list[int] = []
        dir_pushes: list[tuple[int, bool]] = []
        ras_top = self.ras.top()

        pred_taken = False
        pred_target = 0
        term_addr = block_last

        candidates = self._candidates(start, block_last)
        for addr, kind, btb_target in candidates:
            if kind is BranchKind.COND_DIRECT:
                override = self.loop.predict(addr) if self.loop is not None else None
                if override is None:
                    taken = self._predict_direction(addr, hist, seg)
                else:
                    taken = override
                detected.append(addr)
                if not taken:
                    if not target_history and not ideal:
                        hist = mgr.push_not_taken(hist)
                        dir_pushes.append((addr, False))
                    continue
                target = btb_target
            else:
                taken = True
                detected.append(addr)
                target = self._resolve_target(addr, kind, btb_target, hist, seg)
            # Taken branch terminates the entry.
            if kind.is_call:
                self.ras.push(addr + 4)
            elif kind.is_return:
                popped = self.ras.pop()
                if popped is not None:
                    target = popped
            if not ideal:
                hist = mgr.spec_push(hist, addr, True, target)
                if not target_history:
                    dir_pushes.append((addr, True))
            pred_taken = True
            pred_target = target
            term_addr = addr
            self.stats.bump("bpu_taken_predictions")
            break

        # Ideal history: push precise oracle outcomes for every branch
        # in the covered range while on the correct path.
        if ideal:
            if on_path:
                hist = self._ideal_pushes(seg, start, term_addr, hist, dir_pushes)
            else:
                for addr in detected:
                    bit = addr == term_addr and pred_taken
                    hist = mgr.push_outcome(hist, addr, bit, pred_target)
                    dir_pushes.append((addr, bit))

        # Candidates arrive in address order (BTB.scan_block reads its
        # address-sorted chunk index in chunk order; the precompiled
        # metadata is sorted), so everything appended to
        # ``detected`` before the taken-branch break is <= term_addr.
        detected_upto = tuple(detected)
        fault = None
        cont_seg = WRONG_PATH
        if on_path:
            fault, cont_seg = compute_fault(
                self.stream,
                self.cursor_seg,
                start,
                term_addr,
                pred_taken,
                pred_target,
                detected_upto,
                self.program,
            )

        entry = FTQEntry(
            uid=self._uid,
            start=start,
            term_addr=term_addr,
            pred_taken=pred_taken,
            pred_target=pred_target,
            hist_snapshot=hist_snapshot,
            detected=detected_upto,
            dir_pushes=tuple(dir_pushes),
            ras_top=ras_top,
            cursor_seg=self.cursor_seg if on_path else WRONG_PATH,
            fault=fault,
        )
        self._uid += 1

        self.hist = hist
        self.pc = entry.next_fetch_addr
        if not on_path or fault is not None:
            self.cursor_seg = WRONG_PATH
        else:
            self.cursor_seg = cont_seg
        return entry

    # ------------------------------------------------------------------
    # Branch discovery and prediction helpers
    # ------------------------------------------------------------------
    def _candidates(self, start: int, block_last: int):
        """Branches visible to the prediction pipeline in [start..block_last].

        With a real BTB this is the 16B-set scan; with a perfect BTB
        (Figs 6a/10/11) every branch in the static image is visible.
        """
        if self._perfect_btb:
            addrs = self._meta_addrs
            lo = bisect_left(addrs, start)
            hi = bisect_right(addrs, block_last)
            return self._meta_triples[lo:hi]
        # scan_block already bounds start <= addr <= block_last, sorted.
        found = self.btb.scan_block(start, block_last)
        return [(e.addr, e.kind, e.target) for e in found] if found else ()

    def _predict_direction(self, addr: int, hist: int, seg) -> bool:
        if self._perfect_direction:
            if seg is not None:
                return seg.next_start != 0 and seg.end == addr and seg.taken_branch is not None
            return False
        return self.direction.predict(addr, hist)

    def _resolve_target(self, addr: int, kind: BranchKind, btb_target: int, hist: int, seg) -> int:
        """Target of a predicted-taken non-conditional branch."""
        if kind.is_pc_relative:
            return btb_target
        if kind.is_return:
            # Resolved by the RAS pop in the caller; BTB target is the
            # fallback when the RAS underflows.
            return btb_target
        # Register-indirect.
        if self._perfect_indirect and seg is not None:
            if seg.end == addr and seg.next_start:
                return seg.next_start
        predicted = self.ittage.predict(addr, hist)
        return predicted if predicted is not None else btb_target

    def _ideal_pushes(self, seg, start: int, term_addr: int, hist: int, dir_pushes: list) -> int:
        """Push precise oracle outcomes for all branches in [start..term_addr]."""
        for addr, kind, taken, target in seg.branches:
            if addr < start or addr > term_addr:
                continue
            hist = self.mgr.push_outcome(hist, addr, taken, target)
            dir_pushes.append((addr, taken))
        return hist
