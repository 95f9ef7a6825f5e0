"""Instruction fetch pipeline (Section IV-C) with Post-Fetch Correction.

Two decoupled jobs, exactly as the paper describes:

1. **I-cache fills** -- the oldest ``fetch_probe_width`` FTQ entries
   awaiting translation probe the I-TLB and the I-cache tag array;
   misses start fills immediately, long before the entry reaches the
   FTQ head.  This run-ahead probing *is* the FDP prefetch.
2. **Instruction fetch** -- the head entry, once its line is resident,
   feeds up to ``fetch_width`` instructions per cycle into the decode
   queue.  The first time an entry is fetched it is pre-decoded, which
   is where PFC (Section III-B) and GHR2/GHR3 history fixups
   (Section III-A) fire.

PFC cases (Fig 5):

* **Case 1** -- an *unconditional* branch lies before the entry's
  termination offset: it was either predicted not-taken (impossible for
  a detected unconditional here) or missed in the BTB.  Its target is
  recoverable for PC-relative branches (from the encoding) and returns
  (from the RAS); register-indirect branches cannot be corrected.
* **Case 2** -- a *conditional* PC-relative branch before the end whose
  direction hint says taken: always a BTB miss.

Either way the FTQ is flushed behind the entry, the history is fixed,
and prediction re-steers from the branch target immediately instead of
waiting for the backend to flush the pipeline.

Stage interface: :data:`repro.core.schedule.CYCLE_SCHEDULE` binds
``complete_fills(fills, cycle)`` (the ``memory_fill`` stage),
``fetch_stage(cycle)`` and ``probe_stage(cycle)`` once before the loop
starts (conformance pinned by ``validate_stage_interfaces``).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.branch.history import HistoryManager
from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.frontend.bpu import WRONG_PATH, BranchPredictionUnit, compute_fault
from repro.frontend.ftq import (
    FTQ,
    STATE_AWAIT_FILL,
    STATE_AWAIT_PROBE,
    STATE_READY,
    FTQEntry,
)
from repro.isa.instructions import BranchKind
from repro.memory.hierarchy import InstructionMemory
from repro.trace.cfg import Program
from repro.trace.fbmeta import PD_COND, PD_INDIRECT, PD_RETURN
from repro.trace.oracle import OracleStream


class FetchUnit:
    """Probe + fetch stages of the decoupled frontend."""

    def __init__(
        self,
        params: SimParams,
        program: Program,
        stream: OracleStream,
        ftq: FTQ,
        memory: InstructionMemory,
        bpu: BranchPredictionUnit,
        hist_mgr: HistoryManager,
        direction,
        decode_queue,
        stats: StatSet,
        prefetcher=None,
    ) -> None:
        self.params = params
        self.program = program
        self.stream = stream
        self.ftq = ftq
        self.memory = memory
        self.bpu = bpu
        self.mgr = hist_mgr
        self.direction = direction
        self.decode_queue = decode_queue
        self.stats = stats
        self.prefetcher = prefetcher
        self.telemetry = None
        """Optional telemetry hub (set by Telemetry.attach on traced runs)."""
        # Per-cycle loop constants, bound once (hot path).
        self._fetch_width = params.frontend.fetch_width
        self._probe_width = params.frontend.fetch_probe_width
        self._wrong_path_fills = params.frontend.wrong_path_fills
        self._pfc_on = params.frontend.pfc_enabled
        self._fixup_on = hist_mgr.fixes_not_taken
        # Precompiled static-image branch arrays (repro.trace.fbmeta):
        # the PFC pre-decoder bisects these instead of walking the block
        # through the image dictionary 4 bytes at a time.
        meta = program.fetch_meta()
        self._meta_addrs = meta.addrs
        self._meta_kinds = meta.kinds
        self._meta_targets = meta.targets
        self._meta_pd = meta.pd_class

    # ------------------------------------------------------------------
    # Fill wakeups
    # ------------------------------------------------------------------
    def complete_fills(self, fills, cycle: int) -> None:
        """Wake FTQ entries whose lines arrived this cycle."""
        for mshr in fills:
            for waiter in mshr.waiters:
                entry = waiter
                if entry.state == STATE_AWAIT_FILL:
                    entry.state = STATE_READY
                    entry.way = 0
                    entry.ready_cycle = cycle
            if self.prefetcher is not None:
                self.prefetcher.on_fill(mshr.line, cycle, mshr.is_prefetch)

    # ------------------------------------------------------------------
    # Probe stage
    # ------------------------------------------------------------------
    def probe_stage(self, cycle: int) -> None:
        """Oldest awaiting entries probe I-TLB + I-cache tags."""
        ftq = self.ftq
        entries = ftq._entries
        n = len(entries)
        # Skip the settled prefix (states only move forward); amortised
        # O(1) per entry instead of a full re-scan every cycle.
        start = ftq.probe_ptr
        while start < n and entries[start].state != STATE_AWAIT_PROBE:
            start += 1
        ftq.probe_ptr = start
        if start >= n:
            return
        probes = self._probe_width
        wrong_path_fills = self._wrong_path_fills
        demand_probe = self.memory.demand_probe
        prefetcher = self.prefetcher
        for idx in range(start, n):
            if probes <= 0:
                break
            entry = entries[idx]
            if entry.state != STATE_AWAIT_PROBE:
                continue
            if not wrong_path_fills and entry.cursor_seg == WRONG_PATH:
                # Ablation mode: wrong-path entries consume no memory
                # bandwidth; they become trivially 'ready' and are
                # discarded by the flush before mattering.
                entry.state = STATE_READY
                entry.ready_cycle = cycle + 1
                entry.way = 0
                continue
            probes -= 1
            result = demand_probe(entry.start, cycle, waiter=entry)
            if result.hit:
                entry.state = STATE_READY
                entry.way = result.way
                entry.ready_cycle = result.ready_cycle
            elif result.issued:
                entry.state = STATE_AWAIT_FILL
                # Fig 14 classifies miss *transactions*: a secondary miss
                # merging into an in-flight demand fill is not one.
                entry.missed = result.primary
                entry.miss_issued_at_head = result.primary and idx == 0
            else:
                # MSHR full; retry next cycle.
                self.stats.bump("probe_retry")
                entry.missed = True
            if prefetcher is not None:
                # Secondary misses merge into an in-flight transaction;
                # the prefetcher sees one miss event per transaction.
                line = self.memory.l1i.line_of(entry.start)
                prefetcher.on_access(line, result.hit or not result.primary, cycle)

    # ------------------------------------------------------------------
    # Fetch stage
    # ------------------------------------------------------------------
    def fetch_stage(self, cycle: int) -> None:
        """Move instructions from ready head entries to the decode queue."""
        fetch_width = self._fetch_width
        ftq = self.ftq
        dq = self.decode_queue
        budget = min(fetch_width, dq.free_slots)
        while budget > 0:
            head = ftq.head
            if head is None:
                break
            if head.state != STATE_READY or head.ready_cycle > cycle:
                if dq.total_instrs < fetch_width:
                    head.starved_while_head = True
                break
            if not head.pfc_checked:
                head.pfc_checked = True
                self._predecode_checks(head, cycle)
            if head.consumed == 0:
                self._classify_miss(head)
            take = min(budget, head.remaining)
            self._push_chunk(head, take)
            head.consumed += take
            budget -= take
            if head.remaining == 0:
                ftq.pop_head()

    def _push_chunk(self, entry: FTQEntry, take: int) -> None:
        """Hand ``take`` instructions of ``entry`` to the decode queue."""
        fault = None
        fault_index = -1
        wrong_path = entry.cursor_seg == WRONG_PATH
        if entry.fault is not None:
            rel = (entry.fault.pc - entry.start) >> 2
            if entry.consumed <= rel < entry.consumed + take:
                fault = entry.fault
                fault_index = rel - entry.consumed
            elif entry.consumed > rel:
                # Instructions past the divergence point are wrong-path;
                # normally the fault's flush clears them first, but be
                # explicit so they can never train or commit.
                wrong_path = True
        self.decode_queue.push(
            n_instrs=take,
            fault=fault,
            fault_index=fault_index,
            wrong_path=wrong_path,
        )

    def _classify_miss(self, entry: FTQEntry) -> None:
        """Fig 14 classification, at first consumption of the entry."""
        if not entry.missed:
            return
        if entry.miss_issued_at_head:
            self.stats.bump("miss_fully_exposed")
        elif entry.starved_while_head:
            self.stats.bump("miss_partially_exposed")
        else:
            self.stats.bump("miss_covered")

    # ------------------------------------------------------------------
    # Pre-decode: PFC and history fixups
    # ------------------------------------------------------------------
    def _predecode_checks(self, entry: FTQEntry, cycle: int) -> None:
        """Scan pre-decoded branches before the termination offset."""
        pfc_on = self._pfc_on
        fixup_on = self._fixup_on
        if not pfc_on and not fixup_on:
            return
        detected = entry.detected
        addrs = self._meta_addrs
        kinds = self._meta_kinds
        targets = self._meta_targets
        pd = self._meta_pd
        lo = bisect_left(addrs, entry.start)
        hi = bisect_left(addrs, entry.term_addr)
        for i in range(lo, hi):
            p = addrs[i]
            if p in detected:
                continue
            kind = kinds[i]
            cls = pd[i]
            if cls != PD_COND:
                # Unconditional branch before the terminator (PFC case 1).
                if not pfc_on:
                    continue
                if cls == PD_RETURN:
                    target = entry.ras_top
                elif cls == PD_INDIRECT:
                    target = None
                else:
                    target = targets[i]
                if target is None:
                    self.stats.bump("pfc_uncorrectable_indirect")
                    continue
                self.stats.bump("pfc_case1")
                if self.telemetry is not None:
                    self.telemetry.event("pfc", case=1, pc=p, target=target)
                self._resteer(entry, p, True, target, kind, cycle, self.params.core.pfc_resteer_penalty)
                return
            # Conditional, undetected.
            hint = self._hint(entry, p)
            if hint and pfc_on:
                self.stats.bump("pfc_case2")
                if self.telemetry is not None:
                    self.telemetry.event("pfc", case=2, pc=p, target=targets[i])
                self._resteer(entry, p, True, targets[i], kind, cycle, self.params.core.pfc_resteer_penalty)
                return
            if not hint and fixup_on:
                self.stats.bump("ghr_fixup_flush")
                if self.telemetry is not None:
                    self.telemetry.event("fixup", pc=p)
                self._resteer(
                    entry, p, False, 0, kind, cycle,
                    self.params.core.history_fixup_penalty, reason="fixup",
                )
                return

    def _hint(self, entry: FTQEntry, addr: int) -> bool:
        """The EV8-style per-slot direction hint bit (lazily evaluated
        with the history the prediction pipeline held for this slot)."""
        hist = entry.hist_before(addr, self.mgr)
        if self.params.branch.perfect_direction:
            if entry.cursor_seg == WRONG_PATH:
                return False
            seg = self.stream.segments[entry.cursor_seg]
            return seg.next_start != 0 and seg.end == addr
        return self.direction.predict(addr, hist)

    def _resteer(
        self,
        entry: FTQEntry,
        p: int,
        taken: bool,
        target: int,
        kind: BranchKind,
        cycle: int,
        penalty: int,
        reason: str = "pfc",
    ) -> None:
        """Truncate ``entry`` at ``p``, flush younger work, restart the BPU."""
        old_fault = entry.fault
        next_pc = target if taken else p + 4
        entry.truncate(p, taken, target)
        self.ftq.flush_younger_than(entry)

        # Fix the global history up to and including the branch.
        hist = entry.hist_before(p, self.mgr)
        if taken:
            hist = self.mgr.push_taken(hist, p, target)
        else:
            hist = self.mgr.push_not_taken(hist)

        # Recompute the entry's divergence with the corrected terminator.
        cursor = WRONG_PATH
        if entry.cursor_seg != WRONG_PATH:
            detected = frozenset(entry.detected) | {p}
            fault, cont = compute_fault(
                self.stream,
                entry.cursor_seg,
                entry.start,
                p,
                taken,
                target,
                detected,
                self.program,
            )
            entry.fault = fault
            if fault is None:
                cursor = cont
                if old_fault is not None and old_fault.pc == p:
                    self.stats.bump("pfc_corrected_mispredict")
            else:
                if fault.kind_label == "pred_taken_wrong" and taken:
                    self.stats.bump("pfc_false_positive")
        else:
            # Entry was already wrong-path; the re-steer stays wrong-path.
            entry.fault = old_fault

        # Apply the branch's RAS effect to the speculative RAS.  (Pushes
        # and pops from flushed younger entries are not unwound -- real
        # checkpointing recovers them; ours self-heals at the next
        # backend flush.  See DESIGN.md deviations.)
        if taken and kind.is_call:
            self.bpu.ras.push(p + 4)
        elif taken and kind.is_return:
            self.bpu.ras.pop()

        self.bpu.resteer(next_pc, hist, cursor, cycle + penalty, reason=reason)
        self.stats.bump("frontend_resteer")
