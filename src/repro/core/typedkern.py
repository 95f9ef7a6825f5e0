"""Flattened typed cycle kernel (the ``typed`` backend's loop body).

This module is the hand-lowered counterpart of the reference loop
(:func:`repro.core.simulator.reference_kernel`) for every run without
an observer (no telemetry, no checker, no profiler; a dedicated
prefetcher is fine): one flat
function whose body inlines the five hot stage bodies --
``memory_fill``, ``backend_retire``, ``fetch``, ``predict``, ``probe``
-- plus the ``prefetch`` stage's hook points and the loop's
measurement-boundary and livelock checks, operating on ints
and pre-bound component internals instead of per-cycle method
dispatch.

It is also the only kernel that compresses cycles.  Its idle skip
jumps over stretches where no frontend stage can act, and its
retire-only drain steps just the backend while fetch is blocked (see
the hook comment in the loop).  The interpreted kernel steps every
cycle, so typed == reference checks both against true per-cycle
stepping.

A dedicated prefetcher's logic stays a call at its two event hooks,
the ``on_fill`` / ``on_access`` calls of ``FetchUnit.complete_fills``
/ ``FetchUnit.probe_stage``; its issue stage, ``Prefetcher.cycle``
with ``InstructionMemory.prefetch_line``'s tag probe and MSHR
allocation, is inlined (no registered prefetcher overrides ``cycle``,
which ``tests/test_typed.py`` pins).  Under a prefetcher the skip
fires only while the prefetch queue is empty, and the drain stops at
the first cycle whose committed branches enqueue a prefetch
(``djolt``, ``rdip`` and ``profile_guided`` train on commit); that
rare stop issues through a ``Prefetcher.cycle`` call.

**Bit identity is the contract.**  Every statement here replicates the
exact semantics (including stat-bump names and ordering-visible side
effects) of the components the interpreted kernel calls:
:class:`repro.core.backend.Backend`/:class:`DecodeQueue`,
:class:`repro.frontend.fetch.FetchUnit`,
:class:`repro.frontend.bpu.BranchPredictionUnit`,
:class:`repro.memory.hierarchy.InstructionMemory` (TLB / Cache / MSHR
inlined), and the reference loop's own checks; a skipped or
drained stretch must leave exactly the counters and state that
stepping it cycle by cycle would.  The contract is pinned by
``tests/test_typed.py`` and the fuzzer's ``typed_interp_identity``
property -- any drift is a test failure, not a tolerance.

The kernel works on events, not on every cycle:

* **Fills.**  It keeps the MSHR file's wake,
  :attr:`repro.memory.mshr.MSHRFile.next_ready` (the earliest ready
  cycle of the outstanding fills; a fill's ready cycle never changes
  after allocation), in a local, written through at every inlined
  allocation and re-read after ``MSHRFile.pop_ready`` and after the
  drain's ``Prefetcher.cycle`` call, which allocates through the file.
  The fill stage runs only on a cycle with a fill due, and the idle
  skip reads the wake instead of scanning the file.
* **Probes.**  The idle skip looks for an entry awaiting its probe
  from ``ftq.probe_ptr`` on: no entry behind it awaits one
  (:meth:`repro.frontend.ftq.FTQ.validate` checks this).
* **Faults.**  The predict stage resolves ``compute_fault``'s two
  no-fault outcomes from the oracle segment (the oracle runs on past
  an entry predicted not-taken, or the entry ends at the oracle's
  taken transfer with its target), so ``compute_fault`` is called
  only on a divergence or at the stream's end.
* **Commits.**  The inlined decode-queue push coalesces like
  :meth:`repro.core.backend.DecodeQueue.push`: a fault-free group joins
  a fault-free tail chunk on the same path.  Retire compares the
  committed count with the commit index of the next untrained branch
  (``StreamMeta.br_commit``) and advances ``trainer.committed`` itself
  when no branch commits, so ``trainer.advance`` is called only when a
  branch commits.

An empty BTB scan result is iterated as is, with no candidate list
built.

Rare or cold paths stay calls into the real components so their logic
is never duplicated: ``trainer.advance`` (commit training, the one
authority once a branch commits), ``sim._on_flush`` (pipeline flush),
``fetch._predecode_checks`` (PFC), ``memory._fill_latency`` (L2/DRAM
fill path), ``mshrs.pop_ready`` and ``l1i.fill`` (a due fill),
``btb.scan_block``, ``direction.predict``, ``ittage.predict``,
``loop.predict``, ``compute_fault`` (the one authority on a
divergence), ``sim._begin_measurement`` and the prefetcher's
``on_fill`` / ``on_access``.

The module is written to be **mypyc-compilable**: plain functions,
plain annotations, no dynamic class magic.  When a toolchain is
present (``pip install repro[compiled]`` + ``mypyc``), the compiled
extension shadows this file and :func:`repro.core.typed.backend_name`
reports ``typed-compiled``; otherwise the pure-Python module runs
as-is (``typed-python``), which is already faster than the
interpreted kernel because the per-cycle dispatch, dataclass
construction and stat-bump call overhead are gone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque

from repro.branch.history import TARGET_SHIFT
from repro.core.backend import _Chunk
from repro.frontend.bpu import compute_fault
from repro.frontend.ftq import FTQEntry
from repro.isa.instructions import BranchKind
from repro.memory.mshr import MSHREntry
from repro.prefetch.base import MAX_ISSUE_PER_CYCLE
from repro.trace.fbmeta import stream_meta

_COND = BranchKind.COND_DIRECT
_CALL_DIRECT = BranchKind.CALL_DIRECT
_RETURN = BranchKind.RETURN
_INDIRECT = BranchKind.INDIRECT
_INDIRECT_CALL = BranchKind.INDIRECT_CALL


def _train_at(trainer, br_commit, stream_instructions: int) -> int:
    """The commit index of ``trainer``'s next untrained branch (the
    stream's length past the last one, where ``advance`` raises): a
    retired group trains a branch only once the committed count passes
    it."""
    ptr = trainer.flat_br
    return br_commit[ptr] if ptr < len(br_commit) else stream_instructions


def typed_kernel(sim, target: int, warmup: int, guard: int) -> None:
    """Run ``sim`` until ``target`` instructions commit.

    Drop-in replacement for :func:`repro.core.simulator.reference_kernel`
    when no observer is attached; see :func:`repro.core.typed.supported`.
    """
    # ------------------------------------------------------------------
    # One-time binds.  Component *objects* are stable for the whole run
    # (the measurement-boundary swap replaces only `.stats`); container
    # internals (lists/dicts/deques) are mutated in place everywhere --
    # the single exception is the speculative RAS `_stack`, which
    # `copy_from` reassigns on flush, so only the RAS object is bound.
    # ------------------------------------------------------------------
    params = sim.params

    memory = sim.memory
    mshrs = memory.mshrs
    by_line = mshrs._by_line
    pop_ready = mshrs.pop_ready
    mshr_capacity: int = mshrs.n_entries
    l1i = memory.l1i
    l1i_sets = l1i._sets
    l1i_line_shift: int = l1i._line_shift
    l1i_line_mask: int = l1i._line_mask
    l1i_set_mask: int = l1i._set_mask
    l1i_n_sets: int = l1i.n_sets
    l1i_fill = l1i.fill
    fill_latency = memory._fill_latency
    perfect_mem: bool = memory.perfect
    prefetched_untouched = memory._prefetched_untouched
    tlb = memory.itlb
    tlb_pages = tlb._pages
    tlb_capacity: int = tlb.n_entries
    tlb_page_mask: int = ~(tlb.page_bytes - 1)
    tlb_miss_latency: int = tlb.miss_latency

    ftq = sim.ftq
    entries = ftq._entries
    ftq_capacity: int = ftq.n_entries

    dq = sim.decode_queue
    chunks = dq._chunks
    dq_capacity: int = dq.capacity

    backend = sim.backend
    trainer = backend.trainer
    trainer_advance = trainer.advance
    retire_width: int = backend._retire_width
    on_flush = sim._on_flush

    fetch = sim.fetch
    fetch_width: int = fetch._fetch_width
    probe_width: int = fetch._probe_width
    wrong_path_fills: bool = fetch._wrong_path_fills
    predecode_checks = fetch._predecode_checks
    # _predecode_checks early-returns unless PFC or GHR2/3 fixups are
    # on; gate the call so the common configurations skip it entirely.
    predecode_active: bool = fetch._pfc_on or fetch._fixup_on

    bpu = sim.bpu
    ras = bpu.ras
    ras_capacity: int = ras.n_entries
    mgr = bpu.mgr
    hist_mask: int = mgr.mask
    target_history: bool = mgr._target_history
    ideal: bool = mgr._ideal
    push_outcome = mgr.push_outcome
    ideal_pushes = bpu._ideal_pushes
    direction = bpu.direction  # None under the perfect direction kind
    direction_predict = direction.predict if direction is not None else None
    # A TAGE trained from the stream's record (THR, Ideal) serves its
    # on-path predictions from there; see the predict stage.
    record = getattr(direction, "record", None)
    rec_taken = record.taken if record is not None else b""
    rec_writer = record.last_writer if record is not None else ()
    rec_history = record.history if record is not None else ()
    loop_pred = bpu.loop  # None unless the loop predictor is enabled
    ittage_predict = bpu.ittage.predict
    btb = bpu.btb
    scan_block = btb.scan_block
    two_level_btb: bool = bpu._two_level_btb
    was_l2_sourced = btb.was_l2_sourced if two_level_btb else None
    btb_l2_extra: int = params.branch.btb_l2_extra_latency
    predict_width: int = bpu._predict_width
    max_taken: int = bpu._max_taken
    perfect_btb: bool = bpu._perfect_btb
    perfect_direction: bool = bpu._perfect_direction
    perfect_indirect: bool = bpu._perfect_indirect
    block_mask: int = bpu._block_mask
    block_last_off: int = bpu._block_last
    segments = bpu._segments
    meta_addrs = bpu._meta_addrs
    meta_triples = bpu._meta_triples
    stream = sim.stream
    program = sim.program
    smeta = stream_meta(stream)
    br_addr = smeta.br_addr
    seg_first_br = smeta.seg_first_br
    # Only `trainer.advance` moves the trainer's branch cursor, so
    # `train_at` changes only after a call to it.
    br_commit = smeta.br_commit
    stream_instructions: int = stream.total_instructions
    train_at: int = _train_at(trainer, br_commit, stream_instructions)

    # Dedicated prefetcher hook points (all None / an empty queue when
    # the config builds no prefetcher component).
    prefetcher = sim.prefetcher
    pf_on_fill = prefetcher.on_fill if prefetcher is not None else None
    pf_on_access = prefetcher.on_access if prefetcher is not None else None
    pf_cycle = prefetcher.cycle if prefetcher is not None else None
    pf_queue = prefetcher._queue if prefetcher is not None else deque()
    pf_queued = prefetcher._queued if prefetcher is not None else set()

    new_entry = FTQEntry.__new__

    # All components share one StatSet; bind its counter dict directly
    # (re-bound after the measurement-boundary swap).
    counters = sim.stats._counters
    measuring: bool = sim._measuring
    committed: int = backend.committed
    cycle: int = sim.cycle
    # The MSHR file's wake (MSHRFile.next_ready), kept here and written
    # through by the inlined allocations: no fill completes before it.
    # pop_ready and the drain's pf_cycle call move it behind the
    # kernel's back, so it is re-read after each.
    next_fill: int = mshrs.next_ready

    while committed < target:
        # ---- stage: memory_fill (InstructionMemory.tick inlined) -----
        if next_fill <= cycle:
            # A fill is due: pop_ready moves the wake to the earliest
            # fill left outstanding.
            fills = pop_ready(cycle)
            next_fill = mshrs.next_ready
            for m in fills:
                line = m.line
                victim = l1i_fill(line).victim
                if victim and victim in prefetched_untouched:
                    prefetched_untouched.discard(victim)
                    counters["prefetch_useless"] += 1
                if m.is_prefetch:
                    counters["prefetch_fill"] += 1
                    prefetched_untouched.add(line)
            # FetchUnit.complete_fills: wake waiting FTQ entries, then
            # tell the prefetcher about the fill.
            for m in fills:
                for waiter in m.waiters:
                    if waiter.state == 2:  # STATE_AWAIT_FILL
                        waiter.state = 3  # STATE_READY
                        waiter.way = 0
                        waiter.ready_cycle = cycle
                if pf_on_fill is not None:
                    pf_on_fill(m.line, cycle, m.is_prefetch)

        # ---- stage: backend_retire (Backend.cycle inlined) -----------
        if dq.total_instrs < retire_width:
            counters["starvation_cycles"] += 1
            retire = len(chunks) > 0
        else:
            retire = True
        if retire:
            budget = retire_width
            while budget > 0 and chunks:
                chunk = chunks[0]
                avail = chunk.n - chunk.pos
                take = budget if budget < avail else avail
                fault = chunk.fault
                if fault is not None and chunk.pos <= chunk.fault_index < chunk.pos + take:
                    take = chunk.fault_index - chunk.pos + 1
                    fault_hit = True
                else:
                    fault_hit = False
                if chunk.wrong_path:
                    counters["wrong_path_consumed"] += take
                else:
                    committed += take
                    backend.committed = committed
                    counters["committed_instructions"] += take
                    if committed <= train_at:
                        trainer.committed = committed  # no branch commits
                    else:
                        trainer_advance(take)
                        train_at = _train_at(trainer, br_commit, stream_instructions)
                chunk.pos += take
                dq.total_instrs -= take
                if chunk.pos >= chunk.n:
                    chunks.popleft()
                budget -= take
                if fault_hit:
                    counters["branch_mispredictions"] += 1
                    counters["mispredict_" + fault.kind_label] += 1
                    if fault.branch_kind is _COND:
                        counters["cond_mispredictions"] += 1
                    on_flush(fault, cycle)
                    break

        # ---- hook: measure_boundary ----------------------------------
        if not measuring and committed >= warmup:
            sim.cycle = cycle
            sim._begin_measurement()
            measuring = True
            counters = sim.stats._counters

        # ---- stage: fetch (FetchUnit.fetch_stage inlined) ------------
        budget = dq_capacity - dq.total_instrs
        if budget > fetch_width:
            budget = fetch_width
        while budget > 0:
            if not entries:
                break
            head = entries[0]
            if head.state != 3 or head.ready_cycle > cycle:
                if dq.total_instrs < fetch_width:
                    head.starved_while_head = True
                break
            if not head.pfc_checked:
                head.pfc_checked = True
                if predecode_active:
                    predecode_checks(head, cycle)
            consumed = head.consumed
            if consumed == 0 and head.missed:
                # Fig 14 classification (FetchUnit._classify_miss).
                if head.miss_issued_at_head:
                    counters["miss_fully_exposed"] += 1
                elif head.starved_while_head:
                    counters["miss_partially_exposed"] += 1
                else:
                    counters["miss_covered"] += 1
            remaining = ((head.term_addr - head.start) >> 2) + 1 - consumed
            take = budget if budget < remaining else remaining
            # FetchUnit._push_chunk and DecodeQueue.push inlined: a
            # fault-free group joins a fault-free tail chunk on the same
            # path.
            fault = None
            fault_index = -1
            wrong_path = head.cursor_seg == -1  # WRONG_PATH
            head_fault = head.fault
            if head_fault is not None:
                rel = (head_fault.pc - head.start) >> 2
                if consumed <= rel < consumed + take:
                    fault = head_fault
                    fault_index = rel - consumed
                elif consumed > rel:
                    wrong_path = True
            if fault is None and chunks:
                tail = chunks[-1]
                if tail.fault is None and tail.wrong_path == wrong_path:
                    tail.n += take
                else:
                    chunks.append(_Chunk(take, None, -1, wrong_path))
            else:
                chunks.append(_Chunk(take, fault, fault_index, wrong_path))
            dq.total_instrs += take
            head.consumed = consumed + take
            budget -= take
            if take == remaining:
                del entries[0]
                if ftq.probe_ptr > 0:
                    ftq.probe_ptr -= 1

        # ---- stage: predict (BranchPredictionUnit.cycle inlined) -----
        if cycle >= bpu.stall_until:
            pbudget = predict_width
            taken_budget = max_taken
            while pbudget > 0 and len(entries) < ftq_capacity:
                # _predict_entry inlined.
                start = bpu.pc
                cursor_seg = bpu.cursor_seg
                on_path = cursor_seg != -1
                seg = segments[cursor_seg] if on_path else None
                block_last = (start & block_mask) + block_last_off
                hist = bpu.hist
                hist_snapshot = hist
                detected: list[int] = []
                dir_pushes: list = []
                ras_stack = ras._stack
                ras_top = ras_stack[-1] if ras_stack else None
                pred_taken = False
                pred_target = 0
                term_addr = block_last

                if perfect_btb:
                    lo = bisect_left(meta_addrs, start)
                    hi = bisect_right(meta_addrs, block_last)
                    candidates = meta_triples[lo:hi]
                else:
                    # Most scans find nothing: iterate the empty result
                    # itself rather than build a candidate list.
                    found = scan_block(start, block_last)
                    candidates = [(e.addr, e.kind, e.target) for e in found] if found else found

                for addr, kind, btb_target in candidates:
                    if kind is _COND:
                        override = loop_pred.predict(addr) if loop_pred is not None else None
                        if override is not None:
                            taken = override
                        elif perfect_direction:
                            if seg is not None:
                                taken = (
                                    seg.next_start != 0
                                    and seg.end == addr
                                    and seg.taken_branch is not None
                                )
                            else:
                                taken = False
                        elif record is not None and on_path:
                            # Committed branch i, predicted under the
                            # history it trains with, on tables that
                            # hold what its recorded walk read: the
                            # record has that walk's prediction.
                            seg_hi = seg_first_br[cursor_seg + 1]
                            i = bisect_left(br_addr, addr, seg_first_br[cursor_seg], seg_hi)
                            if (
                                i < seg_hi
                                and br_addr[i] == addr
                                and rec_writer[i] < direction.updates
                                and rec_history[i] == hist
                            ):
                                direction.predictions += 1
                                taken = rec_taken[i] == 1
                            else:
                                taken = direction_predict(addr, hist)
                        else:
                            taken = direction_predict(addr, hist)
                        detected.append(addr)
                        if not taken:
                            if not target_history and not ideal:
                                hist = (hist << 1) & hist_mask
                                dir_pushes.append((addr, False))
                            continue
                        tgt = btb_target
                    else:
                        detected.append(addr)
                        # _resolve_target inlined: only register-indirect
                        # kinds consult the oracle/ITTAGE; every other
                        # kind takes the BTB target (returns get the RAS
                        # override below).
                        if kind is _INDIRECT or kind is _INDIRECT_CALL:
                            if (
                                perfect_indirect
                                and seg is not None
                                and seg.end == addr
                                and seg.next_start
                            ):
                                tgt = seg.next_start
                            else:
                                predicted_tgt = ittage_predict(addr, hist)
                                tgt = predicted_tgt if predicted_tgt is not None else btb_target
                        else:
                            tgt = btb_target
                    # Taken branch terminates the entry; apply its RAS
                    # effect (ReturnAddressStack push/pop inlined).
                    if kind is _CALL_DIRECT or kind is _INDIRECT_CALL:
                        ras.pushes += 1
                        ras_stack = ras._stack
                        if len(ras_stack) >= ras_capacity:
                            ras_stack.pop(0)
                            ras.overflows += 1
                        ras_stack.append(addr + 4)
                    elif kind is _RETURN:
                        ras.pops += 1
                        ras_stack = ras._stack
                        if ras_stack:
                            tgt = ras_stack.pop()
                        else:
                            ras.underflows += 1
                    if not ideal:
                        # HistoryManager.spec_push(taken) inlined.
                        if target_history:
                            hist = (
                                (hist << TARGET_SHIFT) ^ (addr >> 2) ^ (tgt >> 3)
                            ) & hist_mask
                        else:
                            hist = ((hist << 1) | 1) & hist_mask
                            dir_pushes.append((addr, True))
                    pred_taken = True
                    pred_target = tgt
                    term_addr = addr
                    counters["bpu_taken_predictions"] += 1
                    break

                if ideal:
                    if on_path:
                        hist = ideal_pushes(seg, start, term_addr, hist, dir_pushes)
                    else:
                        for d_addr in detected:
                            bit = d_addr == term_addr and pred_taken
                            hist = push_outcome(hist, d_addr, bit, pred_target)
                            dir_pushes.append((d_addr, bit))

                detected_upto = tuple(detected)
                fault = None
                cont_seg = -1
                if on_path:
                    # compute_fault's two no-fault outcomes, read off the
                    # segment: the oracle runs on past an entry predicted
                    # not-taken, or the entry ends at the oracle's taken
                    # transfer with its target.  A divergence, or the
                    # stream's end, is compute_fault's to resolve.
                    if seg.taken_branch is None or seg.next_start == 0:
                        no_fault = False
                    elif pred_taken:
                        no_fault = seg.end == term_addr and pred_target == seg.next_start
                    else:
                        no_fault = seg.end > term_addr
                    if no_fault:
                        cont_seg = cursor_seg + 1 if pred_taken else cursor_seg
                    else:
                        fault, cont_seg = compute_fault(
                            stream,
                            cursor_seg,
                            start,
                            term_addr,
                            pred_taken,
                            pred_target,
                            detected_upto,
                            program,
                        )

                # FTQEntry construction without __init__/__post_init__
                # (bounds are aligned by construction here).
                entry = new_entry(FTQEntry)
                entry.uid = bpu._uid
                entry.start = start
                entry.term_addr = term_addr
                entry.pred_taken = pred_taken
                entry.pred_target = pred_target
                entry.hist_snapshot = hist_snapshot
                entry.detected = detected_upto
                entry.dir_pushes = tuple(dir_pushes)
                entry.ras_top = ras_top
                entry.cursor_seg = cursor_seg if on_path else -1
                entry.fault = fault
                entry.state = 1  # STATE_AWAIT_PROBE
                entry.way = -1
                entry.ready_cycle = -1
                entry.consumed = 0
                entry.missed = False
                entry.miss_issued_at_head = False
                entry.starved_while_head = False
                entry.pfc_checked = False
                bpu._uid += 1
                bpu.hist = hist
                bpu.pc = pred_target if pred_taken else term_addr + 4
                if not on_path or fault is not None:
                    bpu.cursor_seg = -1
                else:
                    bpu.cursor_seg = cont_seg

                entries.append(entry)
                counters["ftq_entries_created"] += 1
                pbudget -= ((term_addr - start) >> 2) + 1
                if pred_taken:
                    if two_level_btb and was_l2_sourced(term_addr):
                        counters["btb_l2_taken_predictions"] += 1
                        until = cycle + 1 + btb_l2_extra
                        if until > bpu.stall_until:
                            bpu.stall_until = until
                        break
                    taken_budget -= 1
                    if taken_budget <= 0:
                        break

        # ---- stage: probe (FetchUnit.probe_stage inlined) ------------
        n = len(entries)
        pp = ftq.probe_ptr
        while pp < n and entries[pp].state != 1:
            pp += 1
        ftq.probe_ptr = pp
        if pp < n:
            probes = probe_width
            idx = pp
            while idx < n and probes > 0:
                entry = entries[idx]
                if entry.state == 1:
                    if not wrong_path_fills and entry.cursor_seg == -1:
                        # Ablation: wrong-path entries consume no memory
                        # bandwidth.
                        entry.state = 3
                        entry.ready_cycle = cycle + 1
                        entry.way = 0
                    else:
                        probes -= 1
                        # InstructionMemory.demand_probe inlined:
                        # TLB.translate ...
                        addr = entry.start
                        page = addr & tlb_page_mask
                        if page in tlb_pages:
                            tlb_pages.move_to_end(page)
                            tlb.hits += 1
                            tlb_lat = 0
                        else:
                            tlb.misses += 1
                            if len(tlb_pages) >= tlb_capacity:
                                tlb_pages.popitem(last=False)
                            tlb_pages[page] = None
                            tlb_lat = tlb_miss_latency
                        counters["l1i_tag_access"] += 1
                        # ... then Cache.probe.
                        line = addr & l1i_line_mask
                        l1i.tag_probes += 1
                        set_shift = addr >> l1i_line_shift
                        if l1i_set_mask >= 0:
                            set_idx = set_shift & l1i_set_mask
                        else:
                            set_idx = set_shift % l1i_n_sets
                        ways = l1i_sets[set_idx]
                        way = -1
                        # What the prefetcher's on_access sees: a miss
                        # event once per miss transaction.
                        access_hit = True
                        if ways:
                            if ways[0] == line:  # MRU fast path
                                way = 0
                            elif line in ways:
                                way = ways.index(line)
                                del ways[way]
                                ways.insert(0, line)
                        if way >= 0:
                            l1i.hits += 1
                            counters["l1i_hit"] += 1
                            if line in prefetched_untouched:
                                prefetched_untouched.discard(line)
                                counters["prefetch_useful"] += 1
                            entry.state = 3
                            entry.way = way
                            entry.ready_cycle = cycle + tlb_lat + 1
                        else:
                            l1i.misses += 1
                            counters["l1i_tag_miss"] += 1
                            if perfect_mem:
                                counters["l1i_miss"] += 1
                                l1i_fill(addr)
                                counters["memory_requests"] += 1
                                entry.state = 3
                                entry.way = 0
                                entry.ready_cycle = cycle + tlb_lat + 1
                            else:
                                access_hit = False
                                inflight = by_line.get(line)
                                if inflight is not None:
                                    # Secondary miss: merge into the
                                    # outstanding fill (MSHR allocate).
                                    primary = inflight.is_prefetch
                                    access_hit = not primary
                                    if primary:
                                        counters["prefetch_late"] += 1
                                        counters["l1i_miss"] += 1
                                    else:
                                        counters["l1i_miss_secondary"] += 1
                                    mshrs.merges += 1
                                    inflight.is_prefetch = False
                                    inflight.waiters.append(entry)
                                    entry.state = 2  # STATE_AWAIT_FILL
                                    entry.missed = primary
                                    entry.miss_issued_at_head = primary and idx == 0
                                elif len(by_line) >= mshr_capacity:
                                    counters["mshr_stall"] += 1
                                    counters["probe_retry"] += 1
                                    entry.missed = True
                                else:
                                    counters["l1i_miss"] += 1
                                    ready = cycle + tlb_lat + fill_latency(line)
                                    mshr = MSHREntry(
                                        line=line,
                                        issue_cycle=cycle,
                                        ready_cycle=ready,
                                        is_prefetch=False,
                                    )
                                    mshr.waiters.append(entry)
                                    by_line[line] = mshr
                                    if ready < next_fill:
                                        next_fill = ready
                                        mshrs.next_ready = ready
                                    mshrs.allocations += 1
                                    occ = len(by_line)
                                    if occ > mshrs.peak_occupancy:
                                        mshrs.peak_occupancy = occ
                                    entry.state = 2  # STATE_AWAIT_FILL
                                    entry.missed = True
                                    entry.miss_issued_at_head = idx == 0
                        if pf_on_access is not None:
                            pf_on_access(line, access_hit, cycle)
                idx += 1

        # ---- stage: prefetch (Prefetcher.cycle inlined) -------------
        # Drain up to MAX_ISSUE_PER_CYCLE queued lines, each through
        # InstructionMemory.prefetch_line inlined: a tag probe that
        # counts no tag_probes (Cache.probe(count_tag_access=False)),
        # then redundant / in-flight merge / MSHR reject / issue.
        # Queue entries are line addresses (Prefetcher.enqueue masks).
        issue = MAX_ISSUE_PER_CYCLE
        while issue > 0 and pf_queue:
            issue -= 1
            line = pf_queue.popleft()
            pf_queued.discard(line)
            counters["l1i_tag_access"] += 1
            counters["prefetch_probe"] += 1
            set_shift = line >> l1i_line_shift
            if l1i_set_mask >= 0:
                set_idx = set_shift & l1i_set_mask
            else:
                set_idx = set_shift % l1i_n_sets
            ways = l1i_sets[set_idx]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                l1i.hits += 1
                counters["prefetch_redundant"] += 1
            else:
                l1i.misses += 1
                if line in by_line:
                    counters["prefetch_inflight_merge"] += 1
                elif len(by_line) >= mshr_capacity:
                    counters["prefetch_mshr_reject"] += 1
                else:
                    ready = cycle + fill_latency(line)
                    by_line[line] = MSHREntry(
                        line=line,
                        issue_cycle=cycle,
                        ready_cycle=ready,
                        is_prefetch=True,
                    )
                    if ready < next_fill:
                        next_fill = ready
                        mshrs.next_ready = ready
                    mshrs.allocations += 1
                    occ = len(by_line)
                    if occ > mshrs.peak_occupancy:
                        mshrs.peak_occupancy = occ
                    counters["prefetch_issued"] += 1

        # ---- hook: idle skip + fetch-bandwidth drain -----------------
        # Only this kernel compresses cycles; the interpreted reference
        # steps every one.  The wake cycle is the first cycle on which
        # a frontend stage can act.  Nothing can while the BPU is
        # stalled (or the FTQ is full), the FTQ head is absent, awaiting
        # a fill or not yet consumable, and no entry awaits its probe.
        # The wake is then the earliest of: the next MSHR completion,
        # the BPU stall release, the head's ready cycle and the
        # livelock guard.  A queued prefetch issues next cycle, so the
        # skip also waits for an empty prefetch queue.  Two shapes
        # compress exactly:
        #
        # * decode queue empty: each cycle before the wake is exactly
        #   one backend starvation bump, so the loop jumps straight to
        #   the wake and bumps starvation in bulk;
        # * decode queue holding only fault-free chunks (the
        #   fetch-bandwidth-bound stretch: the head block is ready but
        #   fetch already banked more instructions than the backend
        #   has retired): only the backend acts, and with no fault in
        #   flight no flush can occur.  The drain retires cycle by
        #   cycle, replicating per-cycle starvation accounting,
        #   take-splitting, the measurement boundary and fetch's
        #   starved flag on the head, without running the no-op
        #   frontend stages.  Once the queue empties, the rest of the
        #   stretch is the first shape.
        #
        # The check on `target` mirrors the loop condition: once the
        # last instruction has committed this iteration the loop is
        # about to exit, and a skip would pad cycles a per-cycle loop
        # never runs.
        if committed < target and not pf_queue:
            head_entry = entries[0] if entries else None
            wake = 0
            if head_entry is None:
                wake = guard + 1
            elif head_entry.state == 2:  # AWAIT_FILL: woken by an MSHR completion
                wake = guard + 1
            elif head_entry.state == 3 and head_entry.ready_cycle > cycle + 1:
                wake = head_entry.ready_cycle
            if wake:
                if len(entries) < ftq_capacity:
                    stall_until = bpu.stall_until
                    if stall_until <= cycle + 1:
                        wake = 0  # the BPU can predict next cycle
                    elif stall_until < wake:
                        wake = stall_until
                if wake:
                    # No entry behind probe_ptr awaits its probe.
                    idx = ftq.probe_ptr
                    n = len(entries)
                    while idx < n:
                        if entries[idx].state == 1:  # AWAIT_PROBE: probe acts next cycle
                            wake = 0
                            break
                        idx += 1
            if wake:
                if next_fill < wake:
                    wake = next_fill
                if wake > guard + 1:
                    wake = guard + 1
            if wake > cycle + 1:
                if not chunks:
                    counters["starvation_cycles"] += wake - cycle - 1
                    cycle = wake - 1
                else:
                    fault_free = True
                    for chunk in chunks:
                        if chunk.fault is not None:
                            fault_free = False
                            break
                    if fault_free:
                        # Drain: only the backend acts until `wake`; no
                        # flush is possible, so retire cycle-by-cycle
                        # (take-splitting and per-cycle starvation
                        # accounting replicated exactly) without running
                        # the no-op frontend stages.
                        c = cycle
                        end = wake - 1
                        while c < end:
                            c += 1
                            if dq.total_instrs < retire_width:
                                counters["starvation_cycles"] += 1
                            budget = retire_width
                            while budget > 0 and chunks:
                                chunk = chunks[0]
                                avail = chunk.n - chunk.pos
                                take = budget if budget < avail else avail
                                if chunk.wrong_path:
                                    counters["wrong_path_consumed"] += take
                                else:
                                    committed += take
                                    backend.committed = committed
                                    counters["committed_instructions"] += take
                                    if committed <= train_at:
                                        trainer.committed = committed
                                    else:
                                        trainer_advance(take)
                                        train_at = _train_at(
                                            trainer, br_commit, stream_instructions
                                        )
                                chunk.pos += take
                                dq.total_instrs -= take
                                if chunk.pos >= chunk.n:
                                    chunks.popleft()
                                budget -= take
                            if not measuring and committed >= warmup:
                                sim.cycle = c
                                sim._begin_measurement()
                                measuring = True
                                counters = sim.stats._counters
                            # Fetch's starved flag: only when fetch would
                            # have run (free decode slots) and found too
                            # few banked instructions.
                            if (
                                head_entry is not None
                                and dq.total_instrs < dq_capacity
                                and dq.total_instrs < fetch_width
                            ):
                                head_entry.starved_while_head = True
                            if pf_queue:
                                # A committed branch enqueued a prefetch:
                                # issue it this cycle, as the prefetch
                                # stage would, and go back to stepping.
                                pf_cycle(c)
                                next_fill = mshrs.next_ready
                                break
                            if committed >= target:
                                break
                            if not chunks:
                                rem = end - c
                                if rem > 0:
                                    counters["starvation_cycles"] += rem
                                    if head_entry is not None:
                                        head_entry.starved_while_head = True
                                c = end
                                break
                        cycle = c

        # ---- hook: livelock_guard ------------------------------------
        cycle += 1
        if cycle > guard:
            sim.cycle = cycle
            raise sim._livelock_error(target)

    sim.cycle = cycle
