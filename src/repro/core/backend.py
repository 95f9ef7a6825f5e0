"""Decode queue, commit-time training and the consuming backend.

The paper's experiments are all frontend-bound, so the backend is an
ideal consumer: it retires up to ``retire_width`` instructions per
cycle from the decode queue and charges a fixed pipeline penalty when
it consumes a mispredicted branch.  Starvation cycles -- cycles where
the decode queue holds fewer than a decode-width of instructions -- are
the paper's fetch-stall metric (Section VI-D).

:class:`CommitTrainer` replays the committed oracle stream into the
predictors: TAGE/Gshare direction training, BTB insertion per the
active allocation policy, ITTAGE target training, the architectural RAS
and the architectural global history.  The architectural history is
what every pipeline flush copies back into the frontend.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.branch.btb import BTB
from repro.branch.history import HistoryManager
from repro.branch.ittage import ITTAGE
from repro.branch.ras import ReturnAddressStack
from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.frontend.bpu import Fault
from repro.isa.instructions import BranchKind
from repro.trace.fbmeta import stream_meta
from repro.trace.oracle import OracleStream

# Commit training dispatches on the branch kind once per committed
# branch: identity and frozenset tests, not BranchKind property calls.
_COND = BranchKind.COND_DIRECT
_RETURN = BranchKind.RETURN
_INDIRECT_KINDS = frozenset((BranchKind.INDIRECT, BranchKind.INDIRECT_CALL))
_CALL_KINDS = frozenset((BranchKind.CALL_DIRECT, BranchKind.INDIRECT_CALL))


@dataclass(slots=True)
class _Chunk:
    n: int
    fault: Fault | None
    fault_index: int
    wrong_path: bool
    pos: int = 0


class DecodeQueue:
    """Bounded FIFO of fetched instruction groups."""

    __slots__ = ("capacity", "_chunks", "total_instrs")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("decode queue capacity must be positive")
        self.capacity = capacity
        self._chunks: deque[_Chunk] = deque()
        self.total_instrs = 0

    @property
    def free_slots(self) -> int:
        return self.capacity - self.total_instrs

    def push(self, n_instrs: int, fault: Fault | None, fault_index: int, wrong_path: bool) -> None:
        """Append ``n_instrs`` fetched instructions.

        A fault-free group joins a fault-free tail chunk on the same
        path (correct into correct, wrong into wrong) instead of
        opening a chunk of its own.  Retirement cannot tell the
        difference: it takes the same count per cycle either way,
        ``CommitTrainer.advance(a); advance(b)`` trains exactly what
        ``advance(a + b)`` does, and the measurement-boundary and
        target checks run once per cycle, after retire.  A chunk
        carrying a fault never merges, in either role.
        """
        if n_instrs <= 0:
            raise ValueError("chunk must contain instructions")
        if n_instrs > self.free_slots:
            raise RuntimeError("decode queue overflow")
        chunks = self._chunks
        if fault is None and chunks:
            tail = chunks[-1]
            if tail.fault is None and tail.wrong_path == wrong_path:
                tail.n += n_instrs
                self.total_instrs += n_instrs
                return
        chunks.append(_Chunk(n_instrs, fault, fault_index, wrong_path))
        self.total_instrs += n_instrs

    def flush(self) -> None:
        self._chunks.clear()
        self.total_instrs = 0

    def __len__(self) -> int:
        return len(self._chunks)

    def head(self) -> _Chunk | None:
        return self._chunks[0] if self._chunks else None

    def pop_head(self) -> None:
        chunk = self._chunks.popleft()
        self.total_instrs -= chunk.n - chunk.pos

    def consume_from_head(self, take: int) -> None:
        chunk = self._chunks[0]
        chunk.pos += take
        self.total_instrs -= take
        if chunk.pos >= chunk.n:
            self._chunks.popleft()

    def validate(self) -> list[str]:
        """Structural invariants (:mod:`repro.check`); side-effect free."""
        problems: list[str] = []
        total = 0
        for i, chunk in enumerate(self._chunks):
            if chunk.n <= 0 or not 0 <= chunk.pos < chunk.n:
                problems.append(
                    f"decode-queue chunk {i}: position {chunk.pos} outside [0, {chunk.n})"
                )
            if i > 0 and chunk.pos:
                problems.append(f"decode-queue chunk {i}: non-head chunk partially consumed")
            total += chunk.n - chunk.pos
        if total != self.total_instrs:
            problems.append(
                f"decode-queue occupancy counter {self.total_instrs} != chunk sum {total}"
            )
        if self.total_instrs > self.capacity:
            problems.append(
                f"decode queue holds {self.total_instrs} instructions, capacity {self.capacity}"
            )
        return problems


class CommitTrainer:
    """Replays committed instructions into the predictors, in order."""

    __slots__ = (
        "stream",
        "mgr",
        "btb",
        "direction",
        "ittage",
        "stats",
        "train_direction",
        "btb_insert_hook",
        "loop",
        "arch_ras",
        "arch_hist",
        "flat_br",
        "committed",
        "branch_listener",
        "_smeta",
    )

    def __init__(
        self,
        stream: OracleStream,
        mgr: HistoryManager,
        btb: BTB,
        direction,
        ittage: ITTAGE,
        stats: StatSet,
        train_direction: bool = True,
        btb_insert_hook=None,
        loop=None,
    ) -> None:
        self.stream = stream
        self.mgr = mgr
        self.btb = btb
        self.direction = direction
        self.ittage = ittage
        self.stats = stats
        self.train_direction = train_direction
        self.btb_insert_hook = btb_insert_hook
        self.loop = loop
        self.arch_ras = ReturnAddressStack()
        self.arch_hist = 0
        self.flat_br = 0
        """Flat cursor into the stream's commit-order branch arrays
        (:class:`repro.trace.fbmeta.StreamMeta`): branches below it have
        trained, branches at or above it have not."""
        self.committed = 0
        self.branch_listener = None
        self._smeta = stream_meta(stream)
        """Optional callable(pc, kind, taken, target) -- prefetchers that
        watch the committed branch stream (e.g. D-JOLT) subscribe here."""

    def add_branch_listener(self, listener, first: bool = False) -> None:
        """Subscribe ``listener`` to the committed-branch hook point.

        Listeners are called as ``listener(pc, kind, taken, target)``.
        Multiple listeners compose: a new one runs after those already
        installed, unless ``first=True`` puts it ahead (the
        differential recorder uses this to observe each branch before
        prefetcher training can react to it).  A single listener stays
        a plain attribute, so the common one-subscriber case pays no
        dispatch overhead.
        """
        current = self.branch_listener
        if current is None:
            self.branch_listener = listener
            return
        earlier, later = (listener, current) if first else (current, listener)

        def _chained(pc, kind, taken, target, _a=earlier, _b=later):
            _a(pc, kind, taken, target)
            _b(pc, kind, taken, target)

        self.branch_listener = _chained

    # ------------------------------------------------------------------
    # Derived cursors
    #
    # The trainer's architectural position is fully determined by
    # ``committed`` (instructions) and ``flat_br`` (branches); the
    # segment-relative cursors the flush path and the invariant checker
    # read are derived on demand instead of maintained per step.
    # ------------------------------------------------------------------
    @property
    def seg_idx(self) -> int:
        """Index of the segment holding the next instruction to commit
        (``len(segments)`` once the stream is exhausted)."""
        stream = self.stream
        if self.committed >= stream.total_instructions:
            return len(stream.segments)
        return stream.segment_at_instruction(self.committed)

    @property
    def pos(self) -> int:
        """Committed instructions within the current segment."""
        stream = self.stream
        c = self.committed
        if c >= stream.total_instructions:
            return 0
        return c - stream.cumulative[stream.segment_at_instruction(c)]

    @property
    def br_ptr(self) -> int:
        """Trained branches within the current segment."""
        idx = self.seg_idx
        first = self._smeta.seg_first_br
        if idx >= len(first) - 1:
            return 0
        return self.flat_br - first[idx]

    @property
    def commit_pc(self) -> int:
        """Address of the next instruction to commit."""
        point = self.resume_point()
        if point is None:
            raise IndexError("the oracle stream is fully committed")
        return point[1]

    def resume_point(self) -> tuple[int, int] | None:
        """``(seg_idx, commit_pc)`` of the next instruction to commit,
        from one segment bisect; ``None`` once the stream is exhausted.

        This is where a pipeline flush restarts prediction.
        """
        stream = self.stream
        c = self.committed
        if c >= stream.total_instructions:
            return None
        idx = stream.segment_at_instruction(c)
        return idx, stream.segments[idx].start + 4 * (c - stream.cumulative[idx])

    def advance(self, n: int) -> None:
        """Commit ``n`` oracle instructions, training along the way.

        One flat sweep over the stream's commit-order branch arrays:
        a branch trains exactly when its global commit index falls
        below the new committed count, which is the same condition the
        per-segment walk evaluated segment-locally.
        """
        new_committed = self.committed + n
        if new_committed > self.stream.total_instructions:
            raise RuntimeError("commit ran past the oracle stream")
        smeta = self._smeta
        commits = smeta.br_commit
        ptr = self.flat_br
        n_br = len(commits)
        if ptr >= n_br or commits[ptr] >= new_committed:
            # No branch commits in this range (most calls).
            self.committed = new_committed
            return
        addrs = smeta.br_addr
        kinds = smeta.br_kind
        takens = smeta.br_taken
        targets = smeta.br_target
        train = self._train
        while ptr < n_br and commits[ptr] < new_committed:
            train(addrs[ptr], kinds[ptr], takens[ptr], targets[ptr])
            ptr += 1
        self.flat_br = ptr
        self.committed = new_committed

    def _train(self, addr: int, kind: BranchKind, taken: bool, target: int) -> None:
        counters = self.stats._counters
        counters["committed_branches"] += 1
        btb = self.btb
        detected = btb.contains(addr)
        if not detected:
            counters["commit_btb_miss"] += 1

        if kind is _COND:
            counters["committed_cond_branches"] += 1
            if self.train_direction and self.direction is not None:
                self.direction.update(addr, self.arch_hist, taken)
            if self.loop is not None:
                self.loop.train(addr, taken)
        elif kind in _INDIRECT_KINDS:
            self.ittage.update(addr, self.arch_hist, target)

        if kind in _CALL_KINDS:
            self.arch_ras.push(addr + 4)
        elif kind is _RETURN:
            self.arch_ras.pop()

        mgr = self.mgr
        if taken or mgr._alloc_all:
            stored_target = target if taken else self._static_target(kind, target)
            btb.insert(addr, kind, stored_target)
            if self.btb_insert_hook is not None:
                self.btb_insert_hook(addr, kind, stored_target, taken)

        if self.branch_listener is not None:
            self.branch_listener(addr, kind, taken, target)

        self.arch_hist, fixup = mgr.commit_push(self.arch_hist, addr, taken, target, detected)
        if fixup:
            counters["commit_history_fixups"] += 1

    @staticmethod
    def _static_target(kind: BranchKind, target: int) -> int:
        # For not-taken conditionals the oracle record's target *is* the
        # static destination, which is what an all-branch BTB stores.
        return target


class Backend:
    """Ideal-width consumer with misprediction penalties."""

    __slots__ = (
        "params",
        "dq",
        "trainer",
        "stats",
        "flush_callback",
        "committed",
        "telemetry",
        "_retire_width",
    )

    def __init__(
        self,
        params: SimParams,
        decode_queue: DecodeQueue,
        trainer: CommitTrainer,
        stats: StatSet,
        flush_callback,
    ) -> None:
        self.params = params
        self.dq = decode_queue
        self.trainer = trainer
        self.stats = stats
        self.flush_callback = flush_callback
        self.committed = 0
        self.telemetry = None
        """Optional telemetry hub (set by Telemetry.attach on traced runs)."""
        self._retire_width = params.core.retire_width

    def cycle(self, cycle: int) -> None:
        """Retire up to ``retire_width`` instructions."""
        width = self._retire_width
        dq = self.dq
        if dq.total_instrs < width:
            self.stats.bump("starvation_cycles")
            if not dq._chunks:  # empty queue: nothing to retire this cycle
                return
        budget = width
        while budget > 0:
            chunk = self.dq.head()
            if chunk is None:
                break
            avail = chunk.n - chunk.pos
            take = min(budget, avail)
            fault_hit = (
                chunk.fault is not None
                and chunk.pos <= chunk.fault_index < chunk.pos + take
            )
            if fault_hit:
                take = chunk.fault_index - chunk.pos + 1
            self._consume(chunk, take)
            budget -= take
            if fault_hit:
                self._flush(chunk.fault, cycle)
                break

    def _consume(self, chunk: _Chunk, take: int) -> None:
        if chunk.wrong_path:
            self.stats.bump("wrong_path_consumed", take)
        else:
            self.committed += take
            self.stats.bump("committed_instructions", take)
            self.trainer.advance(take)
        self.dq.consume_from_head(take)

    def _flush(self, fault: Fault, cycle: int) -> None:
        self.stats.bump("branch_mispredictions")
        self.stats.bump(f"mispredict_{fault.kind_label}")
        if fault.branch_kind is BranchKind.COND_DIRECT:
            self.stats.bump("cond_mispredictions")
        if self.telemetry is not None:
            self.telemetry.event(
                "flush", pc=fault.pc, fault=fault.kind_label, branch=fault.branch_kind.name
            )
        self.flush_callback(fault, cycle)
