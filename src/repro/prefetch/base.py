"""Prefetcher interface.

Dedicated L1I prefetchers (the paper's comparison points, Section V)
observe three event streams and may issue line-fill requests:

* ``on_access``        -- every demand tag probe of the L1I (line, hit).
* ``on_fill``          -- every line installed into the L1I.
* ``on_commit_branch`` -- the committed branch stream (used by
  call-context prefetchers like D-JOLT).

Issued prefetches go through :meth:`enqueue`; a bounded number drain to
the memory hierarchy per cycle, where each one probes the I-cache tag
array first -- the redundant-probe energy cost Fig 9 quantifies.
"""

from __future__ import annotations

from collections import deque

from repro.branch.btb import BTB
from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.isa.instructions import BranchKind
from repro.memory.hierarchy import InstructionMemory
from repro.trace.cfg import Program

MAX_ISSUE_PER_CYCLE = 4


class Prefetcher:
    """Base class: subclasses override the ``on_*`` hooks.

    The issue stage (:meth:`cycle`) is not a hook: the typed cycle
    kernel (:mod:`repro.core.typedkern`) runs its own inlined copy of
    it, so an override would diverge from the interpreted kernel.
    Subclasses issue requests through :meth:`enqueue` from their
    ``on_*`` hooks.
    """

    name = "base"

    def __init__(
        self,
        params: SimParams,
        memory: InstructionMemory,
        btb: BTB,
        program: Program,
        stats: StatSet,
    ) -> None:
        self.params = params
        self.memory = memory
        self.btb = btb
        self.program = program
        self.stats = stats
        self.line_bytes = params.memory.line_bytes
        self._line_mask = ~(memory.l1i.line_bytes - 1)
        self._queue: deque[int] = deque()
        self._queued: set[int] = set()
        self.telemetry = None
        """Optional telemetry hub (set by Telemetry.attach on traced runs)."""
        self.peak_queue = 0
        """High-water mark of the issue queue (telemetry/introspection)."""

    # ------------------------------------------------------------------
    # Event hooks (no-ops by default)
    # ------------------------------------------------------------------
    def on_access(self, line: int, hit: bool, cycle: int) -> None:
        """A demand tag probe touched ``line``."""

    def on_fill(self, line: int, cycle: int, was_prefetch: bool) -> None:
        """``line`` was installed into the L1I."""

    def on_commit_branch(self, pc: int, kind: BranchKind, taken: bool, target: int) -> None:
        """A branch committed."""

    # ------------------------------------------------------------------
    # Issue path
    # ------------------------------------------------------------------
    def enqueue(self, addr: int) -> None:
        """Queue a prefetch for the line holding ``addr``."""
        line = addr & self._line_mask
        queued = self._queued
        if line in queued:
            return
        queue = self._queue
        queue.append(line)
        queued.add(line)
        if len(queue) > self.peak_queue:
            self.peak_queue = len(queue)
        if self.telemetry is not None:
            self.telemetry.event("prefetch_enqueue", line=line, prefetcher=self.name)

    def reset_queue(self) -> None:
        """Drop queued (not yet issued) prefetches without issuing them.

        Used at the functional-warmup boundary: requests enqueued by
        warmup-window training must not drain into the measured window
        (enqueueing bumps no counters, so dropping them keeps the
        measured prefetch-usefulness partition exact).
        """
        self._queue.clear()
        self._queued.clear()

    def cycle(self, cycle: int) -> None:
        """Drain up to :data:`MAX_ISSUE_PER_CYCLE` queued prefetches.

        The interpreted kernel calls this every cycle; the typed kernel
        inlines the same drain and
        :meth:`~repro.memory.hierarchy.InstructionMemory.prefetch_line`,
        so do not override it: customise the ``on_*`` hooks instead.
        """
        budget = MAX_ISSUE_PER_CYCLE
        while budget > 0 and self._queue:
            line = self._queue.popleft()
            self._queued.discard(line)
            self.memory.prefetch_line(line, cycle)
            budget -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Approximate metadata budget of this prefetcher."""
        return 0

    @property
    def pending(self) -> int:
        return len(self._queue)
