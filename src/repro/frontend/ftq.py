"""Fetch Target Queue.

The FTQ is the only structure FDP adds to a decoupled frontend
(Section IV-A).  Each entry covers (part of) one aligned fetch block;
its architectural fields follow Table III exactly -- start address,
predicted-taken bit, block-termination offset, I-cache way, 2-bit
state, and the per-instruction direction-hint bits that our extended
PFC adds.  The remaining attributes are simulator bookkeeping (history
snapshots, oracle cursor, miss-classification flags), not hardware
state; :func:`entry_storage_bits` in :mod:`repro.core.metrics` computes
the real 195-byte cost from the architectural fields alone.

Stage interface: the ``predict`` stage of the reference loop
(:func:`repro.core.simulator.reference_kernel`) binds the FTQ object
itself (it is passed to ``bpu.cycle`` every cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.frontend.bpu import Fault

# FTQ entry states (Table III / Section IV-C).
STATE_AWAIT_PROBE = 1
"""Branch prediction completed; waiting for I-TLB/I-cache tag lookup."""
STATE_AWAIT_FILL = 2
"""Tag lookup missed; an I-cache fill is in flight."""
STATE_READY = 3
"""Line resident; instructions can be sent to the decode queue."""


@dataclass(slots=True)
class FTQEntry:
    """One FTQ entry plus simulator-side annotations."""

    uid: int
    start: int
    term_addr: int
    pred_taken: bool
    pred_target: int
    hist_snapshot: int
    detected: tuple[int, ...] = ()
    dir_pushes: tuple[tuple[int, bool], ...] = ()
    """(branch addr, pushed bit) for detected branches, in address order;
    empty under target history (nothing is pushed before the terminator)."""
    ras_top: int | None = None
    cursor_seg: int = -1
    """Oracle segment index at ``start``; -1 = entry begins on the wrong path."""
    fault: "Fault | None" = None

    # Fetch-pipeline state.
    state: int = STATE_AWAIT_PROBE
    way: int = -1
    ready_cycle: int = -1
    consumed: int = 0
    """Instructions already moved to the decode queue."""

    # Miss-classification bookkeeping (Fig 14).
    missed: bool = False
    miss_issued_at_head: bool = False
    starved_while_head: bool = False
    pfc_checked: bool = False

    def __post_init__(self) -> None:
        if self.term_addr < self.start:
            raise ValueError("entry must cover at least one instruction")
        if (self.term_addr - self.start) % 4:
            raise ValueError("entry bounds must be instruction aligned")

    @property
    def n_instrs(self) -> int:
        return ((self.term_addr - self.start) >> 2) + 1

    @property
    def remaining(self) -> int:
        return self.n_instrs - self.consumed

    @property
    def next_fetch_addr(self) -> int:
        """Address the stream continues at after this entry."""
        if self.pred_taken:
            return self.pred_target
        return self.term_addr + 4

    def truncate(self, new_term: int, taken: bool, target: int) -> None:
        """Shrink the entry (PFC / history-fixup re-steer at ``new_term``)."""
        if not self.start <= new_term <= self.term_addr:
            raise ValueError("truncation point outside entry")
        self.term_addr = new_term
        self.pred_taken = taken
        self.pred_target = target

    def hist_before(self, addr: int, mgr) -> int:
        """History the frontend held just before slot ``addr``.

        Replays this entry's recorded pushes for detected branches older
        than ``addr`` on top of the entry-start snapshot.  Under target
        history there are no intra-entry pushes (footnote 1 of the
        paper), so this returns the snapshot unchanged.
        """
        hist = self.hist_snapshot
        for push_addr, bit in self.dir_pushes:
            if push_addr >= addr:
                break
            if bit:
                hist = mgr.push_taken(hist, push_addr, 0)
            else:
                hist = mgr.push_not_taken(hist)
        return hist


class FTQ:
    """Bounded in-order queue of fetch targets."""

    __slots__ = ("n_entries", "_entries", "telemetry", "probe_ptr")

    def __init__(self, n_entries: int) -> None:
        if n_entries < 1:
            raise ValueError("FTQ needs at least one entry")
        self.n_entries = n_entries
        # A list, not a deque: the probe stage indexes entries randomly
        # (probe_ptr prefix skip), which is O(1) on a list but O(n) on a
        # deque, and at <= a few dozen entries pop(0) is a trivial memmove.
        self._entries: list[FTQEntry] = []
        self.telemetry = None
        """Optional telemetry hub (set by Telemetry.attach on traced runs)."""
        self.probe_ptr = 0
        """Index of the oldest entry that may still be awaiting its
        I-TLB/I-cache probe.  Entry states only move forward, so the
        probe stage can skip the settled prefix instead of re-scanning
        it every cycle; the pointer is purely an iteration hint (it may
        lag, never lead) and has no architectural meaning."""

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, idx: int) -> FTQEntry:
        return self._entries[idx]

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.n_entries

    @property
    def head(self) -> FTQEntry | None:
        return self._entries[0] if self._entries else None

    def push(self, entry: FTQEntry) -> None:
        if self.full:
            raise RuntimeError("push into a full FTQ")
        self._entries.append(entry)
        tel = self.telemetry
        if tel is not None:
            tel.event(
                "ftq_push",
                uid=entry.uid,
                start=entry.start,
                n=entry.n_instrs,
                taken=entry.pred_taken,
            )

    def pop_head(self) -> FTQEntry:
        entry = self._entries.pop(0)
        if self.probe_ptr > 0:
            self.probe_ptr -= 1
        tel = self.telemetry
        if tel is not None:
            tel.event("ftq_pop", uid=entry.uid, start=entry.start, missed=entry.missed)
        return entry

    def flush_all(self) -> int:
        """Backend flush: discard everything."""
        n = len(self._entries)
        self._entries.clear()
        self.probe_ptr = 0
        tel = self.telemetry
        if tel is not None and n:
            tel.event("ftq_flush", n=n)
        return n

    def validate(self, block_bytes: int = 0) -> list[str]:
        """Structural invariants (:mod:`repro.check`); side-effect free.

        Returns human-readable descriptions of every violated invariant:
        occupancy bound, legal entry states, instruction-aligned bounds
        within one fetch block (when ``block_bytes`` is given), head-only
        partial consumption, the probe-pointer prefix property (entries
        behind ``probe_ptr`` are past their probe), and stream
        contiguity -- each entry starts where its older neighbour's
        predicted path continues.
        """
        problems: list[str] = []
        entries = self._entries
        if len(entries) > self.n_entries:
            problems.append(f"FTQ holds {len(entries)} entries, capacity {self.n_entries}")
        if not 0 <= self.probe_ptr <= len(entries):
            problems.append(f"probe_ptr {self.probe_ptr} outside [0, {len(entries)}]")
        block_mask = ~(block_bytes - 1) if block_bytes else 0
        for i, e in enumerate(entries):
            tag = f"FTQ[{i}] uid={e.uid}"
            if e.state not in (STATE_AWAIT_PROBE, STATE_AWAIT_FILL, STATE_READY):
                problems.append(f"{tag}: invalid state {e.state}")
            if e.term_addr < e.start or (e.term_addr - e.start) % 4:
                problems.append(
                    f"{tag}: bounds [{e.start:#x}..{e.term_addr:#x}] not instruction aligned"
                )
            if block_bytes and (e.start & block_mask) != (e.term_addr & block_mask):
                problems.append(f"{tag}: spans a {block_bytes}-byte fetch-block boundary")
            if not 0 <= e.consumed < e.n_instrs:
                problems.append(f"{tag}: consumed {e.consumed} outside [0, {e.n_instrs})")
            if i > 0 and e.consumed:
                problems.append(f"{tag}: non-head entry partially consumed")
            if i < self.probe_ptr and e.state == STATE_AWAIT_PROBE:
                problems.append(f"{tag}: awaiting probe behind probe_ptr {self.probe_ptr}")
            if i + 1 < len(entries) and entries[i + 1].start != e.next_fetch_addr:
                problems.append(
                    f"{tag}: stream discontinuity (next entry starts at "
                    f"{entries[i + 1].start:#x}, expected {e.next_fetch_addr:#x})"
                )
        return problems

    def flush_younger_than(self, entry: FTQEntry) -> int:
        """PFC / fixup re-steer: discard entries younger than ``entry``."""
        count = 0
        while self._entries and self._entries[-1] is not entry:
            self._entries.pop()
            count += 1
        if not self._entries:
            raise ValueError("reference entry not in FTQ")
        if self.probe_ptr > len(self._entries):
            self.probe_ptr = len(self._entries)
        tel = self.telemetry
        if tel is not None and count:
            tel.event("ftq_trim", behind_uid=entry.uid, n=count)
        return count
