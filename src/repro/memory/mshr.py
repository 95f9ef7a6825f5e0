"""Miss Status Holding Registers.

Tracks outstanding line fills.  A second request to a line already in
flight *merges* -- it neither consumes a new entry nor issues new
traffic, which is how redundant FDP probes and prefetches of the same
line coalesce (Section VI-D's traffic discussion).

A fill's ready cycle is fixed when it is allocated, so the file keeps
the earliest one, :attr:`MSHRFile.next_ready`: no fill completes
before it, and the cycle kernels skip the fill stage until then.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NO_FILL = 1 << 62
"""``MSHRFile.next_ready`` of a file with no outstanding fill: later
than any simulated cycle."""


@dataclass(slots=True)
class MSHREntry:
    """One outstanding fill."""

    line: int
    issue_cycle: int
    ready_cycle: int
    is_prefetch: bool
    waiters: list[object] = field(default_factory=list)
    """Opaque tokens (e.g. FTQ entry ids) notified on fill."""


class MSHRFile:
    """A bounded set of outstanding line-fill requests."""

    __slots__ = (
        "n_entries",
        "_by_line",
        "next_ready",
        "allocations",
        "merges",
        "rejections",
        "peak_occupancy",
    )

    def __init__(self, n_entries: int) -> None:
        if n_entries <= 0:
            raise ValueError("need at least one MSHR")
        self.n_entries = n_entries
        self._by_line: dict[int, MSHREntry] = {}
        self.next_ready = NO_FILL
        """Earliest ``ready_cycle`` of the outstanding fills
        (:data:`NO_FILL` when there is none).  Kept exact by
        :meth:`allocate` and :meth:`pop_ready`, and by the typed
        kernel's inlined allocations."""
        self.allocations = 0
        self.merges = 0
        self.rejections = 0
        self.peak_occupancy = 0
        """High-water mark of simultaneously outstanding fills."""

    def __len__(self) -> int:
        return len(self._by_line)

    @property
    def full(self) -> bool:
        return len(self._by_line) >= self.n_entries

    def lookup(self, line: int) -> MSHREntry | None:
        """Return the in-flight entry for ``line``, if any."""
        return self._by_line.get(line)

    def allocate(
        self,
        line: int,
        issue_cycle: int,
        ready_cycle: int,
        is_prefetch: bool,
        waiter: object | None = None,
    ) -> MSHREntry | None:
        """Allocate (or merge into) an entry for ``line``.

        Returns the entry, or None if the file is full and the line is
        not already in flight.  A demand merge into a prefetch entry
        *promotes* it (clears ``is_prefetch``), so accuracy accounting
        credits the prefetch.
        """
        entry = self._by_line.get(line)
        if entry is not None:
            self.merges += 1
            if not is_prefetch:
                entry.is_prefetch = False
            if waiter is not None:
                entry.waiters.append(waiter)
            return entry
        if self.full:
            self.rejections += 1
            return None
        entry = MSHREntry(
            line=line,
            issue_cycle=issue_cycle,
            ready_cycle=ready_cycle,
            is_prefetch=is_prefetch,
        )
        if waiter is not None:
            entry.waiters.append(waiter)
        self._by_line[line] = entry
        if ready_cycle < self.next_ready:
            self.next_ready = ready_cycle
        self.allocations += 1
        if len(self._by_line) > self.peak_occupancy:
            self.peak_occupancy = len(self._by_line)
        return entry

    def inflight_prefetches(self) -> int:
        """Outstanding fills still marked as prefetches (not yet demanded)."""
        return sum(1 for e in self._by_line.values() if e.is_prefetch)

    def pop_ready(self, cycle: int) -> list[MSHREntry]:
        """Remove and return all entries whose fill completes by
        ``cycle``, in ready-cycle order.

        Returns at once before :attr:`next_ready`; the reference kernel
        calls this every cycle, and most cycles complete no fill.
        """
        if cycle < self.next_ready:
            return []
        by_line = self._by_line
        ready: list[MSHREntry] = []
        next_ready = NO_FILL
        for entry in by_line.values():
            if entry.ready_cycle <= cycle:
                ready.append(entry)
            elif entry.ready_cycle < next_ready:
                next_ready = entry.ready_cycle
        for entry in ready:
            del by_line[entry.line]
        if len(ready) > 1:
            ready.sort(key=lambda e: e.ready_cycle)
        self.next_ready = next_ready
        return ready

    def validate(self) -> list[str]:
        """Structural invariants (:mod:`repro.check`); side-effect free.

        Occupancy bound, key/entry line agreement (no duplicate lines by
        construction of the dict, but a corrupted key would alias two),
        causal fill timing, and :attr:`next_ready` naming the earliest
        outstanding fill.
        """
        problems: list[str] = []
        earliest = min((e.ready_cycle for e in self._by_line.values()), default=NO_FILL)
        if self.next_ready != earliest:
            problems.append(
                f"MSHR next_ready {self.next_ready} but the earliest outstanding "
                f"fill is due at {earliest}"
            )
        if len(self._by_line) > self.n_entries:
            problems.append(f"MSHR holds {len(self._by_line)} fills, capacity {self.n_entries}")
        for line, entry in self._by_line.items():
            if entry.line != line:
                problems.append(f"MSHR key {line:#x} maps to entry for line {entry.line:#x}")
            if entry.ready_cycle < entry.issue_cycle:
                problems.append(
                    f"MSHR line {line:#x}: ready cycle {entry.ready_cycle} "
                    f"before issue cycle {entry.issue_cycle}"
                )
        return problems

    def flush_waiters(self) -> None:
        """Detach all waiters (on pipeline flush); fills still complete.

        Hardware does not cancel an outstanding fill on a flush -- the
        line arrives and is installed, it simply no longer wakes anyone.
        """
        for entry in self._by_line.values():
            entry.waiters.clear()

    def reset_stats(self) -> None:
        self.allocations = 0
        self.merges = 0
        self.rejections = 0
