"""Branch Target Buffer.

16B-indexed set-associative BTB (Section IV-B): every branch in the
same 16-byte chunk maps to the same set, so one fetch-block scan costs
at most ``block_bytes / 16`` set reads.  Entries store the full branch
address (functional tag), branch kind and target; LRU within a set.

The BTB is the FDP capacity lever the paper sweeps from 1K to 32K
entries (Figs 7/11) and the insertion policy (taken-only vs all
branches) is part of the Table V history policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import BranchKind

_CHUNK_BYTES = 16


def _entry_addr(entry: "BTBEntry") -> int:
    """Sort key for scan results (module-level: no per-call closure)."""
    return entry.addr


@dataclass(slots=True)
class BTBEntry:
    """One BTB entry: a previously seen branch."""

    addr: int
    kind: BranchKind
    target: int
    """Last observed target; authoritative for direct branches, a hint
    (overridable by ITTAGE/RAS) for indirect branches and returns."""


class BTB:
    """Set-associative, 16B-indexed branch target buffer.

    ``scan_block`` runs for every FTQ entry the prediction pipeline
    forms, so set indexing uses a mask whenever ``n_sets`` is a power
    of two (all the Fig 7/11 sweep points) with a ``%`` fallback.
    """

    __slots__ = (
        "n_entries",
        "assoc",
        "n_sets",
        "_set_mask",
        "_sets",
        "lookups",
        "hit_count",
        "insertions",
        "evictions",
    )

    def __init__(self, n_entries: int, assoc: int) -> None:
        if n_entries <= 0 or assoc <= 0 or n_entries % assoc:
            raise ValueError("invalid BTB geometry")
        self.n_entries = n_entries
        self.assoc = assoc
        self.n_sets = n_entries // assoc
        self._set_mask = self.n_sets - 1 if self.n_sets & (self.n_sets - 1) == 0 else -1
        # Each set is MRU-ordered.
        self._sets: list[list[BTBEntry]] = [[] for _ in range(self.n_sets)]
        self.lookups = 0
        self.hit_count = 0
        self.insertions = 0
        self.evictions = 0

    def _set_index(self, addr: int) -> int:
        if self._set_mask >= 0:
            return (addr >> 4) & self._set_mask
        return (addr // _CHUNK_BYTES) % self.n_sets

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> BTBEntry | None:
        """Single-branch probe with LRU update."""
        self.lookups += 1
        ways = self._sets[self._set_index(addr)]
        for i, entry in enumerate(ways):
            if entry.addr == addr:
                self.hit_count += 1
                if i:
                    ways.remove(entry)
                    ways.insert(0, entry)
                return entry
        return None

    def scan_block(self, start: int, end: int) -> list[BTBEntry]:
        """Return all held branches with ``start <= addr <= end``, in
        address order, promoting each to MRU.

        This is the fetch-block scan the prediction pipeline performs
        for every FTQ entry it forms.
        """
        self.lookups += 1
        found: list[BTBEntry] = []
        sets = self._sets
        set_index = self._set_index
        chunk = start & ~(_CHUNK_BYTES - 1)
        seen_sets: list[int] = []  # a fetch block spans at most a few chunks
        while chunk <= end:
            set_idx = set_index(chunk)
            if set_idx not in seen_sets:
                seen_sets.append(set_idx)
                for entry in sets[set_idx]:
                    if start <= entry.addr <= end:
                        found.append(entry)
            chunk += _CHUNK_BYTES
        if found:
            self.hit_count += 1
            found.sort(key=_entry_addr)
            for entry in found:
                ways = sets[set_index(entry.addr)]
                if ways[0] is not entry:
                    ways.remove(entry)
                    ways.insert(0, entry)
        return found

    def contains(self, addr: int) -> bool:
        """Presence probe with no LRU update and no stats (commit-side
        detection checks use this so they don't perturb replacement)."""
        if self._set_mask >= 0:
            ways = self._sets[(addr >> 4) & self._set_mask]
        else:
            ways = self._sets[(addr // _CHUNK_BYTES) % self.n_sets]
        for entry in ways:
            if entry.addr == addr:
                return True
        return False

    def was_l2_sourced(self, addr: int) -> bool:
        """Single-level BTB: every hit is first-level (see btb2l)."""
        return False

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    def insert(self, addr: int, kind: BranchKind, target: int) -> None:
        """Install or update a branch; evicts LRU within the set."""
        if not kind.is_branch:
            raise ValueError("cannot insert a non-branch into the BTB")
        ways = self._sets[self._set_index(addr)]
        for i, entry in enumerate(ways):
            if entry.addr == addr:
                entry.kind = kind
                entry.target = target
                if i:
                    ways.remove(entry)
                    ways.insert(0, entry)
                return
        if len(ways) >= self.assoc:
            ways.pop()
            self.evictions += 1
        ways.insert(0, BTBEntry(addr=addr, kind=kind, target=target))
        self.insertions += 1

    def invalidate(self, addr: int) -> bool:
        ways = self._sets[self._set_index(addr)]
        for entry in ways:
            if entry.addr == addr:
                ways.remove(entry)
                return True
        return False

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def reset_stats(self) -> None:
        self.lookups = 0
        self.hit_count = 0
        self.insertions = 0
        self.evictions = 0
