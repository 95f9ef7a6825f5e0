"""Branch Target Buffer.

16B-indexed set-associative BTB (Section IV-B): every branch in the
same 16-byte chunk maps to the same set, so one fetch-block scan costs
at most ``block_bytes / 16`` set reads.  Entries store the full branch
address (functional tag), branch kind and target; LRU within a set.

The BTB is the FDP capacity lever the paper sweeps from 1K to 32K
entries (Figs 7/11) and the insertion policy (taken-only vs all
branches) is part of the Table V history policies.

Layout: the per-set MRU lists (``_sets``) are the only replacement
state.  Beside them, ``_chunk_index`` maps each chunk number
(``addr >> 4``) to the entries the BTB holds in that chunk, sorted by
address: a chunk lives in exactly one set, so the index is a view of
the sets that :meth:`BTB.insert`, eviction and :meth:`BTB.invalidate`
keep in step (nothing else mutates ``_sets``), and :meth:`BTB.validate`
checks.  A fetch-block scan reads its one to four chunk slots instead
of walking whole sets, so its cost follows what it finds: most scans
find nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import BranchKind

_CHUNK_BYTES = 16
_NONE = BranchKind.NONE


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
    forms, so it reads the chunk index rather than the sets; set
    indexing (for replacement) uses a mask whenever ``n_sets`` is a
    power of two (all the Fig 7/11 sweep points) with a ``%`` fallback.
    """

    __slots__ = (
        "n_entries",
        "assoc",
        "n_sets",
        "_set_mask",
        "_sets",
        "_chunk_index",
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
        # Chunk number -> the held entries of that chunk, address-sorted.
        self._chunk_index: dict[int, list[BTBEntry]] = {}

    def _set_index(self, addr: int) -> int:
        if self._set_mask >= 0:
            return (addr >> 4) & self._set_mask
        return (addr // _CHUNK_BYTES) % self.n_sets

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def scan_block(self, start: int, end: int) -> list[BTBEntry]:
        """Return all held branches with ``start <= addr <= end``, in
        address order, promoting each to MRU in that order.

        This is the fetch-block scan the prediction pipeline performs
        for every FTQ entry it forms: it reads the chunk slots of
        ``[start, end]`` in ascending order, whose entries are already
        address-sorted.
        """
        index = self._chunk_index
        found: list[BTBEntry] = []
        chunk = start >> 4
        last = end >> 4
        while chunk <= last:
            held = index.get(chunk)
            if held is not None:
                for entry in held:
                    if start <= entry.addr <= end:
                        found.append(entry)
            chunk += 1
        if found:
            sets = self._sets
            mask = self._set_mask
            for entry in found:
                if mask >= 0:
                    ways = sets[(entry.addr >> 4) & mask]
                else:
                    ways = sets[(entry.addr >> 4) % self.n_sets]
                if ways[0] is not entry:
                    i = 1
                    while ways[i] is not entry:
                        i += 1
                    del ways[i]
                    ways.insert(0, entry)
        return found

    def contains(self, addr: int) -> bool:
        """Presence probe with no LRU update (commit-side detection
        checks use this so they don't perturb replacement)."""
        held = self._chunk_index.get(addr >> 4)
        if held is not None:
            for entry in held:
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
        if kind is _NONE:
            raise ValueError("cannot insert a non-branch into the BTB")
        ways = self._sets[self._set_index(addr)]
        for i, entry in enumerate(ways):
            if entry.addr == addr:
                entry.kind = kind
                entry.target = target
                if i:
                    del ways[i]
                    ways.insert(0, entry)
                return
        index = self._chunk_index
        if len(ways) >= self.assoc:
            self._unindex(ways.pop())
        entry = BTBEntry(addr=addr, kind=kind, target=target)
        ways.insert(0, entry)
        held = index.get(addr >> 4)
        if held is None:
            index[addr >> 4] = [entry]
        else:
            i = len(held)
            while i and held[i - 1].addr > addr:
                i -= 1
            held.insert(i, entry)

    def invalidate(self, addr: int) -> bool:
        ways = self._sets[self._set_index(addr)]
        for i, entry in enumerate(ways):
            if entry.addr == addr:
                del ways[i]
                self._unindex(entry)
                return True
        return False

    def _unindex(self, entry: BTBEntry) -> None:
        """Drop ``entry`` (just removed from its set) from the chunk index."""
        chunk = entry.addr >> 4
        held = self._chunk_index[chunk]
        if len(held) == 1:
            del self._chunk_index[chunk]
            return
        for i, other in enumerate(held):
            if other is entry:
                del held[i]
                return

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self, name: str = "BTB") -> list[str]:
        """Structural invariants (:mod:`repro.check`); side-effect free.

        No set exceeds ``assoc`` or holds an entry of another set, no
        address is held twice, and the chunk index mirrors the sets
        exactly: the same entry objects, each under its own chunk,
        address-sorted, with no empty chunk slot.
        """
        problems: list[str] = []
        held_by_sets: dict[int, BTBEntry] = {}
        for set_idx, ways in enumerate(self._sets):
            if len(ways) > self.assoc:
                problems.append(
                    f"{name} set {set_idx} holds {len(ways)} entries, associativity {self.assoc}"
                )
            for entry in ways:
                if self._set_index(entry.addr) != set_idx:
                    problems.append(f"{name} entry {entry.addr:#x} sits in wrong set {set_idx}")
                if entry.addr in held_by_sets:
                    problems.append(f"{name} holds address {entry.addr:#x} twice")
                held_by_sets[entry.addr] = entry
        indexed = 0
        for chunk, held in self._chunk_index.items():
            addrs = [entry.addr for entry in held]
            if not held:
                problems.append(f"{name} chunk index keeps empty chunk {chunk:#x}")
            elif any(a >= b for a, b in zip(addrs, addrs[1:])):
                problems.append(
                    f"{name} chunk {chunk:#x} index not strictly address-sorted: "
                    + ", ".join(f"{a:#x}" for a in addrs)
                )
            for entry in held:
                if entry.addr >> 4 != chunk:
                    problems.append(
                        f"{name} chunk {chunk:#x} indexes foreign entry {entry.addr:#x}"
                    )
                elif held_by_sets.get(entry.addr) is not entry:
                    problems.append(
                        f"{name} chunk index holds entry {entry.addr:#x} that no set holds"
                    )
            indexed += len(held)
        if indexed != len(held_by_sets):
            problems.append(
                f"{name} chunk index holds {indexed} entries, its sets {len(held_by_sets)}"
            )
        return problems

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)
