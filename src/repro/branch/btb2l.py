"""Two-level BTB hierarchy.

Section II-B notes that commercial processors implement multi-level BTB
hierarchies, "similar to the multi-level cache hierarchy" (IBM z15,
Neoverse N1, Exynos M3).  This module provides a small, fast L1 BTB
backed by a large L2 BTB:

* scans consult L1 first; L2 hits are *promoted* into L1 (the demoted
  L1 victim falls back to L2);
* a taken prediction whose entry was served from L2 costs extra
  prediction-pipeline cycles (``l2_extra_latency``), modelling the
  slower second-level array;
* commit-side insertion installs into L1 (with demotion), so hot
  branches live in L1 and the cold tail in L2.

The class is interface-compatible with :class:`repro.branch.btb.BTB`;
the BPU asks :meth:`was_l2_sourced` after each scan to charge the extra
latency.  An ablation (``repro report abl_two_level_btb``, from
:func:`repro.experiments.analysis.two_level_btb`) compares single-level
and two-level provisioning at equal total capacity.
"""

from __future__ import annotations

from repro.branch.btb import BTB, BTBEntry
from repro.isa.instructions import BranchKind


class TwoLevelBTB:
    """L1 + L2 BTB with promotion/demotion."""

    def __init__(
        self,
        l1_entries: int,
        l1_assoc: int,
        l2_entries: int,
        l2_assoc: int,
        l2_extra_latency: int = 2,
    ) -> None:
        if l1_entries >= l2_entries:
            raise ValueError("L1 BTB must be smaller than L2 BTB")
        if l2_extra_latency < 0:
            raise ValueError("extra latency cannot be negative")
        self.l1 = BTB(l1_entries, l1_assoc)
        self.l2 = BTB(l2_entries, l2_assoc)
        self.l2_extra_latency = l2_extra_latency
        self._l2_sourced: set[int] = set()

    # ------------------------------------------------------------------
    # Lookup interface (BTB-compatible)
    # ------------------------------------------------------------------
    def scan_block(self, start: int, end: int) -> list[BTBEntry]:
        """Merged two-level scan; L2-only hits are promoted and flagged."""
        found = {e.addr: e for e in self.l1.scan_block(start, end)}
        for addr in list(self._l2_sourced):
            if start <= addr <= end:
                self._l2_sourced.discard(addr)
        for entry in self.l2.scan_block(start, end):
            if entry.addr not in found:
                found[entry.addr] = entry
                self._l2_sourced.add(entry.addr)
                self._promote(entry)
        return sorted(found.values(), key=lambda e: e.addr)

    def was_l2_sourced(self, addr: int) -> bool:
        """True if the most recent scan served ``addr`` from the L2 BTB."""
        return addr in self._l2_sourced

    def contains(self, addr: int) -> bool:
        return self.l1.contains(addr) or self.l2.contains(addr)

    # ------------------------------------------------------------------
    # Update interface
    # ------------------------------------------------------------------
    def insert(self, addr: int, kind: BranchKind, target: int) -> None:
        self._install_l1(addr, kind, target)
        # Keep the L2 copy coherent (inclusive-ish; cheap functionally).
        self.l2.insert(addr, kind, target)

    def invalidate(self, addr: int) -> bool:
        a = self.l1.invalidate(addr)
        b = self.l2.invalidate(addr)
        return a or b

    def _promote(self, entry: BTBEntry) -> None:
        self._install_l1(entry.addr, entry.kind, entry.target)

    def _install_l1(self, addr: int, kind: BranchKind, target: int) -> None:
        # Capture the victim before insertion so it can demote to L2.
        ways = self.l1._sets[self.l1._set_index(addr)]
        victim = None
        if len(ways) >= self.l1.assoc and all(e.addr != addr for e in ways):
            victim = ways[-1]
        self.l1.insert(addr, kind, target)
        if victim is not None:
            self.l2.insert(victim.addr, victim.kind, victim.target)

    def validate(self) -> list[str]:
        """Both levels' structural invariants; side-effect free."""
        return self.l1.validate("L1 BTB") + self.l2.validate("L2 BTB")

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self.l1.occupancy + self.l2.occupancy

    @property
    def n_entries(self) -> int:
        return self.l1.n_entries + self.l2.n_entries
