"""Two-level instruction memory hierarchy with a DRAM backstop.

:class:`InstructionMemory` is the single entry point the frontend and
the prefetchers use:

* ``demand_probe``  -- FTQ-initiated I-TLB + I-cache tag lookup
  (Section IV-C); on a miss, issues a fill through the MSHRs.
* ``prefetch_line`` -- prefetcher-initiated fill; probes the tag array
  first (this is the redundant-probe cost Fig 9 charges dedicated
  prefetchers with) and issues if absent.
* ``tick``          -- completes due fills, installing lines into L1I
  (and L2 for DRAM returns), and reports them so the frontend can wake
  waiting FTQ entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.params import MemoryParams
from repro.common.stats import StatSet
from repro.memory.cache import Cache
from repro.memory.mshr import MSHREntry, MSHRFile
from repro.memory.tlb import TLB


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """Outcome of a demand tag probe."""

    hit: bool
    issued: bool
    """On a miss: True if a fill is in flight (new or merged); False means
    the MSHR file was full and the caller must retry."""
    way: int
    ready_cycle: int
    """Cycle at which the line's data can be consumed."""
    primary: bool = True
    """False for secondary misses merging into an outstanding demand fill
    (same transaction, not another miss event)."""


class InstructionMemory:
    """L1I + L2 + DRAM with MSHRs and an I-TLB."""

    def __init__(self, params: MemoryParams, stats: StatSet) -> None:
        self.params = params
        self.stats = stats
        self.l1i = Cache(params.l1i_lines, params.l1i_assoc, params.line_bytes, name="L1I")
        self.l2 = Cache(params.l2_lines, params.l2_assoc, params.line_bytes, name="L2")
        self.mshrs = MSHRFile(params.mshr_entries)
        self.itlb = TLB(params.itlb_entries, params.itlb_page_bytes, params.itlb_miss_latency)
        self.perfect = False
        """When True every demand access hits (Fig 1 / Fig 6a 'Perfect'
        prefetching); requests still issue so traffic is accounted."""
        self._prefetched_untouched: set[int] = set()
        self.telemetry = None
        """Optional telemetry hub (set by Telemetry.attach on traced runs)."""

    @property
    def untouched_prefetched_lines(self) -> int:
        """Prefetched lines resident in the L1I that no demand has touched."""
        return len(self._prefetched_untouched)

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def demand_probe(self, addr: int, cycle: int, waiter: object | None = None) -> ProbeResult:
        """I-TLB + L1I tag probe for the fetch block holding ``addr``."""
        tlb_lat = self.itlb.translate(addr)
        self.stats.bump("l1i_tag_access")
        line = self.l1i.line_of(addr)
        access = self.l1i.probe(addr)
        if access.hit:
            self.stats.bump("l1i_hit")
            if line in self._prefetched_untouched:
                self._prefetched_untouched.discard(line)
                self.stats.bump("prefetch_useful")
            # Hits stream through the pipelined tag+data path: the array
            # latency is overlapped across consecutive blocks, so a hit
            # is consumable the next cycle.  (The full pipeline depth is
            # charged once per flush via the misprediction penalty.)
            return ProbeResult(
                hit=True,
                issued=False,
                way=access.way,
                ready_cycle=cycle + tlb_lat + 1,
            )

        self.stats.bump("l1i_tag_miss")
        if self.perfect:
            # Perfect prefetching (Section V): the line appears instantly,
            # but the request still goes out to model traffic.
            self.stats.bump("l1i_miss")
            self.l1i.fill(addr)
            self.stats.bump("memory_requests")
            return ProbeResult(
                hit=True,
                issued=False,
                way=0,
                ready_cycle=cycle + tlb_lat + 1,
            )

        inflight = self.mshrs.lookup(line)
        if inflight is not None:
            # Secondary miss: merge into the outstanding fill.  A merge
            # into a prefetch promotes it to a (late-covered) demand
            # transaction; a merge into a demand fill is the same
            # transaction and is not another miss.
            primary = inflight.is_prefetch
            if primary:
                self.stats.bump("prefetch_late")
                self.stats.bump("l1i_miss")
            else:
                self.stats.bump("l1i_miss_secondary")
            self.mshrs.allocate(
                line,
                issue_cycle=cycle,
                ready_cycle=inflight.ready_cycle,
                is_prefetch=False,
                waiter=waiter,
            )
            return ProbeResult(
                hit=False,
                issued=True,
                way=-1,
                ready_cycle=inflight.ready_cycle,
                primary=primary,
            )

        if self.mshrs.full:
            self.stats.bump("mshr_stall")
            return ProbeResult(hit=False, issued=False, way=-1, ready_cycle=0)

        self.stats.bump("l1i_miss")
        entry = self.mshrs.allocate(
            line,
            issue_cycle=cycle,
            ready_cycle=cycle + tlb_lat + self._fill_latency(line),
            is_prefetch=False,
            waiter=waiter,
        )
        if self.telemetry is not None:
            self.telemetry.event("demand_miss", line=line, latency=entry.ready_cycle - cycle)
        return ProbeResult(hit=False, issued=True, way=-1, ready_cycle=entry.ready_cycle)

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------
    def prefetch_line(self, addr: int, cycle: int) -> bool:
        """Prefetcher-issued fill request for the line holding ``addr``.

        Probes the tag array (counted -- this is the Fig 9 overhead),
        and issues a prefetch fill on a miss.  Returns True if a new
        fill was issued.

        The typed cycle kernel (:mod:`repro.core.typedkern`) inlines
        this method branch for branch as part of its lowered issue
        stage; an edit here needs the same edit there (typed ==
        reference identity tests catch a mismatch).
        """
        self.stats.bump("l1i_tag_access")
        self.stats.bump("prefetch_probe")
        line = self.l1i.line_of(addr)
        if self.l1i.probe(addr, count_tag_access=False).hit:
            self.stats.bump("prefetch_redundant")
            return False
        if self.mshrs.lookup(line) is not None:
            self.stats.bump("prefetch_inflight_merge")
            return False
        if self.mshrs.full:
            self.stats.bump("prefetch_mshr_reject")
            return False
        entry = self.mshrs.allocate(
            line,
            issue_cycle=cycle,
            ready_cycle=cycle + self._fill_latency(line),
            is_prefetch=True,
        )
        self.stats.bump("prefetch_issued")
        if self.telemetry is not None:
            self.telemetry.event("prefetch_issue", line=line, latency=entry.ready_cycle - cycle)
        return True

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> list[MSHREntry]:
        """Complete all fills due by ``cycle``; returns them for wakeups."""
        completed = self.mshrs.pop_ready(cycle)
        for entry in completed:
            victim = self.l1i.fill(entry.line).victim
            if victim and victim in self._prefetched_untouched:
                self._prefetched_untouched.discard(victim)
                self.stats.bump("prefetch_useless")
            if entry.is_prefetch:
                self.stats.bump("prefetch_fill")
                self._prefetched_untouched.add(entry.line)
            if self.telemetry is not None:
                self.telemetry.event(
                    "fill",
                    line=entry.line,
                    prefetch=entry.is_prefetch,
                    wait=cycle - entry.issue_cycle,
                )
        return completed

    def _fill_latency(self, line: int) -> int:
        """Latency of a fill, probing (and filling) the L2 on the way."""
        self.stats.bump("memory_requests")
        self.stats.bump("l2_access")
        if self.l2.probe(line).hit:
            self.stats.bump("l2_hit")
            return self.params.l2_latency
        self.stats.bump("l2_miss")
        self.l2.fill(line)
        return self.params.dram_latency

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Cross-structure memory invariants (:mod:`repro.check`).

        Side-effect free (uses :meth:`Cache.resident_lines`, never
        ``probe``): both caches' structural checks, the MSHR checks, no
        line simultaneously in flight and resident in the L1I, and the
        untouched-prefetch accounting set being a subset of the resident
        L1I lines (every eviction/demand-touch path must maintain it).
        """
        problems = self.l1i.validate() + self.l2.validate() + self.mshrs.validate()
        resident = self.l1i.resident_lines()
        for line in self.mshrs._by_line:
            if line in resident:
                problems.append(f"line {line:#x} both in flight (MSHR) and resident in L1I")
        for line in self._prefetched_untouched:
            if line not in resident:
                problems.append(
                    f"untouched-prefetch accounting leak: line {line:#x} not resident in L1I"
                )
        return problems

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def flush_waiters(self) -> None:
        """Detach waiters from in-flight fills (pipeline flush)."""
        self.mshrs.flush_waiters()

    def set_stats(self, stats: StatSet) -> None:
        """Swap the stats sink (used at the warmup/measure boundary)."""
        self.stats = stats
