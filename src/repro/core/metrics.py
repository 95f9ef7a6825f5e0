"""Run results and hardware-cost accounting.

:class:`RunResult` is the uniform output of one simulation: IPC plus
the derived metrics every figure of the paper reports (branch MPKI,
starvation cycles per kilo-instruction, I-cache tag accesses per
kilo-instruction, miss-exposure classification).  Telemetry-enabled
runs additionally expose top-down cycle accounting
(:meth:`RunResult.cycle_accounting`) and prefetch-usefulness terminal
states with accuracy / coverage / timeliness derived metrics.

:func:`ftq_storage_bits` reproduces Table III: the FTQ is the only
hardware FDP adds, and with the paper's field widths a 24-entry FTQ
costs 195 bytes, of which the per-instruction direction hints (needed
by the extended PFC) are only 24 bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.params import SimParams
from repro.common.stats import StatSet

CYCLE_ACCOUNTING_BUCKETS = (
    "retiring",
    "fetch_bandwidth",
    "icache_miss",
    "ftq_empty",
    "btb_miss_resteer",
    "pfc_resteer",
    "backend_flush",
)
"""Top-down cycle buckets, mirrored from :mod:`repro.common.telemetry`
(the authoritative definitions live there; this tuple exists so reading
a cached :class:`RunResult` does not import the telemetry layer)."""

# Table III field widths (bits per FTQ entry).
FTQ_FIELD_BITS = {
    "start_address": 48,
    "block_predicted_taken": 1,
    "block_termination_offset": 3,
    "icache_way": 3,
    "state": 2,
    "direction_hint": 8,
}


def ftq_entry_bits(with_pfc_hints: bool = True) -> int:
    """Bits per FTQ entry (Table III)."""
    bits = sum(v for k, v in FTQ_FIELD_BITS.items() if k != "direction_hint")
    if with_pfc_hints:
        bits += FTQ_FIELD_BITS["direction_hint"]
    return bits


def ftq_storage_bits(n_entries: int = 24, with_pfc_hints: bool = True) -> int:
    """Total FTQ storage in bits."""
    if n_entries <= 0:
        raise ValueError("n_entries must be positive")
    return n_entries * ftq_entry_bits(with_pfc_hints)


def ftq_storage_bytes(n_entries: int = 24, with_pfc_hints: bool = True) -> int:
    """Total FTQ storage in bytes, rounded up (paper: 195 bytes)."""
    return math.ceil(ftq_storage_bits(n_entries, with_pfc_hints) / 8)


@dataclass
class RunResult:
    """Outcome of one (workload, configuration) simulation."""

    workload: str
    label: str
    params: SimParams
    instructions: int
    cycles: int
    stats: StatSet = field(repr=False, default_factory=StatSet)
    kernel_backend: str = field(default="", compare=False)
    """The cycle kernel that produced the counters (``typed-compiled``,
    ``typed-python`` or ``interp``), set by :meth:`Simulator.run
    <repro.core.simulator.Simulator.run>`.  Provenance, not content:
    both kernels give bit-identical counters, so results compare equal
    across backends and the cache key leaves it out."""

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def branch_mpki(self) -> float:
        return self._per_kilo("branch_mispredictions")

    @property
    def cond_mpki(self) -> float:
        return self._per_kilo("cond_mispredictions")

    @property
    def l1i_mpki(self) -> float:
        return self._per_kilo("l1i_miss")

    @property
    def starvation_per_kilo(self) -> float:
        return self._per_kilo("starvation_cycles")

    @property
    def tag_accesses_per_kilo(self) -> float:
        return self._per_kilo("l1i_tag_access")

    def _per_kilo(self, name: str) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.stats.get(name) / self.instructions

    def miss_exposure(self) -> dict[str, int]:
        """Fig 14 classification counts over demand I-cache misses."""
        return {
            "covered": self.stats.get("miss_covered"),
            "partially_exposed": self.stats.get("miss_partially_exposed"),
            "fully_exposed": self.stats.get("miss_fully_exposed"),
        }

    def exposed_fraction(self) -> float:
        """Fraction of classified misses that are (partially) exposed."""
        exposure = self.miss_exposure()
        total = sum(exposure.values())
        if total == 0:
            return 0.0
        return (exposure["partially_exposed"] + exposure["fully_exposed"]) / total

    # ------------------------------------------------------------------
    # Telemetry-derived views
    # ------------------------------------------------------------------
    def cycle_accounting(self) -> dict[str, int]:
        """Top-down cycle buckets (telemetry runs; all zero otherwise).

        On a telemetry-enabled run the values sum exactly to
        :attr:`cycles` -- every measured cycle is attributed to one
        bucket, by construction.
        """
        return {b: self.stats.get(f"cyc_{b}") for b in CYCLE_ACCOUNTING_BUCKETS}

    @property
    def has_cycle_accounting(self) -> bool:
        """True when this run carried the cycle-accounting telemetry."""
        return any(self.stats.get(f"cyc_{b}") for b in CYCLE_ACCOUNTING_BUCKETS)

    def cycle_accounting_fractions(self) -> dict[str, float]:
        """Cycle buckets normalised by their sum (zeros when absent)."""
        buckets = self.cycle_accounting()
        total = sum(buckets.values())
        if total == 0:
            return {b: 0.0 for b in buckets}
        return {b: v / total for b, v in buckets.items()}

    def prefetch_usefulness(self) -> dict[str, int]:
        """Terminal-state classification of issued prefetches.

        ``timely``/``late``/``unused_evicted`` come from the always-on
        hierarchy counters; ``in_flight_at_end``/``resident_untouched_at_end``
        are recorded by telemetry at the end of the run (zero on
        untraced runs).  ``redundant_unissued`` counts prefetch requests
        that never issued because the line was already resident or in
        flight.
        """
        s = self.stats
        return {
            "issued": s.get("prefetch_issued"),
            "timely": s.get("prefetch_useful"),
            "late": s.get("prefetch_late"),
            "unused_evicted": s.get("prefetch_useless"),
            "in_flight_at_end": s.get("prefetch_inflight_end"),
            "resident_untouched_at_end": s.get("prefetch_resident_end"),
            "redundant_unissued": s.get("prefetch_redundant") + s.get("prefetch_inflight_merge"),
        }

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches a demand eventually wanted."""
        s = self.stats
        issued = s.get("prefetch_issued")
        if issued == 0:
            return 0.0
        return (s.get("prefetch_useful") + s.get("prefetch_late")) / issued

    @property
    def prefetch_coverage(self) -> float:
        """Fraction of would-be demand misses the prefetcher hid fully."""
        s = self.stats
        timely = s.get("prefetch_useful")
        denom = timely + s.get("l1i_miss")
        if denom == 0:
            return 0.0
        return timely / denom

    @property
    def prefetch_timeliness(self) -> float:
        """Among useful prefetches, the fraction that arrived in time."""
        s = self.stats
        useful = s.get("prefetch_useful") + s.get("prefetch_late")
        if useful == 0:
            return 0.0
        return s.get("prefetch_useful") / useful

    def summary(self) -> str:
        return (
            f"{self.workload:12s} {self.label:32s} IPC={self.ipc:5.2f} "
            f"brMPKI={self.branch_mpki:6.2f} l1iMPKI={self.l1i_mpki:6.2f} "
            f"starv/KI={self.starvation_per_kilo:7.1f} tag/KI={self.tag_accesses_per_kilo:7.1f}"
        )
