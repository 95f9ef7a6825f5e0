"""Pipeline telemetry: cycle accounting, prefetch tracking, sampling, tracing.

An opt-in observability layer for the simulator, built around four
pieces (all orchestrated by :class:`Telemetry`):

* **Top-down frontend cycle accounting.**  Every cycle of the
  measurement window is attributed to exactly one of the seven
  :data:`CYCLE_BUCKETS` causes, so the buckets sum to ``RunResult.cycles``
  *by construction* -- the attribution runs once per cycle, picks one
  bucket, and nothing else touches the counters.
* **Prefetch usefulness.**  The memory hierarchy already classifies
  every issued prefetch into a terminal state (timely / late /
  unused-evicted); :meth:`Telemetry.finalize` adds the end-of-run
  residuals (still in flight, resident-but-untouched) so the states
  partition the issued count exactly.
* **Interval time-series.**  :class:`IntervalSampler` snapshots a fixed
  counter subset every ``interval_stride`` committed instructions
  (default 10k), warmup included, and serialises the rows as JSONL --
  warm-up transients and phase changes become visible.
* **Event trace.**  :class:`EventRing` is a bounded ring of structured
  pipeline events (FTQ push/pop, resteer, flush, fill, prefetch issue)
  fed through per-component ``telemetry`` attributes that stay ``None``
  on untraced runs, so the disabled cost is a single predictable branch
  per event site and results are bit-identical to an uninstrumented run.

See ``docs/OBSERVABILITY.md`` for bucket definitions, the event schema
and the JSONL layouts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.common.stats import StatSet

CYCLE_BUCKETS = (
    "retiring",
    "fetch_bandwidth",
    "icache_miss",
    "ftq_empty",
    "btb_miss_resteer",
    "pfc_resteer",
    "backend_flush",
)
"""Top-down cycle-accounting buckets, stored as ``cyc_<bucket>`` counters.

* ``retiring``         -- a full retire-width of correct-path instructions
  committed this cycle.
* ``fetch_bandwidth``  -- partial progress: some instructions committed
  (or wrong-path/pipeline-latency work consumed) but less than a full
  retire width was available.
* ``icache_miss``      -- nothing committed; the FTQ head is waiting on
  an in-flight I-cache fill.
* ``ftq_empty``        -- nothing committed and the FTQ is empty with no
  attributable re-steer in flight (prediction starvation).
* ``btb_miss_resteer`` -- FTQ empty because the frontend is refilling
  after a flush caused by a BTB-missed taken branch.
* ``pfc_resteer``      -- FTQ empty because a post-fetch correction or
  history-fixup re-steer is refilling the frontend.
* ``backend_flush``    -- FTQ empty because a backend misprediction
  flush (direction / wrong target) is refilling the frontend.
"""

SAMPLE_COUNTERS = (
    "committed_instructions",
    "starvation_cycles",
    "l1i_hit",
    "l1i_miss",
    "l2_miss",
    "branch_mispredictions",
    "cond_mispredictions",
    "frontend_resteer",
    "ftq_entries_created",
    "bpu_taken_predictions",
    "prefetch_issued",
    "prefetch_useful",
    "prefetch_late",
    "wrong_path_consumed",
)
"""Counters snapshotted (as per-interval deltas) by the interval sampler."""

#: Re-steer reason -> stall bucket.  Reasons are set by
#: :meth:`repro.frontend.bpu.BranchPredictionUnit.resteer` callers.
_REASON_BUCKETS = {
    "flush:btb_miss": "btb_miss_resteer",
    "pfc": "pfc_resteer",
    "fixup": "pfc_resteer",
}

# FTQ-entry state meaning "an I-cache fill is in flight" -- mirrored
# here (value-stable, asserted in tests) to avoid an import cycle with
# repro.frontend.ftq.
_STATE_AWAIT_FILL = 2


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for one telemetry-enabled run."""

    interval_stride: int = 10_000
    """Committed instructions between interval samples."""
    ring_capacity: int = 8192
    """Event-ring size; older events are overwritten (and counted)."""

    def __post_init__(self) -> None:
        if self.interval_stride < 1:
            raise ValueError("interval_stride must be positive")
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be positive")


class EventRing:
    """Bounded ring buffer of structured pipeline events.

    Keeps the most recent ``capacity`` events; the total emitted and a
    per-kind histogram are tracked over the whole run so the report can
    say what was dropped.
    """

    __slots__ = ("capacity", "total", "counts", "_buf", "_next")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.total = 0
        self.counts: dict[str, int] = {}
        self._buf: list[dict | None] = [None] * capacity
        self._next = 0

    def emit(self, event: dict) -> None:
        """Append ``event`` (a JSON-able dict with ``cycle``/``kind``)."""
        self._buf[self._next] = event
        self._next = (self._next + 1) % self.capacity
        self.total += 1
        kind = event["kind"]
        self.counts[kind] = self.counts.get(kind, 0) + 1

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring was full."""
        return max(0, self.total - self.capacity)

    def events(self) -> list[dict]:
        """Retained events, oldest first."""
        if self.total < self.capacity:
            return [e for e in self._buf[: self._next] if e is not None]
        return [e for e in self._buf[self._next :] + self._buf[: self._next] if e is not None]


class IntervalSampler:
    """Periodic counter snapshots over the whole run (warmup included).

    Rows record cumulative position (committed instructions, cycle,
    phase) plus per-interval deltas of :data:`SAMPLE_COUNTERS`.  The
    warmup/measurement boundary swaps the simulator's ``StatSet``; the
    sampler detects the swap and restarts its delta baseline, tagging
    rows with the phase they belong to.
    """

    __slots__ = ("stride", "rows", "next_at", "_base", "_base_stats", "_last_cycle", "_last_committed")

    def __init__(self, stride: int) -> None:
        self.stride = stride
        self.rows: list[dict] = []
        self.next_at = stride
        self._base: dict[str, int] = {}
        self._base_stats: StatSet | None = None
        self._last_cycle = 0
        self._last_committed = 0

    def sample(self, cycle: int, committed: int, stats: StatSet, measuring: bool) -> None:
        """Record one row and advance the next-sample threshold."""
        if stats is not self._base_stats:
            # Warmup -> measurement boundary: counters were reset.
            self._base_stats = stats
            self._base = {}
        d_cycles = cycle - self._last_cycle
        d_instrs = committed - self._last_committed
        deltas = {}
        base = self._base
        for name in SAMPLE_COUNTERS:
            value = stats.get(name)
            deltas[name] = value - base.get(name, 0)
            base[name] = value
        self.rows.append(
            {
                "instructions": committed,
                "cycle": cycle,
                "phase": "measure" if measuring else "warmup",
                "interval_instructions": d_instrs,
                "interval_cycles": d_cycles,
                "interval_ipc": (d_instrs / d_cycles) if d_cycles > 0 else 0.0,
                "counters": deltas,
            }
        )
        self._last_cycle = cycle
        self._last_committed = committed
        self.next_at = committed - (committed % self.stride) + self.stride


class Telemetry:
    """Observability hub attached to one :class:`~repro.core.simulator.Simulator`.

    Construct one, pass it to ``simulate(..., telemetry=tel)`` (or the
    ``Simulator`` constructor), run, then read :meth:`summary` or dump
    the JSONL side files.  A ``Telemetry`` object is single-use: it
    belongs to the run that consumed it, and lets go of the simulator
    when that run ends (:meth:`finalize`).
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.now = 0
        """Current simulation cycle; refreshed at the top of every cycle."""
        self.ring = EventRing(self.config.ring_capacity)
        self.sampler = IntervalSampler(self.config.interval_stride)
        self._sim = None
        self._retire_width = 1
        self._finalized = False
        # What summary() reads of the finished run, kept by finalize().
        self._end_stats: tuple = ()
        self._end_mshr: dict = {}
        self._end_caches: dict = {}
        # Cycle-accounting buckets (plain ints on the per-cycle path;
        # folded into the run's StatSet at finalize).
        self.c_retiring = 0
        self.c_fetch_bandwidth = 0
        self.c_icache_miss = 0
        self.c_ftq_empty = 0
        self.c_btb_miss_resteer = 0
        self.c_pfc_resteer = 0
        self.c_backend_flush = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Bind to a simulator and install the per-component event hooks."""
        if self._sim is not None or self._finalized:
            raise RuntimeError("Telemetry objects are single-use; build a new one per run")
        self._sim = sim
        self._retire_width = sim.params.core.retire_width
        # The simulator declares which components are observable; the
        # hub hooks each one rather than hand-listing them here.
        for component in sim.observables.values():
            component.telemetry = self

    def event(self, kind: str, **payload) -> None:
        """Record one structured event at the current cycle."""
        record = {"cycle": self.now, "kind": kind}
        record.update(payload)
        self.ring.emit(record)

    # ------------------------------------------------------------------
    # Per-cycle path
    # ------------------------------------------------------------------
    def tick(self, cycle: int, retired: int, measuring: bool) -> None:
        """Per-cycle callback: sample if due, attribute the cycle if measuring.

        ``retired`` is the number of correct-path instructions the
        backend committed this cycle.
        """
        sampler = self.sampler
        committed = self._sim.backend.committed
        if committed >= sampler.next_at:
            sampler.sample(cycle, committed, self._sim.stats, measuring)
        if not measuring:
            return
        if retired >= self._retire_width:
            self.c_retiring += 1
        elif retired > 0:
            self.c_fetch_bandwidth += 1
        else:
            self._classify_stall(cycle)

    def _classify_stall(self, cycle: int) -> None:
        """Attribute one zero-retire cycle to its dominant frontend cause."""
        sim = self._sim
        if sim.decode_queue.total_instrs > 0:
            # Wrong-path or latency-bubbled work is draining: the fetch
            # pipeline delivered bytes the backend could not retire.
            self.c_fetch_bandwidth += 1
            return
        head = sim.ftq.head
        if head is not None:
            if head.state == _STATE_AWAIT_FILL:
                self.c_icache_miss += 1
            else:
                # Head present but still in tag-probe / array latency.
                self.c_fetch_bandwidth += 1
            return
        bpu = sim.bpu
        if cycle < bpu.stall_until and cycle < bpu.last_resteer_until:
            reason = bpu.last_resteer_reason
            bucket = _REASON_BUCKETS.get(reason)
            if bucket == "btb_miss_resteer":
                self.c_btb_miss_resteer += 1
            elif bucket == "pfc_resteer":
                self.c_pfc_resteer += 1
            elif reason.startswith("flush:"):
                self.c_backend_flush += 1
            else:
                self.c_ftq_empty += 1
            return
        self.c_ftq_empty += 1

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def accounting(self) -> dict[str, int]:
        """Current bucket counts, keyed by :data:`CYCLE_BUCKETS` name."""
        return {
            "retiring": self.c_retiring,
            "fetch_bandwidth": self.c_fetch_bandwidth,
            "icache_miss": self.c_icache_miss,
            "ftq_empty": self.c_ftq_empty,
            "btb_miss_resteer": self.c_btb_miss_resteer,
            "pfc_resteer": self.c_pfc_resteer,
            "backend_flush": self.c_backend_flush,
        }

    def finalize(self, sim, result) -> None:
        """Fold telemetry into the run's stats and take the final sample.

        Called by ``Simulator.run`` once the cycle loop exits: writes
        the ``cyc_*`` bucket counters and the prefetch residual counts
        (``prefetch_inflight_end`` / ``prefetch_resident_end``) into the
        measurement :class:`StatSet`, and forces a last interval sample
        so short runs still produce a time-series row.

        Then it keeps the end-of-run values :meth:`summary` reads and
        lets go of the simulator.  The simulator holds this hub (as
        ``sim.telemetry`` and in every observable's ``telemetry`` slot),
        so keeping it would leave the finished simulator in a reference
        cycle, freed only by a full cyclic-GC pass.
        """
        if self._finalized:
            return
        self._finalized = True
        stats = sim.stats
        for name, value in self.accounting().items():
            stats.set(f"cyc_{name}", value)
        stats.set("prefetch_inflight_end", sim.memory.mshrs.inflight_prefetches())
        stats.set("prefetch_resident_end", sim.memory.untouched_prefetched_lines)
        self.sampler.sample(sim.cycle, sim.backend.committed, stats, sim._measuring)
        memory = sim.memory
        mshrs = memory.mshrs
        self._end_stats = (sim.warmup_stats, stats)
        self._end_mshr = {
            "peak_occupancy": mshrs.peak_occupancy,
            "allocations": mshrs.allocations,
            "merges": mshrs.merges,
        }
        self._end_caches = {"l1i": memory.l1i.snapshot(), "l2": memory.l2.snapshot()}
        self._sim = None

    def detach(self) -> None:
        """Let go of the simulator of a run that raised before
        :meth:`finalize`; the hub stays spent."""
        self._sim = None
        self._finalized = True

    def combined_stats(self) -> StatSet:
        """The finished run's warmup + measurement counters, merged.

        Prefetches issued during warmup can reach their terminal state
        inside the measurement window; the partition invariant therefore
        holds over the *combined* counters, which is what the prefetch
        section of :meth:`summary` reports.
        """
        merged = StatSet()
        for stats in self._end_stats:
            if stats is not None:
                merged.merge(stats)
        return merged

    def prefetch_partition(self) -> dict[str, int | float]:
        """Full-run terminal-state partition of issued prefetches."""
        s = self.combined_stats()
        issued = s.get("prefetch_issued")
        timely = s.get("prefetch_useful")
        late = s.get("prefetch_late")
        evicted = s.get("prefetch_useless")
        inflight = s.get("prefetch_inflight_end")
        resident = s.get("prefetch_resident_end")
        useful = timely + late
        return {
            "issued": issued,
            "timely": timely,
            "late": late,
            "unused_evicted": evicted,
            "in_flight_at_end": inflight,
            "resident_untouched_at_end": resident,
            "redundant_unissued": s.get("prefetch_redundant") + s.get("prefetch_inflight_merge"),
            "accuracy": useful / issued if issued else 0.0,
            "coverage": timely / (timely + s.get("l1i_miss")) if timely + s.get("l1i_miss") else 0.0,
            "timeliness": timely / useful if useful else 0.0,
        }

    def summary(self, result) -> dict:
        """One JSON-able report dict for a finished run."""
        accounting = self.accounting()
        total = sum(accounting.values())
        return {
            "workload": result.workload,
            "label": result.label,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "ipc": result.ipc,
            "cycle_accounting": accounting,
            "cycle_accounting_fraction": {
                k: (v / total if total else 0.0) for k, v in accounting.items()
            },
            "prefetch": self.prefetch_partition(),
            "fdp_miss_exposure": result.miss_exposure(),
            "mshr": self._end_mshr,
            "caches": self._end_caches,
            "samples": len(self.sampler.rows),
            "events": {
                "emitted": self.ring.total,
                "retained": min(self.ring.total, self.ring.capacity),
                "capacity": self.ring.capacity,
                "dropped": self.ring.dropped,
                "by_kind": dict(sorted(self.ring.counts.items())),
            },
        }

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def write_events_jsonl(self, path: str | Path) -> Path:
        """Write retained events, one JSON object per line; returns the path."""
        return _write_jsonl(path, self.ring.events())

    def write_timeseries_jsonl(self, path: str | Path) -> Path:
        """Write interval samples, one JSON object per line; returns the path."""
        return _write_jsonl(path, self.sampler.rows)


def _write_jsonl(path: str | Path, rows: list[dict]) -> Path:
    """Serialise ``rows`` as JSON Lines, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")
    return path
