"""Schedule-stage self-time profiler (``repro profile``).

Whole-run benchmarks (``perfbench/``) say *that* a run got slower,
and in which layer, not *where* in the cycle loop.  This module adds
that resolution: an opt-in ``profile`` feature in the schedule codegen
(:mod:`repro.core.schedule`) wraps every composed stage/hook body with
a pair of perf-counter reads and accumulates per-stage self time into
:attr:`StageProfiler.acc` -- the emitted kernel stays a single
generated function, and a profiled run is bit-identical to a plain one
because the timers only observe (pinned by ``tests/test_prof.py``).

Profiling runs the interpreted kernel, which steps every cycle: only
the typed kernel skips idle cycles, and a skipped cycle would attribute
no time to the stages that *would* have run.  Per-cycle stage costs are
therefore measured on the cycle-by-cycle loop the other observers see.

Usage::

    profiler = StageProfiler()
    result = simulate("srv_web", params, profiler=profiler)
    for row in profiler.rows():
        print(row["stage"], row["self_ns"], row["share"])
"""

from __future__ import annotations

import time


class StageProfiler:
    """Per-stage self-time accumulator for one simulation run.

    ``acc[i]`` holds the accumulated clock delta (ns with the default
    ``perf_counter_ns``) of the ``i``-th profiled schedule point; the
    index order is fixed by
    :func:`repro.core.schedule.profiled_points` for the simulator's
    active features, and :meth:`bind_to` (called by the ``Simulator``
    constructor) captures it.  One profiler serves one run.
    """

    __slots__ = ("clock", "point_names", "point_kinds", "acc", "cycles")

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.point_names: list[str] = []
        self.point_kinds: list[str] = []
        self.acc: list[int] = []
        self.cycles = 0

    def bind_to(self, sim) -> None:
        """Size the accumulator for ``sim``'s composed schedule points."""
        from repro.core.schedule import profiled_points

        points = profiled_points(sim.active_features())
        self.point_names = [p.name for p in points]
        self.point_kinds = [p.kind for p in points]
        self.acc = [0] * len(points)

    def finalize(self, sim, result) -> None:
        """Record the run's cycle count (called from ``Simulator.run``)."""
        self.cycles = sim.cycle

    @property
    def total_self_ns(self) -> int:
        """Accumulated self time across every profiled point."""
        return sum(self.acc)

    def rows(self) -> list[dict]:
        """Per-stage table rows, hottest first.

        ``share`` is the fraction of accumulated self time;
        ``ns_per_cycle`` the mean cost per simulated cycle;
        ``cycles_per_sec`` the simulated-cycle rate this stage alone
        would sustain (the stage's perf headroom number).
        """
        total = self.total_self_ns
        rows = []
        for name, kind, ns in zip(self.point_names, self.point_kinds, self.acc):
            rows.append(
                {
                    "stage": name,
                    "kind": kind,
                    "self_ns": ns,
                    "share": (ns / total) if total else 0.0,
                    "ns_per_cycle": (ns / self.cycles) if self.cycles else 0.0,
                    "cycles_per_sec": (self.cycles / (ns * 1e-9)) if ns else 0.0,
                }
            )
        rows.sort(key=lambda r: -r["self_ns"])
        return rows

    def report(self) -> dict:
        """JSON-ready profile summary (``repro profile --json``)."""
        total = self.total_self_ns
        return {
            "cycles": self.cycles,
            "total_self_ns": total,
            "cycles_per_sec": (self.cycles / (total * 1e-9)) if total else 0.0,
            "stages": self.rows(),
        }
