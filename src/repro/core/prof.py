"""Stage self-time profiler (``repro profile``).

Whole-run benchmarks (``perfbench/``) say *that* a run got slower,
and in which layer, not *where* in the cycle loop.  This module adds
that resolution: when a :class:`StageProfiler` is attached, the
reference kernel (:func:`repro.core.simulator.reference_kernel`) wraps
each bound stage call with :meth:`StageProfiler.timed`, which adds the
call's clock delta to that stage's row.  The rows are the six pipeline
stages (``prefetch`` only when a dedicated prefetcher is built), plus
``invariant_sweep`` and ``telemetry_tick`` when the checker or a
telemetry hub is attached.  The loop's own bookkeeping (the
measurement-boundary and livelock checks) is not a row.  A profiled run
is bit-identical to a plain one because the timers only observe
(pinned by ``tests/test_prof.py``).

Profiling runs the reference kernel, which steps every cycle: only
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

STAGES = ("memory_fill", "backend_retire", "fetch", "predict", "probe", "prefetch")
"""The pipeline stages; every other timed row is an observer hook."""


class StageProfiler:
    """Per-stage self-time accumulator for one simulation run.

    ``acc[i]`` holds the accumulated clock delta (ns with the default
    ``perf_counter_ns``) of row ``point_names[i]``, in the order the
    kernel first wrapped a call for it (:meth:`timed`).  One profiler
    serves one run.
    """

    __slots__ = ("clock", "point_names", "point_kinds", "acc", "cycles")

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.point_names: list[str] = []
        self.point_kinds: list[str] = []
        self.acc: list[int] = []
        self.cycles = 0

    def timed(self, name: str, fn):
        """Wrap ``fn`` so that each call adds its clock delta to row ``name``.

        Wrapping two calls under one name sums them into one row.
        """
        if name not in self.point_names:
            self.point_names.append(name)
            self.point_kinds.append("stage" if name in STAGES else "hook")
            self.acc.append(0)
        index = self.point_names.index(name)
        acc = self.acc
        clock = self.clock

        def call(*args):
            start = clock()
            result = fn(*args)
            acc[index] += clock() - start
            return result

        return call

    def finalize(self, sim, result) -> None:
        """Record the run's cycle count (called from ``Simulator.run``)."""
        self.cycles = sim.cycle

    @property
    def total_self_ns(self) -> int:
        """Accumulated self time across every row."""
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
