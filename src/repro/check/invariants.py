"""Runtime invariant layer (``SimParams.check_invariants``).

The checker sweeps the simulator's structures at the end of every cycle
and once more after the run, raising :class:`InvariantViolation` with
every broken invariant it found.  Checks only *observe* -- they use the
side-effect-free ``validate()`` / ``contains()`` / ``resident_lines()``
accessors, never ``probe()`` or any stats counter -- so a checked run
is bit-identical to an unchecked one (pinned by ``tests/test_check.py``).

Per-cycle (cheap, O(resident pipeline state)):

* FTQ structure: occupancy, entry states, block-aligned bounds,
  head-only consumption, probe-pointer prefix, stream contiguity;
* every ``AWAIT_FILL`` FTQ entry is registered as a waiter of an
  in-flight MSHR fill for its line;
* decode queue occupancy accounting;
* MSHR occupancy / keying / causal timing;
* BPU on-path cursor bounds;
* commit trainer vs backend agreement and oracle-cursor consistency;
* the prefetch terminal-state partition: every issued prefetch is
  timely, late, evicted-unused, still in flight, or resident-untouched
  (over warmup + measurement counters combined).

Periodically (every :data:`HEAVY_STRIDE` cycles) and at end of run, the
O(cache size) sweeps run too: full L1I/L2 structural checks, the
no-line-both-in-flight-and-resident cross-check, the
untouched-prefetch accounting subset property, and the BTB's set and
chunk-index structure (both levels of a two-level BTB).

Cost when disabled: none on the typed kernel, which every unchecked
run without another observer takes.  The reference loop
(:func:`repro.core.simulator.reference_kernel`) calls the
``invariant_sweep`` hook only when a checker is attached, behind one
``is not None`` test per cycle.
"""

from __future__ import annotations

from repro.frontend.ftq import STATE_AWAIT_FILL

HEAVY_STRIDE = 1024
"""Cycles between the O(cache size) structural sweeps."""


class InvariantViolation(AssertionError):
    """One or more runtime invariants failed.

    ``problems`` lists every violation found in the failing sweep;
    ``cycle`` is the simulation cycle of the sweep (-1 for the
    end-of-run check).
    """

    def __init__(self, cycle: int, problems: list[str]) -> None:
        self.cycle = cycle
        self.problems = problems
        where = "end of run" if cycle < 0 else f"cycle {cycle}"
        super().__init__(
            f"{len(problems)} invariant violation(s) at {where}:\n  " + "\n  ".join(problems)
        )


class InvariantChecker:
    """Per-cycle invariant sweep bound to one simulator.

    Constructed by ``Simulator.__init__`` when
    ``params.check_invariants`` is set; ``repro check`` and the fuzzer
    always run with it attached.
    """

    __slots__ = ("sim", "_block_bytes", "_next_heavy", "cycles_checked")

    def __init__(self, sim) -> None:
        self.sim = sim
        self._block_bytes = sim.params.frontend.block_bytes
        self._next_heavy = 0
        self.cycles_checked = 0

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def check_cycle(self, cycle: int) -> None:
        """Light sweep; raises :class:`InvariantViolation` on failure."""
        sim = self.sim
        problems = sim.ftq.validate(self._block_bytes)
        problems += sim.decode_queue.validate()
        problems += sim.memory.mshrs.validate()
        problems += sim.bpu.validate_state()
        self._check_ftq_fills(problems)
        self._check_trainer(problems)
        self._check_prefetch_partition(problems)
        if cycle >= self._next_heavy:
            self._next_heavy = cycle + HEAVY_STRIDE
            problems += sim.memory.validate()
            problems += sim.btb.validate()
        self.cycles_checked += 1
        if problems:
            raise InvariantViolation(cycle, problems)

    def check_end(self, result) -> None:
        """Full end-of-run sweep, after telemetry finalisation.

        Then the checker lets go of the simulator, which holds it as
        ``sim.checker``: keeping it would leave the finished simulator
        in a reference cycle, freed only by a full cyclic-GC pass.
        """
        sim = self.sim
        try:
            problems = sim.ftq.validate(self._block_bytes)
            problems += sim.decode_queue.validate()
            problems += sim.memory.validate()
            problems += sim.btb.validate()
            problems += sim.bpu.validate_state()
            self._check_ftq_fills(problems)
            self._check_trainer(problems)
            self._check_prefetch_partition(problems)
            self._check_accounting(problems, result)
            self._check_counters(problems)
        finally:
            self.sim = None
        if problems:
            raise InvariantViolation(-1, problems)

    # ------------------------------------------------------------------
    # Cross-structure checks
    # ------------------------------------------------------------------
    def _check_ftq_fills(self, problems: list[str]) -> None:
        """Every AWAIT_FILL entry waits on a live fill for its line."""
        memory = self.sim.memory
        line_of = memory.l1i.line_of
        lookup = memory.mshrs.lookup
        for e in self.sim.ftq:
            if e.state != STATE_AWAIT_FILL:
                continue
            entry = lookup(line_of(e.start))
            if entry is None:
                problems.append(
                    f"FTQ uid={e.uid} awaits a fill for {e.start:#x} with no in-flight MSHR"
                )
            elif all(w is not e for w in entry.waiters):
                problems.append(
                    f"FTQ uid={e.uid} awaits line {entry.line:#x} but is not a registered waiter"
                )

    def _check_trainer(self, problems: list[str]) -> None:
        """Commit trainer agrees with the backend and the oracle cursor."""
        sim = self.sim
        trainer = sim.trainer
        if trainer.committed != sim.backend.committed:
            problems.append(
                f"trainer committed {trainer.committed} != backend committed "
                f"{sim.backend.committed}"
            )
        stream = sim.stream
        if trainer.seg_idx < len(stream.segments):
            seg = stream.segments[trainer.seg_idx]
            if not 0 <= trainer.pos < seg.n_instrs:
                problems.append(
                    f"trainer position {trainer.pos} outside segment {trainer.seg_idx} "
                    f"of {seg.n_instrs} instructions"
                )
            if not 0 <= trainer.br_ptr <= len(seg.branches):
                problems.append(
                    f"trainer branch pointer {trainer.br_ptr} outside segment "
                    f"{trainer.seg_idx} branch list of {len(seg.branches)}"
                )
            expected = stream.cumulative[trainer.seg_idx] + trainer.pos
            if expected != trainer.committed:
                problems.append(
                    f"trainer oracle cursor at instruction {expected} "
                    f"but {trainer.committed} committed"
                )
        committed_stat = self._stat("committed_instructions")
        if committed_stat != trainer.committed:
            problems.append(
                f"committed_instructions counter {committed_stat} != trainer "
                f"committed {trainer.committed}"
            )

    def _check_prefetch_partition(self, problems: list[str]) -> None:
        """issued == timely + late + evicted + in-flight + resident-untouched."""
        issued = self._stat("prefetch_issued")
        memory = self.sim.memory
        pending = memory.mshrs.inflight_prefetches() + memory.untouched_prefetched_lines
        if issued == 0:
            if pending:
                problems.append(f"{pending} pending prefetches but none were issued")
            return
        terminal = (
            self._stat("prefetch_useful")
            + self._stat("prefetch_late")
            + self._stat("prefetch_useless")
        )
        if terminal + pending != issued:
            problems.append(
                f"prefetch partition broken: issued {issued} != "
                f"terminal {terminal} + in-flight/resident {pending}"
            )

    def _check_accounting(self, problems: list[str], result) -> None:
        """Cycle-accounting buckets sum to the measured cycle count."""
        tel = self.sim.telemetry
        if tel is None or not tel.config.accounting:
            return
        measured = self.sim.cycle - self.sim._measure_start_cycle
        if measured <= 0:
            return
        total = sum(tel.accounting().values())
        if total != result.cycles:
            problems.append(
                f"cycle-accounting buckets sum to {total}, measured {result.cycles} cycles"
            )

    def _check_counters(self, problems: list[str]) -> None:
        """No counter may go negative, in either window."""
        for label, stats in (("warmup", self.sim.warmup_stats), ("measure", self.sim.stats)):
            if stats is None:
                continue
            for name, value in stats.as_dict().items():
                if value < 0:
                    problems.append(f"negative {label} counter: {name} = {value}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _stat(self, name: str) -> int:
        """Counter value over warmup + measurement windows combined."""
        sim = self.sim
        value = sim.stats.get(name)
        if sim.warmup_stats is not None:
            value += sim.warmup_stats.get(name)
        return value
