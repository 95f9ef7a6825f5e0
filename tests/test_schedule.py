"""Tests for the declarative stage schedule and kernel builder."""

from itertools import combinations
from pathlib import Path

import pytest

from repro.common.params import SimParams
from repro.core import schedule
from repro.core.schedule import (
    CYCLE_SCHEDULE,
    FEATURES,
    SchedulePoint,
    active_points,
    build_kernel,
    kernel_source,
    validate_stage_interfaces,
)
from repro.core.simulator import Simulator, simulate
from repro.trace.workloads import make_trace

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def small_sim(**kwargs) -> Simulator:
    params = SimParams(warmup_instructions=1_000, sim_instructions=2_000, **kwargs)
    program, stream = make_trace("spc_fp", 3_000)
    return Simulator(params, program, stream)


class TestSchedule:
    def test_stage_order_matches_docstring(self):
        names = [p.name for p in CYCLE_SCHEDULE]
        assert names == [
            "profile_prologue",
            "telemetry_clock",
            "memory_fill",
            "retire_count",
            "backend_retire",
            "measure_boundary",
            "telemetry_tick",
            "fetch",
            "predict",
            "probe",
            "prefetch",
            "invariant_sweep",
            "livelock_guard",
        ]

    def test_six_stages(self):
        stages = [p for p in CYCLE_SCHEDULE if p.kind == "stage"]
        assert len(stages) == 6

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="stage|hook"):
            SchedulePoint("x", "thing", ())

    def test_bad_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown feature"):
            SchedulePoint("x", "hook", (), requires="warp_drive")

    def test_active_points_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature"):
            active_points(frozenset({"warp_drive"}))


class TestKernelSource:
    def test_plain_kernel_has_no_observer_hooks(self):
        src = kernel_source(frozenset())
        assert "tel" not in src
        assert "check_cycle" not in src
        assert "prefetcher_cycle" not in src

    def test_feature_composition(self):
        src = kernel_source(frozenset(FEATURES))
        assert "tel.now = cycle" in src
        assert "check_cycle(cycle)" in src
        assert "prefetcher_cycle(cycle)" in src

    def test_no_kernel_compresses_cycles(self):
        # The interpreted kernel is the cycle-by-cycle reference for
        # every feature set: the idle skip and its retire-only drain
        # live only in the typed kernel.
        for n in range(len(FEATURES) + 1):
            for subset in combinations(FEATURES, n):
                src = kernel_source(frozenset(subset))
                assert "_drain" not in src, subset
                assert "wake" not in src, subset

    def test_kernels_memoised(self):
        assert build_kernel(frozenset()) is build_kernel(frozenset())
        assert build_kernel(frozenset({"checker"})) is not build_kernel(frozenset())

    def test_exactly_one_cycle_loop_in_codebase(self):
        # The acceptance criterion: one loop body, generated from the
        # schedule, instead of hand-copied variants.
        hits = []
        for path in SRC.rglob("*.py"):
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if "while backend.committed < target" in line:
                    hits.append(f"{path.name}:{i}")
        assert len(hits) == 1 and hits[0].startswith("schedule.py:"), hits


class TestKernelExecution:
    def test_bit_identity_across_observers(self):
        params = SimParams(warmup_instructions=1_000, sim_instructions=2_000)
        plain = simulate("spc_fp", params)
        checked = simulate("spc_fp", params.replace(check_invariants=True))
        assert checked.instructions == plain.instructions
        assert checked.cycles == plain.cycles
        assert checked.stats.as_dict() == plain.stats.as_dict()

    def test_active_features_reflect_wiring(self):
        assert small_sim().active_features() == frozenset()
        assert small_sim(prefetcher="nl1").active_features() == frozenset({"prefetcher"})
        assert small_sim(check_invariants=True).active_features() == frozenset({"checker"})

    def test_stage_interfaces_conform(self):
        assert validate_stage_interfaces(small_sim()) == []
        assert (
            validate_stage_interfaces(
                small_sim(prefetcher="nl1", check_invariants=True)
            )
            == []
        )

    def test_stage_interface_violation_detected(self):
        sim = small_sim()
        del sim.fetch  # break the fetch/probe/memory_fill bindings
        problems = validate_stage_interfaces(sim)
        assert problems
        assert any("fetch" in p for p in problems)


class TestLivelockError:
    def test_message_carries_attribution(self):
        sim = small_sim(prefetcher="nl1")
        sim.workload_name = "spc_fp"
        sim.cycle = 123_456
        err = sim._livelock_error(3_000)
        message = str(err)
        assert isinstance(err, RuntimeError)
        assert "livelock" in message
        assert "spc_fp" in message
        assert "/3000 instructions committed" in message
        assert "prefetcher='nl1'" in message
        assert "ftq_entries=24" in message
        assert "history='THR'" in message

    def test_guard_raises_through_kernel(self):
        sim = small_sim()
        sim.workload_name = "spc_fp"
        kernel = build_kernel(sim.active_features())
        with pytest.raises(RuntimeError, match="livelock.*spc_fp"):
            kernel(sim, target=3_000, warmup=1_000, guard=50)

    def test_schedule_module_exports(self):
        # The schedule is the single source of truth other layers import.
        for name in ("CYCLE_SCHEDULE", "FEATURES", "build_kernel", "kernel_source"):
            assert hasattr(schedule, name)
