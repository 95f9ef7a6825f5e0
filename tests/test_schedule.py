"""Tests for the cycle schedule: the reference loop's stage order, the
observer calls it makes, and its livelock guard.

The stage profiler sees every call the loop makes (it wraps each bound
stage call), so its rows show which stages and hooks a run stepped.
"""

import re
from pathlib import Path

import pytest

from repro.common.params import SimParams
from repro.common.telemetry import Telemetry, TelemetryConfig
from repro.core.prof import STAGES, StageProfiler
from repro.core.simulator import Simulator, build_kernel, reference_kernel, simulate
from repro.core.typed import supported
from repro.trace.workloads import make_trace

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
HOOKS = ("invariant_sweep", "telemetry_tick")


def small_sim(telemetry=None, profiler=None, **kwargs) -> Simulator:
    params = SimParams(warmup_instructions=1_000, sim_instructions=2_000, **kwargs)
    program, stream = make_trace("spc_fp", 3_000)
    return Simulator(params, program, stream, telemetry=telemetry, profiler=profiler)


def observed_sim(profiler) -> Simulator:
    """A simulator with a prefetcher and every observer attached."""
    return small_sim(
        telemetry=Telemetry(TelemetryConfig(interval_stride=1_000, ring_capacity=64)),
        profiler=profiler,
        prefetcher="nl1",
        check_invariants=True,
    )


def profiled_rows(sim: Simulator) -> dict[str, str]:
    """``{row name: kind}`` after a reference run of ``sim``."""
    sim.run("spc_fp", reference=True)
    return dict(zip(sim.profiler.point_names, sim.profiler.point_kinds))


class CallOrder(StageProfiler):
    """A profiler that also records the name of every timed call."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[str] = []

    def timed(self, name, fn):
        wrapped = super().timed(name, fn)
        calls = self.calls

        def call(*args):
            calls.append(name)
            return wrapped(*args)

        return call


class TestSchedule:
    def test_stage_order_matches_docstring(self):
        documented = re.findall(r"^\s+\d\. ``(\w+)``", reference_kernel.__doc__, re.M)
        assert documented == list(STAGES)
        recorder = CallOrder()
        sim = observed_sim(recorder)
        sim.run("spc_fp", reference=True)
        # memory_fill times two calls (the tick, then any completed
        # fills), so collapse repeats before comparing cycles.
        collapsed = [
            name for i, name in enumerate(recorder.calls) if i == 0 or recorder.calls[i - 1] != name
        ]
        cycle = [
            "memory_fill", "backend_retire", "telemetry_tick", "fetch",
            "predict", "probe", "prefetch", "invariant_sweep",
        ]
        assert collapsed == cycle * sim.cycle

    def test_six_stages(self):
        profiler = StageProfiler()
        rows = profiled_rows(small_sim(profiler=profiler, prefetcher="nl1"))
        assert rows == {name: "stage" for name in STAGES}
        assert len(rows) == 6


class TestKernelSource:
    def test_plain_kernel_has_no_observer_hooks(self):
        # Without a prefetcher, checker or telemetry hub the loop calls
        # the five core stages and nothing else.
        rows = profiled_rows(small_sim(profiler=StageProfiler()))
        assert list(rows) == [s for s in STAGES if s != "prefetch"]

    def test_feature_composition(self):
        rows = profiled_rows(observed_sim(StageProfiler()))
        assert rows == {**{name: "stage" for name in STAGES}, **{h: "hook" for h in HOOKS}}

    def test_no_kernel_compresses_cycles(self):
        # The reference loop steps every cycle under every observer set:
        # the idle skip and its retire-only drain live only in the typed
        # kernel.  A fake clock ticks once per read, so every timed call
        # costs one tick, and a stage called once per cycle accumulates
        # exactly the cycles stepped.
        for make in (lambda p: small_sim(profiler=p), observed_sim):
            ticks = iter(range(10**9))
            profiler = StageProfiler(clock=lambda: next(ticks))
            sim = make(profiler)
            profiler_rows = profiled_rows(sim)
            by_name = dict(zip(profiler.point_names, profiler.acc))
            for name in profiler_rows:
                if name != "memory_fill":
                    assert by_name[name] == sim.cycle, name

    def test_kernels_memoised(self):
        # One kernel object serves every observer set: nothing is
        # generated or compiled per simulator.
        assert build_kernel(small_sim()) is reference_kernel
        assert build_kernel(observed_sim(StageProfiler())) is reference_kernel

    def test_exactly_one_cycle_loop_in_codebase(self):
        # One written-out reference loop; the typed kernel is the one
        # sanctioned, hand-flattened copy and counts its commits in a
        # local of its own.
        hits = []
        for path in SRC.rglob("*.py"):
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if "while backend.committed < target" in line:
                    hits.append(f"{path.name}:{i}")
        assert len(hits) == 1 and hits[0].startswith("simulator.py:"), hits


class TestKernelExecution:
    def test_bit_identity_across_observers(self):
        params = SimParams(warmup_instructions=1_000, sim_instructions=2_000)
        plain = simulate("spc_fp", params)
        checked = simulate("spc_fp", params.replace(check_invariants=True))
        assert checked.instructions == plain.instructions
        assert checked.cycles == plain.cycles
        assert checked.stats.as_dict() == plain.stats.as_dict()

    def test_active_features_reflect_wiring(self):
        # A dedicated prefetcher is a stage, not an observer; the
        # observers the builder wires are what sends a run to the
        # reference loop.
        assert supported(small_sim()) == (True, "")
        assert supported(small_sim(prefetcher="nl1")) == (True, "")
        ok, reason = supported(small_sim(check_invariants=True))
        assert not ok and "checker" in reason
        ok, reason = supported(observed_sim(StageProfiler()))
        assert not ok and all(name in reason for name in ("checker", "profile", "telemetry"))

    def test_stage_interfaces_conform(self):
        # Every stage and hook the loop binds exists on the components
        # the builder wires.
        for sim in (small_sim(), small_sim(prefetcher="nl1", check_invariants=True)):
            reference_kernel(sim, target=3_000, warmup=1_000, guard=10**6)
            assert sim.backend.committed >= 3_000

    def test_stage_interface_violation_detected(self):
        sim = small_sim()
        del sim.fetch  # break the fetch/probe/memory_fill bindings
        with pytest.raises(AttributeError, match="fetch"):
            reference_kernel(sim, target=3_000, warmup=1_000, guard=10**6)
        # The loop binds every stage before its first cycle.
        assert sim.cycle == 0 and sim.backend.committed == 0


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
        with pytest.raises(RuntimeError, match="livelock.*spc_fp"):
            reference_kernel(sim, target=3_000, warmup=1_000, guard=50)
        assert sim.cycle == 51
