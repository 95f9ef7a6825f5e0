"""Stage-profiler tests.

Pins the observability contract for the ``profile`` kernel feature: a
profiled run is bit-identical to a plain one (the timers only observe),
every composed stage/hook gets wrapped, and the CLI surfaces exit
cleanly.
"""

import json

import pytest

from repro.common.params import SimParams
from repro.core.prof import StageProfiler
from repro.core.schedule import kernel_source, profiled_points
from repro.core.simulator import simulate

WORKLOAD = "srv_web"


def fast(**overrides):
    params = SimParams(warmup_instructions=2_000, sim_instructions=6_000)
    for method, kwargs in overrides.items():
        params = getattr(params, method)(**kwargs)
    return params


def comparable(result):
    return (result.instructions, result.cycles, result.stats.as_dict())


class TestBitIdentity:
    def test_profiled_run_matches_plain(self):
        params = fast()
        plain = simulate(WORKLOAD, params)
        profiled = simulate(WORKLOAD, params, profiler=StageProfiler())
        assert comparable(plain) == comparable(profiled)

    def test_profiled_run_matches_plain_with_prefetcher(self):
        params = fast().replace(prefetcher="nl1")
        plain = simulate(WORKLOAD, params)
        profiled = simulate(WORKLOAD, params, profiler=StageProfiler())
        assert comparable(plain) == comparable(profiled)


class TestAccumulation:
    def test_every_composed_stage_accumulates(self):
        profiler = StageProfiler()
        simulate(WORKLOAD, fast(), profiler=profiler)
        assert profiler.point_names  # bound by the Simulator constructor
        assert len(profiler.acc) == len(profiler.point_names)
        assert profiler.total_self_ns > 0
        # core stages must have run every cycle and cost something
        by_name = dict(zip(profiler.point_names, profiler.acc))
        for stage in ("fetch", "predict", "backend_retire"):
            assert by_name[stage] > 0

    def test_rows_sorted_and_shares_sum(self):
        profiler = StageProfiler()
        simulate(WORKLOAD, fast(), profiler=profiler)
        rows = profiler.rows()
        costs = [r["self_ns"] for r in rows]
        assert costs == sorted(costs, reverse=True)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        assert all(r["ns_per_cycle"] >= 0 for r in rows)

    def test_report_shape(self):
        profiler = StageProfiler()
        result = simulate(WORKLOAD, fast(), profiler=profiler)
        report = profiler.report()
        assert report["cycles"] >= result.cycles
        assert report["total_self_ns"] == profiler.total_self_ns
        assert {r["stage"] for r in report["stages"]} == set(profiler.point_names)

    def test_deterministic_clock_attribution(self):
        ticks = iter(range(0, 10_000_000, 1))
        profiler = StageProfiler(clock=lambda: next(ticks))
        simulate(WORKLOAD, fast(), profiler=profiler)
        # every wrapped body costs exactly 1 fake tick per execution, so
        # per-cycle stages accumulate exactly `cycles` ticks
        by_name = dict(zip(profiler.point_names, profiler.acc))
        assert by_name["fetch"] == profiler.cycles
        assert by_name["predict"] == profiler.cycles


class TestKernelComposition:
    def test_profile_kernel_wraps_bodies(self):
        src = kernel_source(frozenset({"profile"}))
        assert "_pt = _clk()" in src
        assert "_pacc[" in src
        # one accumulator slot per profiled point
        points = profiled_points(frozenset({"profile"}))
        assert all(f"_pacc[{i}]" in src for i in range(len(points)))

    def test_plain_kernel_has_no_profiling(self):
        src = kernel_source(frozenset())
        assert "_clk" not in src and "_pacc" not in src


class TestProfileCli:
    def test_profile_exit_zero_and_table(self, capsys, tmp_path):
        from repro.cli import main

        out_json = tmp_path / "prof.json"
        code = main(
            ["profile", "--workload", WORKLOAD, "--warmup", "2000",
             "--instructions", "6000", "--json", str(out_json)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Stage self-time" in out
        payload = json.loads(out_json.read_text())
        assert payload["workload"] == WORKLOAD
        assert payload["stages"] and payload["total_self_ns"] > 0
