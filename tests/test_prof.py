"""Stage-profiler and trend-report tests.

Pins the observability contract for the ``profile`` kernel feature: a
profiled run is bit-identical to a plain one (the timers only observe),
every composed stage/hook gets wrapped, and the CLI surfaces exit
cleanly.  Also covers ``repro bench --trend`` over synthetic history.
"""

import json

import pytest

from repro.common.params import SimParams
from repro.core.batch import batchable
from repro.core.prof import StageProfiler
from repro.core.schedule import kernel_source, profiled_points
from repro.core.simulator import simulate
from repro.experiments.bench import load_history, machine_key, trend_report

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

    def test_profiler_not_batchable(self):
        ok, reason = batchable(fast(), profiler=StageProfiler())
        assert not ok
        assert "profiler" in reason


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


def history_record(ts, machine, mode, geo, workloads):
    return {
        "timestamp": ts,
        "schema": 2,
        "platform": {"machine": machine, "implementation": "CPython", "python": "3.11"},
        "mode": mode,
        "aggregate": {"geomean_instructions_per_second": geo},
        "workloads": workloads,
    }


class TestTrend:
    def test_load_history_skips_garbage(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        good = history_record("2026-01-01", "x86_64", "scalar", 100.0, {"a": 100.0})
        path.write_text(json.dumps(good) + "\n{nope\n[1,2]\n")
        records = load_history(path)
        assert len(records) == 1

    def test_load_history_missing_file(self, tmp_path):
        assert load_history(tmp_path / "none.jsonl") == []

    def test_groups_by_machine_and_mode(self):
        records = [
            history_record("t1", "x86_64", "scalar", 100.0, {"a": 100.0}),
            history_record("t2", "x86_64", "batched", 200.0, {"a": 200.0}),
            history_record("t3", "arm64", "scalar", 300.0, {"a": 300.0}),
        ]
        trend = trend_report(records)
        assert len(trend) == 3
        assert len({machine_key(r) for r in records}) == 3

    def test_deltas_vs_previous_and_window(self):
        records = [
            history_record("t1", "x86_64", "scalar", 100.0, {"a": 100.0, "b": 50.0}),
            history_record("t2", "x86_64", "scalar", 110.0, {"a": 121.0, "b": 50.0}),
            history_record("t3", "x86_64", "scalar", 99.0, {"a": 121.0, "b": 40.0}),
        ]
        (group,) = trend_report(records).values()
        deltas = [r["delta_vs_prev"] for r in group["rows"]]
        assert deltas[0] is None
        assert deltas[1] == pytest.approx(0.10)
        assert deltas[2] == pytest.approx(-0.10)
        assert group["geomean_delta_window"] == pytest.approx(-0.01)
        assert group["workload_delta_window"]["a"] == pytest.approx(0.21)
        assert group["workload_delta_window"]["b"] == pytest.approx(-0.20)

    def test_window_limits_rows(self):
        records = [
            history_record(f"t{i}", "x86_64", "scalar", 100.0 + i, {"a": 1.0})
            for i in range(15)
        ]
        (group,) = trend_report(records, last=5).values()
        assert group["entries"] == 15
        assert group["window"] == len(group["rows"]) == 5
        assert group["rows"][0]["timestamp"] == "t10"

    def test_trend_cli_exit_zero(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "hist.jsonl"
        with path.open("w") as fh:
            for i in range(3):
                fh.write(
                    json.dumps(
                        history_record(
                            f"2026-01-0{i + 1}", "x86_64", "scalar",
                            100.0 + 10 * i, {"a": 100.0 + 10 * i},
                        )
                    )
                    + "\n"
                )
        assert main(["bench", "--trend", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Bench trend" in out and "+10.0%" in out

        assert main(["bench", "--trend", "--history", str(tmp_path / "none")]) == 0
        assert "no benchmark history" in capsys.readouterr().out
