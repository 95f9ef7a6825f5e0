"""Throughput benchmark (``repro bench``) smoke tests."""

import json

import pytest

from repro.cli import main
from repro.common.params import SimParams
from repro.core.typed import backend_name
from repro.experiments.bench import (
    BENCH_SCHEMA_VERSION,
    append_history,
    bench_workload,
    bench_workload_batched,
    compare_bench,
    run_bench,
    write_bench,
)

#: A deliberately conservative floor -- the optimised cycle loop runs at
#: tens of thousands of instructions/sec even on loaded CI machines.
MIN_INSTRS_PER_SEC = 2_000


def fast():
    return SimParams(warmup_instructions=1_000, sim_instructions=2_500)


class TestBenchLibrary:
    def test_schema_version_bumped_for_geomean_and_mode(self):
        # Schema 2: geomean headline, config.mode, optional batch_width.
        assert BENCH_SCHEMA_VERSION == 2

    def test_bench_workload_fields(self):
        row = bench_workload("spc_fp", fast(), repeats=1)
        assert row["instructions"] == 3_500
        # Retirement is chunk-granular, so the window can overshoot by
        # up to a retire-width of instructions.
        assert 2_500 <= row["measured_instructions"] <= 2_500 + 16
        assert row["cycles"] > 0
        assert row["ipc"] > 0
        assert row["wall_seconds"] > 0
        assert row["instructions_per_second"] > MIN_INSTRS_PER_SEC

    def test_bench_workload_batched_fields(self):
        scalar = bench_workload("spc_fp", fast(), repeats=1)
        row = bench_workload_batched("spc_fp", fast(), repeats=1, width=3)
        # The rate counts every instance's instructions...
        assert row["instructions"] == 3 * 3_500
        assert row["batch_width"] == 3
        assert row["instructions_per_second"] > MIN_INSTRS_PER_SEC
        # ...and the reported run is bit-identical to a scalar run.
        assert row["cycles"] == scalar["cycles"]
        assert row["ipc"] == scalar["ipc"]
        assert row["measured_instructions"] == scalar["measured_instructions"]

    def test_run_bench_payload(self):
        payload = run_bench(workloads=["spc_fp", "srv_web"], params=fast(), repeats=1)
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert set(payload["workloads"]) == {"spc_fp", "srv_web"}
        assert payload["config"]["mode"] == "scalar"
        assert payload["config"]["kernel_backend"] == backend_name()
        assert "batch_width" not in payload["config"] and "kernel" not in payload["config"]
        agg = payload["aggregate"]
        assert agg["total_instructions"] == 7_000
        assert agg["instructions_per_second"] > MIN_INSTRS_PER_SEC
        assert agg["geomean_instructions_per_second"] > MIN_INSTRS_PER_SEC

    def test_run_bench_batched_payload(self):
        payload = run_bench(
            workloads=["spc_fp"], params=fast(), repeats=1, batched=True, batch_width=2
        )
        assert payload["config"]["mode"] == "batched"
        assert payload["config"]["batch_width"] == 2
        assert payload["config"]["kernel_backend"] == "interp"
        assert payload["aggregate"]["total_instructions"] == 7_000
        assert payload["aggregate"]["geomean_instructions_per_second"] > MIN_INSTRS_PER_SEC

    def test_write_bench_round_trips(self, tmp_path):
        payload = run_bench(workloads=["spc_fp"], params=fast(), repeats=1)
        out = tmp_path / "BENCH_core.json"
        write_bench(payload, out)
        assert json.loads(out.read_text()) == payload

    def test_fast_warmup_mode_recorded_and_meets_floor(self):
        payload = run_bench(
            workloads=["spc_fp"], params=fast(), repeats=1, fast_warmup=True
        )
        assert payload["config"]["warmup_mode"] == "functional"
        assert payload["aggregate"]["instructions_per_second"] > MIN_INSTRS_PER_SEC


class TestBenchHistory:
    def test_append_history_record(self, tmp_path):
        payload = run_bench(workloads=["spc_fp"], params=fast(), repeats=1)
        path = tmp_path / "BENCH_history.jsonl"
        append_history(payload, path)
        append_history(payload, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert record["mode"] == "scalar"
        assert record["platform"] == payload["platform"]
        assert record["timestamp"].startswith("20")  # ISO UTC stamp
        assert record["aggregate"] == payload["aggregate"]
        assert record["workloads"]["spc_fp"] == (
            payload["workloads"]["spc_fp"]["instructions_per_second"]
        )

    def test_append_history_batched_records_width(self, tmp_path):
        payload = run_bench(
            workloads=["spc_fp"], params=fast(), repeats=1, batched=True, batch_width=2
        )
        path = append_history(payload, tmp_path / "h.jsonl")
        record = json.loads(path.read_text())
        assert record["mode"] == "batched"
        assert record["config"]["batch_width"] == 2


def _payload(rates: dict[str, float], aggregate: float) -> dict:
    return {
        "workloads": {
            name: {"instructions_per_second": rate} for name, rate in rates.items()
        },
        "aggregate": {"instructions_per_second": aggregate},
    }


class TestCompareBench:
    def test_deltas_and_aggregate(self):
        cur = _payload({"a": 110.0, "b": 90.0}, 100.0)
        base = _payload({"a": 100.0, "b": 100.0}, 100.0)
        cmp = compare_bench(cur, base)
        assert cmp["workloads"]["a"] == pytest.approx(0.10)
        assert cmp["workloads"]["b"] == pytest.approx(-0.10)
        assert cmp["aggregate"] == pytest.approx(0.0)
        assert not cmp["regressed"]

    def test_regression_flag_uses_threshold(self):
        base = _payload({"a": 100.0}, 100.0)
        assert not compare_bench(_payload({"a": 81.0}, 81.0), base)["regressed"]
        assert compare_bench(_payload({"a": 79.0}, 79.0), base)["regressed"]
        assert not compare_bench(
            _payload({"a": 50.0}, 50.0), base, threshold=0.60
        )["regressed"]

    def test_gate_is_per_workload_and_names_offenders(self):
        # One regressed workload trips the gate even when the aggregate
        # improves -- a gain elsewhere cannot hide it.
        cur = _payload({"a": 500.0, "b": 70.0}, 500.0)
        base = _payload({"a": 100.0, "b": 100.0}, 100.0)
        cmp = compare_bench(cur, base)
        assert cmp["aggregate"] > 0
        assert cmp["regressed"]
        assert cmp["regressed_workloads"] == ["b"]

    def test_geomean_aggregate_preferred_v1_fallback(self):
        # Schema-2 payloads compare geomean headline rates; a schema-1
        # baseline (no geomean field) falls back to the total rate.
        cur = _payload({"a": 100.0}, 999.0)
        cur["aggregate"]["geomean_instructions_per_second"] = 110.0
        base = _payload({"a": 100.0}, 100.0)
        assert compare_bench(cur, base)["aggregate"] == pytest.approx(0.10)

    def test_disjoint_workloads_not_compared(self):
        cmp = compare_bench(
            _payload({"a": 100.0, "new": 50.0}, 100.0),
            _payload({"a": 100.0, "old": 50.0}, 100.0),
        )
        assert cmp["workloads"]["new"] is None
        assert cmp["workloads"]["old"] is None
        assert cmp["workloads"]["a"] == pytest.approx(0.0)


class TestBenchCli:
    def test_bench_subcommand(self, tmp_path, capsys):
        out = tmp_path / "BENCH_core.json"
        rc = main([
            "bench",
            "--workloads", "spc_fp",
            "--warmup", "1000",
            "--instructions", "2500",
            "--repeats", "1",
            "--output", str(out),
            "--no-history",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "spc_fp" in text and "TOTAL" in text and "GEOMEAN" in text

        payload = json.loads(out.read_text())
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["config"]["warmup_instructions"] == 1_000
        assert payload["aggregate"]["instructions_per_second"] > MIN_INSTRS_PER_SEC

    def test_bench_unknown_workload(self, tmp_path):
        rc = main(["bench", "--workloads", "nope", "--output", str(tmp_path / "b.json")])
        assert rc == 2

    def _bench_args(self, out, *extra):
        return [
            "bench",
            "--workloads", "spc_fp",
            "--warmup", "1000",
            "--instructions", "2500",
            "--repeats", "1",
            "--output", str(out),
            "--no-history",
            *extra,
        ]

    def test_fast_warmup_flag(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(self._bench_args(out, "--fast-warmup")) == 0
        assert json.loads(out.read_text())["config"]["warmup_mode"] == "functional"

    def test_batched_flag(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(self._bench_args(out, "--batched", "--batch-width", "2")) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["mode"] == "batched"
        assert payload["config"]["batch_width"] == 2
        assert "(batched)" in capsys.readouterr().out

    def test_history_appended_by_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = self._bench_args(tmp_path / "b.json")
        args.remove("--no-history")
        assert main(args) == 0
        history = tmp_path / "BENCH_history.jsonl"
        assert history.exists()
        assert json.loads(history.read_text())["mode"] == "scalar"
        assert "BENCH_history.jsonl" in capsys.readouterr().out

    def test_baseline_comparison(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(self._bench_args(out)) == 0
        capsys.readouterr()
        # Two ~30 ms runs differ by host noise alone, which can exceed the
        # 20% gate; a baseline 100x slower than the first run keeps this
        # a test of the non-regressing path (the mirror of the 100x
        # inflation in test_baseline_regression_fails).
        slow = json.loads(out.read_text())
        for row in slow["workloads"].values():
            row["instructions_per_second"] *= 0.01
        slow["aggregate"]["instructions_per_second"] *= 0.01
        slow["aggregate"]["geomean_instructions_per_second"] *= 0.01
        baseline = tmp_path / "slow_baseline.json"
        baseline.write_text(json.dumps(slow))
        rc = main(self._bench_args(tmp_path / "b2.json", "--baseline", str(baseline)))
        assert rc == 0
        text = capsys.readouterr().out
        assert "vs baseline" in text and "GEOMEAN" in text

    def test_baseline_regression_fails(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(self._bench_args(out)) == 0
        inflated = json.loads(out.read_text())
        for row in inflated["workloads"].values():
            row["instructions_per_second"] *= 100.0
        inflated["aggregate"]["instructions_per_second"] *= 100.0
        inflated["aggregate"]["geomean_instructions_per_second"] *= 100.0
        fake = tmp_path / "fast_baseline.json"
        fake.write_text(json.dumps(inflated))
        rc = main(self._bench_args(tmp_path / "b3.json", "--baseline", str(fake)))
        assert rc == 1

    def test_baseline_unreadable(self, tmp_path):
        out = tmp_path / "b.json"
        rc = main(self._bench_args(out, "--baseline", str(tmp_path / "missing.json")))
        assert rc == 2

    def test_cache_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "info"]) == 0
        info_text = capsys.readouterr().out
        assert str(tmp_path) in info_text
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
