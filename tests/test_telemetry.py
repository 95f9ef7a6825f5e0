"""Tests for the observability layer (repro.common.telemetry + log)."""

from __future__ import annotations

import json
import logging

import pytest

from repro.common import log as repro_log
from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.common.telemetry import (
    CYCLE_BUCKETS,
    EventRing,
    IntervalSampler,
    Telemetry,
    TelemetryConfig,
    _STATE_AWAIT_FILL,
)
from repro.core.simulator import simulate
from repro.core.typed import backend_name
from repro.frontend import ftq as ftq_mod
from repro.trace.workloads import default_workloads

from tests.conftest import fast_params

ALL_WORKLOADS = [w.name for w in default_workloads()]


def traced_run(workload: str, params: SimParams, **cfg):
    tel = Telemetry(TelemetryConfig(**cfg))
    result = simulate(workload, params, telemetry=tel)
    return tel, result


class TestCycleAccounting:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_buckets_sum_to_cycles(self, workload):
        # The invariant: every measured cycle lands in exactly one bucket.
        tel, result = traced_run(workload, fast_params())
        accounting = tel.accounting()
        assert sum(accounting.values()) == result.cycles
        assert set(accounting) == set(CYCLE_BUCKETS)

    def test_result_carries_cyc_counters(self):
        _, result = traced_run("srv_web", fast_params())
        assert result.has_cycle_accounting
        buckets = result.cycle_accounting()
        assert sum(buckets.values()) == result.cycles
        fractions = result.cycle_accounting_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_untraced_result_has_no_accounting(self):
        result = simulate("srv_web", fast_params())
        assert not result.has_cycle_accounting
        assert sum(result.cycle_accounting().values()) == 0

    def test_sum_invariant_with_prefetcher_and_small_ftq(self):
        params = fast_params(replace=dict(prefetcher="nl1")).with_frontend(ftq_entries=4)
        tel, result = traced_run("srv_db", params)
        assert sum(tel.accounting().values()) == result.cycles

    def test_mirrored_ftq_state_constant(self):
        # telemetry mirrors this value to avoid an import cycle.
        assert _STATE_AWAIT_FILL == ftq_mod.STATE_AWAIT_FILL


class TestPrefetchPartition:
    def test_terminal_states_partition_issued(self):
        params = fast_params(replace=dict(prefetcher="nl1"))
        tel, _ = traced_run("srv_web", params)
        p = tel.prefetch_partition()
        assert p["issued"] > 0
        assert p["issued"] == (
            p["timely"]
            + p["late"]
            + p["unused_evicted"]
            + p["in_flight_at_end"]
            + p["resident_untouched_at_end"]
        )

    @pytest.mark.parametrize("workload", ["srv_db", "clt_browser", "spc_int_a"])
    def test_partition_holds_across_workloads(self, workload):
        params = fast_params(replace=dict(prefetcher="nl1"))
        tel, _ = traced_run(workload, params)
        p = tel.prefetch_partition()
        terminal = (
            p["timely"]
            + p["late"]
            + p["unused_evicted"]
            + p["in_flight_at_end"]
            + p["resident_untouched_at_end"]
        )
        assert p["issued"] == terminal

    def test_derived_metrics_bounded(self):
        params = fast_params(replace=dict(prefetcher="nl1"))
        tel, result = traced_run("srv_web", params)
        p = tel.prefetch_partition()
        for name in ("accuracy", "coverage", "timeliness"):
            assert 0.0 <= p[name] <= 1.0
        assert 0.0 <= result.prefetch_accuracy <= 1.0
        assert 0.0 <= result.prefetch_coverage <= 1.0
        assert 0.0 <= result.prefetch_timeliness <= 1.0

    def test_no_prefetcher_means_nothing_issued(self):
        tel, _ = traced_run("srv_web", fast_params())
        p = tel.prefetch_partition()
        assert p["issued"] == 0
        assert p["accuracy"] == 0.0


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["srv_web", "spc_fp"])
    def test_traced_run_matches_untraced(self, workload):
        params = fast_params(replace=dict(prefetcher="nl1"))
        base = simulate(workload, params)
        _, traced = traced_run(workload, params)
        assert traced.cycles == base.cycles
        assert traced.instructions == base.instructions
        assert traced.ipc == base.ipc
        telemetry_only = {"prefetch_inflight_end", "prefetch_resident_end"}
        traced_counters = {
            n: traced.stats.get(n)
            for n in traced.stats.names()
            if not n.startswith("cyc_") and n not in telemetry_only
        }
        base_counters = {n: base.stats.get(n) for n in base.stats.names()}
        assert traced_counters == base_counters


class TestEventRing:
    def test_bounded_and_counts_drops(self):
        ring = EventRing(capacity=4)
        for i in range(10):
            ring.emit({"cycle": i, "kind": "x"})
        assert ring.total == 10
        assert ring.dropped == 6
        kept = ring.events()
        assert len(kept) == 4
        assert [e["cycle"] for e in kept] == [6, 7, 8, 9]  # oldest first

    def test_partial_fill_keeps_order(self):
        ring = EventRing(capacity=8)
        for i in range(3):
            ring.emit({"cycle": i, "kind": "y"})
        assert ring.dropped == 0
        assert [e["cycle"] for e in ring.events()] == [0, 1, 2]

    def test_kind_histogram(self):
        ring = EventRing(capacity=2)
        ring.emit({"cycle": 0, "kind": "a"})
        ring.emit({"cycle": 1, "kind": "b"})
        ring.emit({"cycle": 2, "kind": "a"})
        assert ring.counts == {"a": 2, "b": 1}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            EventRing(0)


class TestIntervalSampler:
    def test_stride_and_deltas(self):
        stats = StatSet()
        sampler = IntervalSampler(stride=100)
        stats.bump("l1i_miss", 5)
        sampler.sample(cycle=40, committed=100, stats=stats, measuring=False)
        stats.bump("l1i_miss", 7)
        sampler.sample(cycle=90, committed=200, stats=stats, measuring=True)
        assert sampler.next_at == 300
        first, second = sampler.rows
        assert first["counters"]["l1i_miss"] == 5
        assert second["counters"]["l1i_miss"] == 7  # delta, not cumulative
        assert second["interval_instructions"] == 100
        assert second["interval_cycles"] == 50
        assert second["phase"] == "measure"

    def test_statset_swap_resets_baseline(self):
        warm = StatSet()
        warm.bump("l1i_miss", 50)
        sampler = IntervalSampler(stride=10)
        sampler.sample(cycle=10, committed=10, stats=warm, measuring=False)
        fresh = StatSet()  # measurement boundary swaps in a new StatSet
        fresh.bump("l1i_miss", 3)
        sampler.sample(cycle=20, committed=20, stats=fresh, measuring=True)
        assert sampler.rows[1]["counters"]["l1i_miss"] == 3  # not 3 - 50

    def test_run_emits_samples_with_warmup_visible(self):
        tel, _ = traced_run("srv_web", fast_params(), interval_stride=1000)
        phases = [row["phase"] for row in tel.sampler.rows]
        assert "warmup" in phases
        assert "measure" in phases
        assert phases == sorted(phases, key=lambda p: p != "warmup")  # warmup first


class TestTelemetryLifecycle:
    def test_single_use(self):
        tel, _ = traced_run("srv_web", fast_params())
        with pytest.raises(RuntimeError):
            simulate("srv_web", fast_params(), telemetry=tel)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(interval_stride=0)
        with pytest.raises(ValueError):
            TelemetryConfig(ring_capacity=0)

    def test_disabled_pieces_stay_off(self):
        tel, result = traced_run(
            "srv_web", fast_params(), accounting=False, sampling=False, events=False
        )
        assert tel.ring is None
        assert tel.sampler is None
        assert sum(tel.accounting().values()) == 0
        assert not result.has_cycle_accounting

    def test_summary_is_json_able(self):
        params = fast_params(replace=dict(prefetcher="nl1"))
        tel, result = traced_run("srv_web", params)
        summary = tel.summary(result)
        round_tripped = json.loads(json.dumps(summary))
        assert round_tripped["cycles"] == result.cycles
        assert round_tripped["events"]["emitted"] > 0
        assert round_tripped["mshr"]["peak_occupancy"] >= 1

    def test_jsonl_round_trip(self, tmp_path):
        tel, _ = traced_run("srv_web", fast_params(), interval_stride=1000)
        events = tel.write_events_jsonl(tmp_path / "e.jsonl")
        series = tel.write_timeseries_jsonl(tmp_path / "t.jsonl")
        rows = [json.loads(line) for line in series.read_text().splitlines()]
        assert rows == tel.sampler.rows
        for line in events.read_text().splitlines():
            record = json.loads(line)
            assert "cycle" in record and "kind" in record


class TestCliObservability:
    def test_trace_writes_reports(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["trace", "--workload", "spc_fp", "--warmup", "1000",
             "--instructions", "2500", "--prefetcher", "nl1",
             "--stride", "1000", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Cycle accounting" in out
        trace = json.loads((tmp_path / "spc_fp.trace.json").read_text())
        assert sum(trace["cycle_accounting"].values()) == trace["cycles"]
        report = (tmp_path / "spc_fp.trace.md").read_text()
        assert "## Cycle accounting" in report
        assert (tmp_path / "spc_fp.events.jsonl").exists()
        assert (tmp_path / "spc_fp.timeseries.jsonl").exists()

    def test_run_stats_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "stats.json"
        code = main(
            ["run", "--workload", "spc_fp", "--warmup", "1000",
             "--instructions", "2500", "--stats-json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["workload"] == "spc_fp"
        assert payload["cycles"] > 0
        assert "l1i_miss" in payload["counters"]
        assert payload["modes"]["kernel_backend"] == backend_name()
        assert "kernel" not in payload["modes"]

    def test_cache_info_reports_session_counters(self, capsys):
        from repro.cli import main

        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "cache dir:" in out
        assert "entries:" in out


class TestLogging:
    def test_get_logger_roots_names(self):
        assert repro_log.get_logger("cli").name == "repro.cli"
        assert repro_log.get_logger("repro.x").name == "repro.x"

    def test_resolve_level(self):
        assert repro_log.resolve_level("debug") == logging.DEBUG
        assert repro_log.resolve_level(None) >= logging.DEBUG  # env/default
        with pytest.raises(ValueError):
            repro_log.resolve_level("shout")

    def test_configure_idempotent(self):
        first = repro_log.configure("info")
        second = repro_log.configure("debug")
        assert first is second
        assert len(second.handlers) == 1
        assert second.level == logging.DEBUG
