"""Parallel sweep execution: determinism, caching, failures, and the jobs knob."""

import logging

import pytest

from repro.common.ledger import read_ledger
from repro.common.params import SimParams
from repro.experiments.cache import CACHE_STATS
from repro.experiments.configs import repro_jobs
from repro.experiments.runner import clear_cache, run_config, run_matrix, run_points
from repro.trace.champsim import TraceFormatError

WORKLOADS = ["spc_fp", "srv_web"]


def fast():
    return SimParams(warmup_instructions=1_000, sim_instructions=2_500)


def configs():
    # perfect_btb exercises the precompiled-metadata candidate scan and
    # (with PFC on by default) the bisect-based pre-decoder, so the
    # determinism check below also pins those rewrites bit-identical.
    return {
        "base": fast(),
        "big_btb": fast().with_branch(btb_entries=1024),
        "perfect_btb": fast().with_branch(perfect_btb=True),
    }


def flatten(results):
    """Reduce a run_matrix result to comparable (numbers, counters) rows."""
    return {
        (label, wl): (r.instructions, r.cycles, r.stats.as_dict())
        for label, row in results.items()
        for wl, r in row.items()
    }


@pytest.fixture(autouse=True)
def isolated(monkeypatch, tmp_path):
    """Fresh memo + private disk cache directory per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    yield
    clear_cache()


class TestJobsKnob:
    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert repro_jobs() == (os.cpu_count() or 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert repro_jobs() == 4

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError):
            repro_jobs()


class TestParallelDeterminism:
    def test_parallel_matches_serial(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = flatten(run_matrix(configs(), WORKLOADS, jobs=1))

        clear_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        parallel = flatten(run_matrix(configs(), WORKLOADS, jobs=4))

        assert serial == parallel

    def test_jobs_env_drives_run_matrix(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        results = run_matrix(configs(), ["spc_fp"])
        assert set(results) == {"base", "big_btb", "perfect_btb"}


class TestWarmCache:
    def test_second_run_simulates_nothing(self):
        before = CACHE_STATS.get("sim_runs")
        first = flatten(run_matrix(configs(), WORKLOADS, jobs=1))
        cold_sims = CACHE_STATS.get("sim_runs") - before
        assert cold_sims == len(first)

        clear_cache()  # drop the memo; only the disk cache stays warm
        mid = CACHE_STATS.get("sim_runs")
        second = flatten(run_matrix(configs(), WORKLOADS, jobs=1))
        assert CACHE_STATS.get("sim_runs") == mid  # zero new simulations
        assert second == first

    def test_memo_hits_skip_disk(self):
        p = fast()
        a = run_config("spc_fp", p)
        hits = CACHE_STATS.get("cache_memo_hit")
        b = run_config("spc_fp", p)
        assert a is b
        assert CACHE_STATS.get("cache_memo_hit") == hits + 1

    def test_disk_disabled_still_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        before = CACHE_STATS.get("sim_runs")
        run_config("spc_fp", fast())
        clear_cache()
        run_config("spc_fp", fast())
        assert CACHE_STATS.get("sim_runs") == before + 2  # no disk to warm from


def fdp_points(workload):
    """BTB {1024, 8192} x PFC {off, on}: four scalar points of one workload."""
    return [
        (workload, fast().with_branch(btb_entries=btb).with_frontend(pfc_enabled=pfc))
        for btb in (1024, 8192)
        for pfc in (False, True)
    ]


class TestBadTrace:
    """A trace that cannot be materialised fails its points once, under
    either path, and leaves a complete ledger."""

    @pytest.fixture
    def junk(self, tmp_path):
        path = tmp_path / "junk.champsim"
        path.write_bytes(b"this is not a champsim trace file!\n")  # 35 bytes
        return str(path)

    @pytest.fixture
    def ledger_events(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))

        def read():
            [path] = sorted((tmp_path / "ledger").glob("*.jsonl"))
            return read_ledger(path)

        return read

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_point_fails_once_and_the_ledger_ends(
        self, jobs, junk, ledger_events, caplog, repro_records
    ):
        with caplog.at_level(logging.ERROR, logger="repro"):
            with pytest.raises(TraceFormatError):
                run_points(fdp_points(junk), jobs=jobs)
        events = [e["event"] for e in ledger_events()]
        assert events.count("failed") == 4
        assert events.count("sweep_end") == 1
        errors = [
            r
            for r in caplog.records
            if r.name == "repro.experiments.runner" and r.levelno >= logging.ERROR
        ]
        assert len(errors) == 1, [r.getMessage() for r in errors]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_other_workloads_still_run(self, jobs, junk, ledger_events):
        with pytest.raises(TraceFormatError):
            run_points(fdp_points(junk) + fdp_points("spc_fp"), jobs=jobs)
        terminal = {
            (e["workload"], e["event"])
            for e in ledger_events()
            if e["event"] in ("finished", "failed")
        }
        assert terminal == {("spc_fp", "finished"), (junk, "failed")}
        finished = [e for e in ledger_events() if e["event"] == "finished"]
        assert len(finished) == 4
