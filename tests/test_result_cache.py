"""Tests for the persistent content-addressed result cache."""

import dataclasses
import logging
import pickle
import shutil

import pytest

from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.core.metrics import RunResult
from repro.experiments import runner
from repro.experiments.cache import (
    CACHE_STATS,
    SIM_SCHEMA_VERSION,
    ResultCache,
    cache_enabled,
    default_cache_dir,
    params_fingerprint,
    run_key,
    workload_fingerprint,
)
from repro.trace.workloads import workload_by_name


def fast():
    return SimParams(warmup_instructions=1_000, sim_instructions=2_500)


def make_result(params=None) -> RunResult:
    stats = StatSet()
    stats.bump("l1i_miss", 42)
    return RunResult(
        workload="spc_fp",
        label="test",
        params=params or fast(),
        instructions=2_500,
        cycles=1_000,
        stats=stats,
    )


def _btb_entries(path) -> int:
    """BTB size of the run a cache entry file holds."""
    return pickle.loads(path.read_bytes())["result"].params.branch.btb_entries


class TestFingerprints:
    def test_rebuilt_params_share_key(self):
        p = fast()
        q = dataclasses.replace(p, frontend=dataclasses.replace(p.frontend))
        assert p is not q
        assert params_fingerprint(p) == params_fingerprint(q)
        assert run_key("spc_fp", p) == run_key("spc_fp", q)

    def test_param_content_changes_key(self):
        p = fast()
        q = p.with_branch(btb_entries=1024)
        assert params_fingerprint(p) != params_fingerprint(q)
        assert run_key("spc_fp", p) != run_key("spc_fp", q)

    def test_workload_changes_key(self):
        p = fast()
        assert run_key("spc_fp", p) != run_key("srv_web", p)

    def test_name_and_spec_agree(self):
        spec = workload_by_name("srv_web")
        assert workload_fingerprint("srv_web") == workload_fingerprint(spec)
        assert run_key("srv_web", fast()) == run_key(spec, fast())

    def test_key_is_hex_digest(self):
        key = run_key("spc_fp", fast())
        assert len(key) == 64
        int(key, 16)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        assert cache.get(key) is None
        assert stats.get("cache_disk_miss") == 1

        result = make_result()
        cache.put(key, result)
        assert stats.get("cache_store") == 1

        loaded = cache.get(key)
        assert stats.get("cache_disk_hit") == 1
        assert loaded is not None
        assert loaded.instructions == result.instructions
        assert loaded.cycles == result.cycles
        assert loaded.stats.as_dict() == result.stats.as_dict()
        assert loaded.params == result.params

    def test_schema_mismatch_is_stale(self, tmp_path):
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        path = tmp_path / f"{key}.pkl"
        payload = {"schema": SIM_SCHEMA_VERSION + 1, "key": key, "result": make_result()}
        with path.open("wb") as fh:
            pickle.dump(payload, fh)

        assert cache.get(key) is None
        assert stats.get("cache_stale") == 1
        assert not path.exists()  # stale entries are evicted on sight

    def test_corrupt_entry_is_stale(self, tmp_path):
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")

        assert cache.get(key) is None
        assert stats.get("cache_stale") == 1
        assert not (tmp_path / f"{key}.pkl").exists()

    def test_swapped_entry_is_stale(self, tmp_path, caplog, monkeypatch):
        # configure() stops the repro logger propagating to the root,
        # where caplog listens; let records through for this test.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key_a = run_key("spc_fp", fast())
        key_b = run_key("spc_fp", fast().with_branch(btb_entries=1024))
        cache.put(key_a, make_result())
        shutil.copyfile(tmp_path / f"{key_a}.pkl", tmp_path / f"{key_b}.pkl")

        with caplog.at_level(logging.WARNING, logger="repro"):
            assert cache.get(key_b) is None
        assert stats.get("cache_stale") == 1
        assert not (tmp_path / f"{key_b}.pkl").exists()
        [record] = [r for r in caplog.records if r.name == "repro.experiments.cache"]
        assert key_a in record.getMessage() and key_b in record.getMessage()
        assert cache.get(key_a) is not None  # the genuine entry still serves

    def test_swapped_entry_is_resimulated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        params_a = fast()
        params_b = fast().with_branch(btb_entries=1024)
        runner.clear_cache()
        want_b = runner.run_config("spc_fp", params_b)
        runner.run_config("spc_fp", params_a)
        paths = {_btb_entries(path): path for path in tmp_path.glob("*.pkl")}
        path_a, path_b = paths[params_a.branch.btb_entries], paths[1024]
        shutil.copyfile(path_a, path_b)

        runner.clear_cache()
        stale, runs = CACHE_STATS.get("cache_stale"), CACHE_STATS.get("sim_runs")
        got_b = runner.run_config("spc_fp", params_b)
        assert CACHE_STATS.get("cache_stale") == stale + 1
        assert CACHE_STATS.get("sim_runs") == runs + 1
        assert got_b.stats.as_dict() == want_b.stats.as_dict()
        assert _btb_entries(path_b) == 1024  # re-stored under its own key
        runner.clear_cache()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path, stats=StatSet())
        for workload in ("spc_fp", "srv_web"):
            cache.put(run_key(workload, fast()), make_result())
        assert cache.info()["entries"] == 2
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0

    def test_info_reports_size(self, tmp_path):
        cache = ResultCache(tmp_path, stats=StatSet())
        cache.put(run_key("spc_fp", fast()), make_result())
        info = cache.info()
        assert info["directory"] == str(tmp_path)
        assert info["schema"] == SIM_SCHEMA_VERSION
        assert info["entries"] == 1
        assert info["total_bytes"] > 0


class TestKnobs:
    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path

    def test_default_dir_is_results_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        d = default_cache_dir()
        assert d.parts[-2:] == ("results", ".cache")

    @pytest.mark.parametrize("value,expected", [
        ("1", True),
        ("0", False),
        ("off", False),
        ("no", False),
        ("false", False),
        ("yes", True),
    ])
    def test_cache_enabled_env(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert cache_enabled() is expected

    def test_cache_enabled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled() is True
