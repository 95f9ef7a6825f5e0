"""Tests for the persistent content-addressed result cache."""

import dataclasses
import json
import logging
import shutil

import pytest

from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.core.metrics import RunResult
from repro.experiments import runner
from repro.experiments.cache import (
    CACHE_STATS,
    MANIFEST_SCHEMA_VERSION,
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
    return json.loads(path.read_text())["params"]["branch"]["btb_entries"]


def _edited(text: str, change) -> str:
    """An entry's text after ``change`` mutates its JSON document."""
    entry = json.loads(text)
    change(entry)
    return json.dumps(entry)


MALFORMED_ENTRIES = {
    "truncated": lambda text: text[: len(text) // 2],
    "not_an_object": lambda text: json.dumps([json.loads(text)]),
    "no_counters": lambda text: _edited(text, lambda e: e.pop("counters")),
    "counter_pairs": lambda text: _edited(text, lambda e: e.update(counters=[["l1i_miss", 42]])),
    "float_counter": lambda text: _edited(text, lambda e: e["counters"].update(l1i_miss=42.5)),
    "string_counter": lambda text: _edited(text, lambda e: e["counters"].update(l1i_miss="42")),
    "no_params": lambda text: _edited(text, lambda e: e.pop("params")),
}
"""Ways an entry's text can be damaged; each must read as stale."""

REKEYED_ENTRIES = {
    "params": lambda e: e["params"]["frontend"].update(ftq_entries=2),
    "fingerprint": lambda e: e.update(workload_fingerprint="0" * 64),
    "null_fingerprint": lambda e: e.update(workload_fingerprint=None),
}
"""Well-formed edits under the right key and file name whose parameters
or workload no longer derive that key; each must read as stale."""


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
        assert loaded.workload == result.workload
        assert loaded.label == result.label
        assert loaded.instructions == result.instructions
        assert loaded.cycles == result.cycles
        assert loaded.stats.as_dict() == result.stats.as_dict()
        assert loaded.params == result.params

    def test_one_put_leaves_one_file(self, tmp_path):
        cache = ResultCache(tmp_path, stats=StatSet())
        key = run_key("spc_fp", fast())
        cache.put(key, make_result(), meta={"wall_seconds": 0.5})
        [path] = tmp_path.iterdir()
        assert path.name == f"{key}.json"
        entry = json.loads(path.read_text())
        assert entry["key"] == key and entry["wall_seconds"] == 0.5
        assert entry["counters"] == {"l1i_miss": 42}

    def test_failed_write_warns(self, tmp_path, caplog, repro_records):
        # A sharded sweep's merge reads the entries back, so a lost
        # write must show, though it does not fail the run.
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        (tmp_path / f"{key}.json").mkdir()  # the rename onto it fails
        with caplog.at_level(logging.WARNING, logger="repro"):
            cache.put(key, make_result())
        assert stats.get("cache_store") == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
        [record] = [r for r in caplog.records if r.name == "repro.experiments.cache"]
        assert record.levelno == logging.WARNING and str(tmp_path) in record.getMessage()

    def test_schema_mismatch_is_stale(self, tmp_path):
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        path = tmp_path / f"{key}.json"
        tags = {"schema": SIM_SCHEMA_VERSION, "manifest_schema": MANIFEST_SCHEMA_VERSION}
        for n, (tag, version) in enumerate(tags.items(), 1):
            cache.put(key, make_result())
            path.write_text(_edited(path.read_text(), lambda e: e.update({tag: version + 1})))

            assert cache.get(key) is None
            assert stats.get("cache_stale") == n
            assert not path.exists()  # stale entries are evicted on sight

    def test_corrupt_entry_is_stale(self, tmp_path):
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        (tmp_path / f"{key}.json").write_bytes(b"not json")

        assert cache.get(key) is None
        assert stats.get("cache_stale") == 1
        assert not (tmp_path / f"{key}.json").exists()

    @pytest.mark.parametrize("damage", MALFORMED_ENTRIES)
    def test_malformed_entry_is_stale(self, tmp_path, damage):
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        cache.put(key, make_result())
        path = tmp_path / f"{key}.json"
        path.write_text(MALFORMED_ENTRIES[damage](path.read_text()))

        assert cache.get(key) is None
        assert stats.get("cache_stale") == 1
        assert not path.exists()

    def test_older_version_files_are_inert(self, tmp_path):
        # An older version wrote a pickle, a provenance sidecar and
        # ChampSim chunk artifacts per trace; none of them is an entry.
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        old = [
            tmp_path / f"{key}.pkl",
            tmp_path / f"{key}.manifest.json",
            tmp_path / "traces" / "0123abcd" / "chunk-000000.npz",
            tmp_path / "traces" / "0123abcd" / "meta.json",
        ]
        old[0].write_bytes(b"\x80\x05not read")
        old[1].write_text(json.dumps({"manifest_schema": 2, "key": key, "workload": "spc_fp"}))
        old[2].parent.mkdir(parents=True)
        old[2].write_bytes(b"PK")
        old[3].write_text("{}")

        info = cache.info()
        assert info["entries"] == 0 and info["total_bytes"] == 0
        assert cache.manifests() == []
        assert cache.get(key) is None
        assert stats.get("cache_disk_miss") == 1 and stats.get("cache_stale") == 0
        assert cache.clear() == 0
        assert all(path.exists() for path in old)

    def test_swapped_entry_is_stale(self, tmp_path, caplog, repro_records):
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key_a = run_key("spc_fp", fast())
        key_b = run_key("spc_fp", fast().with_branch(btb_entries=1024))
        cache.put(key_a, make_result())
        shutil.copyfile(tmp_path / f"{key_a}.json", tmp_path / f"{key_b}.json")

        with caplog.at_level(logging.WARNING, logger="repro"):
            assert cache.get(key_b) is None
        assert stats.get("cache_stale") == 1
        assert not (tmp_path / f"{key_b}.json").exists()
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
        paths = {_btb_entries(path): path for path in tmp_path.glob("*.json")}
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

    @pytest.mark.parametrize("edit", REKEYED_ENTRIES)
    def test_entry_that_does_not_rederive_its_key_is_stale(
        self, tmp_path, caplog, repro_records, edit
    ):
        # The stored key and file name are right; the stored parameters
        # or workload are not the ones the key was derived from.
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        key = run_key("spc_fp", fast())
        cache.put(key, make_result())
        path = tmp_path / f"{key}.json"
        assert json.loads(path.read_text())["params"]["frontend"]["ftq_entries"] == 24
        path.write_text(_edited(path.read_text(), REKEYED_ENTRIES[edit]))

        with caplog.at_level(logging.WARNING, logger="repro"):
            assert cache.get(key) is None
        assert stats.get("cache_stale") == 1 and stats.get("cache_disk_hit") == 0
        assert not path.exists()
        [record] = [r for r in caplog.records if r.name == "repro.experiments.cache"]
        assert record.getMessage().count(key) == 2  # requested and stored
        derived = record.getMessage().split("re-derive ")[1].split(")")[0]
        assert len(derived) == 64 and derived != key

    def test_untouched_entry_rederives_its_key(self, tmp_path):
        stats = StatSet()
        cache = ResultCache(tmp_path, stats=stats)
        params = fast().with_frontend(ftq_entries=2)
        key = run_key("spc_fp", params)
        cache.put(key, make_result(params))
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        assert entry["workload_fingerprint"] == workload_fingerprint("spc_fp")
        assert cache.get(key).params == params
        assert stats.get("cache_disk_hit") == 1 and stats.get("cache_stale") == 0

    def test_runner_records_the_fingerprint_it_keyed_with(self, tmp_path, monkeypatch):
        # A workload passed as an object that no name resolves to: the
        # entry cannot look its fingerprint up by name, so the runner
        # hands over the one it derived the key from.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = dataclasses.replace(
            workload_by_name("spc_fp"), name="spc_fp_unlisted", oracle_seed=99
        )
        runner.clear_cache()
        first = runner.run_config(spec, fast())
        [path] = tmp_path.glob("*.json")
        assert json.loads(path.read_text())["workload_fingerprint"] == workload_fingerprint(spec)

        runner.clear_cache()
        hits, stale = CACHE_STATS.get("cache_disk_hit"), CACHE_STATS.get("cache_stale")
        again = runner.run_config(spec, fast())
        assert CACHE_STATS.get("cache_disk_hit") == hits + 1
        assert CACHE_STATS.get("cache_stale") == stale
        assert again.stats.as_dict() == first.stats.as_dict()
        runner.clear_cache()

    def test_other_schema_entries_are_unreachable(self, tmp_path):
        # An entry of an older schema lies under a key no lookup derives:
        # it is counted apart, listed nowhere, and clear removes it.
        cache = ResultCache(tmp_path, stats=StatSet())
        key = run_key("spc_fp", fast())
        cache.put(key, make_result())
        current = tmp_path / f"{key}.json"
        for n, tag in enumerate(("schema", "manifest_schema")):
            old = tmp_path / f"{n:064x}.json"
            old.write_text(
                _edited(current.read_text(), lambda e: e.update({tag: e[tag] - 1, "key": old.stem}))
            )
        info = cache.info()
        assert info["entries"] == 1 and info["total_bytes"] == current.stat().st_size
        assert info["unreachable"] == 2
        assert info["unreachable_bytes"] == sum(
            (tmp_path / f"{n:064x}.json").stat().st_size for n in range(2)
        )
        assert [m["key"] for m in cache.manifests()] == [key]
        assert cache.clear() == 3
        info = cache.info()
        assert info["entries"] == info["unreachable"] == 0

    def test_cache_info_prints_unreachable(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(tmp_path, stats=StatSet())
        key = run_key("spc_fp", fast())
        cache.put(key, make_result())
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries:   1 " in out and "unreachable: 0 (0 bytes)\n" in out
        path = tmp_path / f"{key}.json"
        path.write_text(_edited(path.read_text(), lambda e: e.update(schema=SIM_SCHEMA_VERSION - 1)))
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries:   0 (0 bytes)" in out
        [line] = [line for line in out.splitlines() if line.startswith("unreachable:")]
        assert line.startswith("unreachable: 1 (") and "repro cache clear" in line

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
