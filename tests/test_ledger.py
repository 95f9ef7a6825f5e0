"""Run-ledger tests: lifecycle validity, reconciliation, determinism.

Covers the sweep observability contract (docs/OBSERVABILITY.md):

* every job's ledger lifecycle is one of the valid sequences;
* totals reconcile exactly (queued == finished + failed + cache_hits);
* a parallel sweep's ledger matches a serial one modulo timing fields;
* a ledgered sweep's *results* are bit-identical to an unledgered one;
* provenance manifests land beside cached results and survive reads.
"""

import json

import pytest

from repro.common.ledger import (
    TIMING_FIELDS,
    SweepLedger,
    invalid_sequences,
    job_sequences,
    latest_ledger,
    new_sweep_id,
    read_ledger,
    render_progress,
    render_summary_md,
    summarize_ledger,
)
from repro.common.params import SimParams
from repro.core.typed import backend_name
from repro.experiments.cache import MANIFEST_SCHEMA_VERSION, ResultCache, run_key
from repro.experiments.runner import clear_cache, run_config, run_points

WORKLOADS = ["spc_fp", "srv_web"]


def fast():
    return SimParams(warmup_instructions=1_000, sim_instructions=2_500)


def points():
    return [
        (wl, params)
        for wl in WORKLOADS
        for params in (fast(), fast().with_branch(btb_entries=1024))
    ]


@pytest.fixture(autouse=True)
def isolated(monkeypatch, tmp_path):
    """Fresh memo + private disk cache + private ledger dir per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
    clear_cache()
    yield
    clear_cache()


def one_ledger(tmp_path) -> list[dict]:
    """Read back the single ledger file the test's sweep produced."""
    files = sorted((tmp_path / "ledger").glob("*.jsonl"))
    assert len(files) == 1, files
    return read_ledger(files[0])


class TestSweepId:
    def test_ids_unique_within_a_second(self):
        ids = {new_sweep_id(clock=lambda: 1_700_000_000.0) for _ in range(5)}
        assert len(ids) == 5

    def test_sortable_stamp(self):
        a = new_sweep_id(clock=lambda: 1_700_000_000.0)
        b = new_sweep_id(clock=lambda: 1_700_000_060.0)
        assert a < b


class TestLifecycle:
    def test_cold_sweep_sequences_and_reconciliation(self, tmp_path):
        resolved = run_points(points(), jobs=1)
        events = one_ledger(tmp_path)

        assert invalid_sequences(events) == {}
        seqs = job_sequences(events)
        assert set(seqs) == set(resolved)
        assert all(seq[-1] == "finished" for seq in seqs.values())

        summary = summarize_ledger(events)
        assert summary["complete"]
        assert summary["reconciled"]
        totals = summary["totals"]
        assert totals["queued"] == len(resolved) == 4
        assert totals["queued"] == (
            totals["finished"] + totals["failed"] + totals["cache_hits"]
        )

    def test_warm_sweep_is_all_cache_hits(self, tmp_path, monkeypatch):
        run_points(points(), jobs=1)
        clear_cache()  # memo dropped; disk cache stays warm
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger2"))
        run_points(points(), jobs=1)
        events = read_ledger(sorted((tmp_path / "ledger2").glob("*.jsonl"))[0])
        summary = summarize_ledger(events)
        assert summary["reconciled"]
        assert summary["totals"]["cache_hits"] == 4
        assert summary["totals"]["finished"] == 0
        assert summary["cache_hit_rate"] == 1.0
        assert summary["cache_hit_sources"]["disk"] == 4
        assert invalid_sequences(events) == {}

    def test_failed_units_reconcile_and_reraise(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner

        orig = runner._simulate_unit

        def boom(workload, params_list):
            if workload == "srv_web":
                raise RuntimeError("injected unit failure")
            return orig(workload, params_list)

        monkeypatch.setattr(runner, "_simulate_unit", boom)
        with pytest.raises(RuntimeError, match="injected unit failure"):
            run_points(points(), jobs=1)
        events = one_ledger(tmp_path)
        assert invalid_sequences(events) == {}
        summary = summarize_ledger(events)
        assert summary["reconciled"]  # failures still reconcile
        assert summary["totals"]["failed"] == 2  # both srv_web points
        assert summary["totals"]["finished"] == 2
        failed = [e for e in events if e["event"] == "failed"]
        assert all("injected unit failure" in e["error"] for e in failed)


def strip_timing(events: list[dict]) -> list[dict]:
    """Project ledger events onto their deterministic fields, sorted."""
    rows = []
    for record in events:
        row = {
            k: v
            for k, v in record.items()
            # "sweep" and "jobs" are identity/pool config, not job data
            if k not in TIMING_FIELDS and k not in ("sweep", "jobs")
        }
        rows.append(row)
    return sorted(rows, key=lambda r: (r.get("key", ""), r["event"]))


class TestDeterminism:
    def test_parallel_ledger_matches_serial_modulo_timing(
        self, tmp_path, monkeypatch
    ):
        serial = run_points(points(), jobs=1)
        serial_events = one_ledger(tmp_path)

        clear_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger2"))
        parallel = run_points(points(), jobs=4)
        parallel_events = read_ledger(
            sorted((tmp_path / "ledger2").glob("*.jsonl"))[0]
        )

        assert strip_timing(serial_events) == strip_timing(parallel_events)
        assert {k: (r.instructions, r.cycles, r.stats.as_dict()) for k, r in serial.items()} == {
            k: (r.instructions, r.cycles, r.stats.as_dict()) for k, r in parallel.items()
        }

    def test_ledgered_results_bit_identical_to_plain(self, tmp_path, monkeypatch):
        ledgered = run_points(points(), jobs=1)
        clear_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        monkeypatch.delenv("REPRO_LEDGER")
        plain = run_points(points(), jobs=1)
        assert not (tmp_path / "cache2" / "nonexistent").exists()
        for key in ledgered:
            a, b = ledgered[key], plain[key]
            assert (a.instructions, a.cycles) == (b.instructions, b.cycles)
            assert a.stats.as_dict() == b.stats.as_dict()


class TestOffSwitch:
    def test_unset_env_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER")
        run_points(points(), jobs=1)
        assert not (tmp_path / "ledger").exists()

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", ""])
    def test_disabling_values(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("REPRO_LEDGER", value)
        run_points(points(), jobs=1)
        assert not (tmp_path / "ledger").exists()


class TestSummaries:
    def test_invalid_sequence_detected(self):
        events = [
            {"event": "queued", "key": "k1"},
            {"event": "finished", "key": "k1"},  # never started
        ]
        assert invalid_sequences(events) == {"k1": ["queued", "finished"]}

    def test_renderers_smoke(self, tmp_path):
        run_points(points(), jobs=1)
        summary = summarize_ledger(one_ledger(tmp_path))
        progress = render_progress(summary)
        assert "4/4 jobs" in progress
        md = render_summary_md(summary)
        assert "# Sweep report" in md
        assert "Slowest work units" in md
        assert "Per-worker utilization" in md

    def test_slowest_units_are_finished_points(self, tmp_path):
        # A work unit simulates one point, so each slowest-unit row is
        # one finished event: one workload and one label, as strings.
        run_points(points(), jobs=1)
        events = one_ledger(tmp_path)
        summary = summarize_ledger(events, top=2)
        finished = [e for e in events if e["event"] == "finished"]
        by_wall = sorted(finished, key=lambda e: -e["wall_seconds"])[:2]
        assert summary["slowest_units"] == [
            {
                "workload": e["workload"],
                "label": e["label"],
                "pid": e["pid"],
                "wall_seconds": e["wall_seconds"],
                "instrs_per_sec": e["instrs_per_sec"],
            }
            for e in by_wall
        ]
        (worker,) = summary["workers"]
        assert worker["units"] == len(finished)
        assert worker["busy_seconds"] == pytest.approx(sum(e["wall_seconds"] for e in finished))
        md = render_summary_md(summary)
        assert "| workload | config | pid | wall (s) | instrs/sec |" in md
        row = f"| {by_wall[0]['workload']} | {by_wall[0]['label']} | {by_wall[0]['pid']} |"
        assert row in md

    def test_latest_ledger_picks_newest(self, tmp_path):
        directory = tmp_path / "ledger"
        run_points(points()[:1], jobs=1)
        first = latest_ledger(directory)
        run_points(points()[1:2], jobs=1)
        second = latest_ledger(directory)
        assert first is not None and second is not None
        assert second >= first
        assert len(list(directory.glob("*.jsonl"))) == 2

    def test_read_ledger_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "queued", "key": "k"}\n{broken\n\n')
        events = read_ledger(path)
        assert len(events) == 1

    def test_ledger_file_failure_is_silent(self, tmp_path):
        led = SweepLedger(path=tmp_path / "nodir" / "x" / "y.jsonl")
        led.queued("k", "wl", "cfg")  # must not raise
        led.end()


class TestManifests:
    def test_run_config_writes_manifest(self):
        params = fast()
        result = run_config("spc_fp", params)
        cache = ResultCache()
        manifests = cache.manifests()
        assert len(manifests) == 1
        m = manifests[0]
        assert m["manifest_schema"] == MANIFEST_SCHEMA_VERSION
        assert m["workload"] == "spc_fp"
        assert m["ipc"] == result.ipc
        assert m["warmup_mode"] == "functional"  # sweep default resolution
        assert m["kernel_backend"] == backend_name() and "kernel" not in m
        assert m["wall_seconds"] > 0
        assert "worker_pid" in m and "host" in m and "repro_version" in m

    def test_get_manifest_by_key(self):
        import repro.experiments.runner as runner

        params = runner._resolve(fast())
        result = run_config("spc_fp", fast())
        key = run_key("spc_fp", params)
        cache = ResultCache()
        m = json.loads((cache.directory / f"{key}.json").read_text())
        assert m["key"] == key and m["label"] == result.label
        assert m["counters"] == result.stats.as_dict()

    def test_prefetcher_sweep_manifest_per_point(self):
        # Prefetcher configs take the typed kernel, and each point is
        # its own work unit with its own manifest.
        prefetched = [fast().replace(prefetcher=pf) for pf in ("djolt", "fnl_mma")]
        run_points([(wl, p) for wl in WORKLOADS for p in prefetched], jobs=1)
        manifests = ResultCache().manifests()
        assert len(manifests) == len(WORKLOADS) * len(prefetched)
        assert all(m["wall_seconds"] > 0 for m in manifests)
        assert all(m["kernel_backend"] == backend_name() for m in manifests)

    def test_clear_removes_manifests(self):
        run_config("spc_fp", fast())
        cache = ResultCache()
        assert len(cache.manifests()) == cache.info()["entries"] == 1
        cache.clear()
        assert cache.info()["entries"] == 0
        assert cache.manifests() == []

    def test_info_counts_and_hit_rate(self):
        run_config("spc_fp", fast())
        run_config("spc_fp", fast())  # memo hit
        info = ResultCache().info()
        assert info["entries"] == 1
        assert 0.0 <= info["session_hit_rate"] <= 1.0


class TestWorkerLogPropagation:
    def test_initializer_applies_level(self):
        import logging

        from repro.common.log import current_level_name
        from repro.experiments.runner import _pool_worker_init

        _pool_worker_init("debug")
        try:
            assert current_level_name() == "debug"
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            _pool_worker_init("warning")

    def test_current_level_name_roundtrip(self):
        from repro.common.log import configure, current_level_name

        for name in ("info", "warning"):
            configure(name)
            assert current_level_name() == name


class TestSweepReportCli:
    def test_progress_and_summary_outputs(self, tmp_path, capsys):
        from repro.cli import main

        run_points(points(), jobs=1)
        path = str(sorted((tmp_path / "ledger").glob("*.jsonl"))[0])

        assert main(["sweep-report", path]) == 0
        out = capsys.readouterr().out
        assert "4/4 jobs" in out and "complete" in out

        outdir = tmp_path / "reports"
        assert main(["sweep-report", path, "--format", "both", "--out", str(outdir)]) == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert any(f.endswith(".sweep.md") for f in files)
        assert any(f.endswith(".sweep.json") for f in files)
        payload = json.loads(next(outdir.glob("*.sweep.json")).read_text())
        assert payload["reconciled"] is True

    def test_defaults_to_latest_ledger(self, tmp_path, capsys):
        from repro.cli import main

        run_points(points(), jobs=1)
        assert main(["sweep-report"]) == 0
        assert "4/4 jobs" in capsys.readouterr().out

    def test_missing_ledger_is_an_error(self, tmp_path):
        from repro.cli import main

        assert main(["sweep-report", str(tmp_path / "nope.jsonl")]) == 2
        assert main(["sweep-report"]) == 2  # empty ledger dir
