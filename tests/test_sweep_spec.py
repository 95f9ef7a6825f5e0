"""Declarative sweep specs: expansion, sharding, resume, equivalence.

Covers the guarantees docs/SWEEPS.md advertises:

* spec parsing/validation and the deterministic expansion (property
  tests plus a golden fixture under ``tests/data/``);
* stable point IDs across processes and hash seeds;
* shard partitions for several N: disjoint, complete, skew at most one;
* shard-arg validation (``--shard 3/2`` exits 2 with a clear message);
* execution through the result cache: a sweep killed after M points
  finishes from the cache when run again, the ledger shows exactly the
  remaining points started, and the final table is byte-identical to
  an uninterrupted run; shards write the table once the cache holds
  every point, and ``--merge`` writes it from the cache alone;
* the differential sweep-equivalence harness (``repro check --sweep``)
  end to end, and fuzz property 9's generator.
"""

from __future__ import annotations

import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.sweepdiff import (
    check_spec_expansion,
    check_sweep_equivalence,
    random_sweep_spec,
)
from repro.cli import main
from repro.common.ledger import read_ledger
from repro.common.params import SimParams
from repro.experiments import figures, runner
from repro.experiments.cache import CACHE_STATS, run_key
from repro.experiments.spec import (
    SweepSpecError,
    apply_setting,
    expand,
    load_spec,
    parse_shard,
    parse_spec,
    shard_points,
    valid_setting_key,
)
from repro.experiments.sweep import MERGED_BASENAME, SweepIncomplete, merge_sweep, run_sweep

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_sweep.yaml"

SRC = Path(__file__).resolve().parents[1] / "src"


def spec_data(**overrides) -> dict:
    """A small two-workload, three-config spec (tiny windows)."""
    data = {
        "sweep": "tiny",
        "workloads": ["srv_web", "clt_browser"],
        "base": {"warmup_instructions": 300, "sim_instructions": 1500},
        "matrix": {
            "branch.btb_entries": [512, 8192],
            "frontend.pfc_enabled": [False, True],
        },
        "exclude": [{"branch.btb_entries": 512, "frontend.pfc_enabled": True}],
        "output": {"metrics": ["ipc", "branch_mpki"]},
    }
    data.update(overrides)
    return data


def write_spec(tmp_path: Path, data: dict, name: str = "spec.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------
class TestParse:
    def test_minimal_spec_parses(self):
        spec = parse_spec(spec_data())
        assert spec.name == "tiny"
        assert spec.axes == ("branch.btb_entries", "frontend.pfc_enabled")
        assert spec.metrics == ("ipc", "branch_mpki")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"bogus_key": 1},
            {"matrix": {"branch.btb_entriez": [1, 2]}},
            {"matrix": {"branch.btb_entries": [512, 512]}},
            {"matrix": {"branch.btb_entries": []}},
            {"base": {"nonsense.field": 3}},
            {"workloads": ["no_such_workload"]},
            {"workloads": []},
            {"workloads": ["srv_web", "srv_web"]},
            {"output": {"metrics": ["not_a_metric"]}},
            {"output": {"metrics": []}},
            {"exclude": [{"core.retire_width": 4}]},  # not a matrix axis
            {"include": [{"branch.btb_entries": 1024}]},  # incomplete
            {"base": {"kernel": "interp"}},  # the backend is derived
            {"matrix": {"kernel": ["typed", "interp"]}},
        ],
    )
    def test_malformed_specs_rejected(self, mutation):
        with pytest.raises(SweepSpecError):
            parse_spec(spec_data(**mutation))

    def test_base_and_matrix_overlap_rejected(self):
        data = spec_data()
        data["base"]["branch.btb_entries"] = 1024
        with pytest.raises(SweepSpecError, match="both 'base' and 'matrix'"):
            parse_spec(data)

    def test_setting_key_addressing(self):
        assert valid_setting_key("frontend.ftq_entries")
        assert valid_setting_key("prefetcher")
        assert not valid_setting_key("frontend.nope")
        assert not valid_setting_key("nope.ftq_entries")
        assert not valid_setting_key("frontend.ftq.entries")
        params = apply_setting(SimParams(), "prefetcher", "nl1")
        assert params.prefetcher == "nl1"
        params = apply_setting(SimParams(), "frontend.ftq_entries", 8)
        assert params.frontend.ftq_entries == 8

    def test_invalid_value_carries_dataclass_message(self):
        with pytest.raises(SweepSpecError, match="frontend.ftq_entries"):
            expand(
                parse_spec(
                    spec_data(matrix={"frontend.ftq_entries": [-4, 8]}, exclude=[])
                )
            )

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("frontend.fetch_probe_width", 0),
            ("branch.btb_l1_assoc", 0),
            ("memory.l2_latency", -20),
        ],
    )
    def test_value_that_hangs_or_crashes_fails_at_expansion(self, key, value):
        with pytest.raises(SweepSpecError, match=key.partition(".")[2]):
            expand(parse_spec(spec_data(base={key: value})))

    def test_removed_l1i_latency_is_an_unknown_key(self):
        with pytest.raises(SweepSpecError, match="unknown base parameter key 'memory.l1i_latency'"):
            expand(parse_spec(spec_data(base={"memory.l1i_latency": 4})))

    def test_removed_btb_variant_is_an_unknown_key(self):
        with pytest.raises(SweepSpecError, match="unknown base parameter key 'branch.btb_variant'"):
            expand(parse_spec(spec_data(base={"branch.btb_variant": "two_level"})))

    @pytest.mark.parametrize(
        ("key", "value", "known"),
        [
            ("frontend.history_policy", "thr2", "known: GHR0, GHR1, GHR2, GHR3, Ideal, THR"),
            ("branch.direction_kind", "tagee", "known: gshare, perceptron, perfect, tage"),
            ("prefetcher", "nl2", "known: none, perfect, djolt, eip128, "),
        ],
    )
    def test_misspelled_component_fails_in_one_line(
        self, key, value, known, tmp_path, caplog, repro_records, capsys
    ):
        base = {"warmup_instructions": 300, "sim_instructions": 1500, key: value}
        path = write_spec(tmp_path, spec_data(base=base))
        with caplog.at_level(logging.ERROR, logger="repro"):
            assert main(["sweep", str(path), "--dry-run"]) == 2
        [record] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        message = record.getMessage()
        assert record.exc_info is None and "\n" not in message
        assert f"invalid value for {key!r}" in message
        assert repr(value) in message and known in message
        assert capsys.readouterr().out == ""

    def test_yaml_and_json_specs_are_equivalent(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        data = spec_data()
        json_path = write_spec(tmp_path, data)
        yaml_path = tmp_path / "spec.yaml"
        yaml_path.write_text(yaml.safe_dump(data))
        from_json, from_yaml = load_spec(json_path), load_spec(yaml_path)
        assert from_json.fingerprint() == from_yaml.fingerprint()
        assert [p.point_id for p in expand(from_json)] == [
            p.point_id for p in expand(from_yaml)
        ]

    def test_to_dict_roundtrip(self):
        spec = parse_spec(spec_data(include=[
            {"branch.btb_entries": 8192, "frontend.pfc_enabled": False},
        ]))
        # The include above duplicates a matrix combination -- expansion
        # must refuse rather than silently double-count the point.
        with pytest.raises(SweepSpecError, match="duplicate point"):
            expand(spec)
        spec = parse_spec(spec_data())
        assert parse_spec(spec.to_dict()).fingerprint() == spec.fingerprint()


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
class TestExpansion:
    def test_cartesian_count_without_rules(self):
        points = expand(parse_spec(spec_data(exclude=[])))
        assert len(points) == 2 * 2 * 2  # two axes of two values, two workloads

    def test_exclude_filters_and_include_appends(self):
        points = expand(parse_spec(spec_data()))
        assert len(points) == 3 * 2
        labels = {p.label for p in points}
        assert "branch.btb_entries=512,frontend.pfc_enabled=true" not in labels
        with_include = expand(
            parse_spec(
                spec_data(
                    include=[
                        {"branch.btb_entries": 2048, "frontend.pfc_enabled": True}
                    ]
                )
            )
        )
        assert len(with_include) == 4 * 2
        assert with_include[-1].label == (
            "branch.btb_entries=2048,frontend.pfc_enabled=true"
        )

    def test_base_settings_applied_to_every_point(self):
        for point in expand(parse_spec(spec_data())):
            assert point.params.warmup_instructions == 300
            assert point.params.sim_instructions == 1500

    def test_expansion_is_stable(self):
        spec = parse_spec(spec_data())
        first, second = expand(spec), expand(spec)
        assert [(p.index, p.point_id, p.label) for p in first] == [
            (p.index, p.point_id, p.label) for p in second
        ]
        assert len({p.point_id for p in first}) == len(first)

    def test_everything_excluded_raises(self):
        data = spec_data(
            matrix={"branch.btb_entries": [512]},
            exclude=[{"branch.btb_entries": 512}],
        )
        with pytest.raises(SweepSpecError, match="zero points"):
            expand(parse_spec(data))

    def test_golden_fixture_structure(self):
        expected = json.loads((DATA / "golden_sweep.expected.json").read_text())
        spec = load_spec(GOLDEN)
        points = expand(spec)
        assert spec.name == expected["name"]
        assert list(spec.axes) == expected["axes"]
        assert list(spec.metrics) == expected["metrics"]
        assert len(points) == expected["n_points"]
        for point, want in zip(points, expected["points"]):
            assert point.index == want["index"]
            assert point.workload == want["workload"]
            assert point.label == want["label"]
            assert point.settings_dict == want["settings"]

    def test_point_ids_stable_across_processes_and_hash_seeds(self):
        """The IDs sharding relies on cannot depend on process state."""
        code = (
            "import json, sys\n"
            "from repro.experiments.spec import expand, load_spec\n"
            "print(json.dumps([p.point_id for p in expand(load_spec(sys.argv[1]))]))\n"
        )
        outputs = []
        for hash_seed in ("0", "31337"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(
                [sys.executable, "-c", code, str(GOLDEN)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(json.loads(proc.stdout))
        in_process = [p.point_id for p in expand(load_spec(GOLDEN))]
        assert outputs[0] == outputs[1] == in_process


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
class TestSharding:
    @pytest.mark.parametrize("total", [1, 2, 3, 5])
    def test_partition_disjoint_complete_balanced(self, total):
        points = expand(load_spec(GOLDEN))
        shards = [shard_points(points, k, total) for k in range(1, total + 1)]
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        union = [p.point_id for shard in shards for p in shard]
        assert len(union) == len(set(union)) == len(points)
        assert set(union) == {p.point_id for p in points}
        for shard in shards:  # expansion order is preserved within a shard
            assert [p.index for p in shard] == sorted(p.index for p in shard)

    def test_parse_shard_accepts_k_of_n(self):
        assert parse_shard("2/4") == (2, 4)
        assert parse_shard(" 1/1 ") == (1, 1)

    @pytest.mark.parametrize("text", ["3/2", "0/2", "a/b", "2", "1/0", "1/2/3", "-1/2"])
    def test_parse_shard_rejects_nonsense(self, text):
        with pytest.raises(SweepSpecError, match="invalid shard|out of range"):
            parse_shard(text)

    def test_cli_invalid_shard_exits_2(self, tmp_path):
        path = write_spec(tmp_path, spec_data())
        assert main(["sweep", str(path), "--shard", "3/2", "--dry-run"]) == 2

    def test_cli_unreadable_spec_exits_2(self, tmp_path):
        assert main(["sweep", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", str(bad)]) == 2


# ----------------------------------------------------------------------
# Execution, merge, resume
# ----------------------------------------------------------------------
@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """A fresh result-cache directory and an empty in-process memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner.clear_cache()
    yield tmp_path / "cache"
    runner.clear_cache()


class TestRunSweep:
    def test_serial_run_writes_tables(self, tmp_path):
        spec = parse_spec(spec_data())
        points = expand(spec)
        out = tmp_path / "out"
        outcome = run_sweep(spec, points, jobs=1, out_dir=out)
        assert outcome.points_shard == outcome.points_total == len(points)
        assert len(outcome.merged_files) == 3
        assert sorted(p.name for p in out.iterdir()) == ["table.csv", "table.json", "table.md"]
        table = json.loads((out / f"{MERGED_BASENAME}.json").read_text())
        assert table["points"] == len(points)
        assert table["columns"] == [
            "point",
            "workload",
            "config",
            "branch.btb_entries",
            "frontend.pfc_enabled",
            "ipc",
            "branch_mpki",
        ]
        assert [r["point"] for r in table["rows"]] == sorted(
            r["point"] for r in table["rows"]
        )
        csv = (out / f"{MERGED_BASENAME}.csv").read_text().splitlines()
        assert csv[0] == ",".join(table["columns"])
        assert len(csv) == len(points) + 1

    def test_sharded_union_is_byte_identical_to_single_shot(self, tmp_path):
        spec = parse_spec(spec_data())
        points = expand(spec)
        single, sharded = tmp_path / "single", tmp_path / "sharded"
        run_sweep(spec, points, jobs=1, out_dir=single)
        for k in (1, 2):
            run_sweep(spec, points, shard=(k, 2), jobs=1, out_dir=sharded)
        for suffix in ("json", "csv", "md"):
            name = f"{MERGED_BASENAME}.{suffix}"
            assert (single / name).read_bytes() == (sharded / name).read_bytes()
        assert not list(sharded.glob("shard-*.json"))

    def test_merge_refuses_incomplete_cache(self, tmp_path, empty_cache):
        spec = parse_spec(spec_data())
        points = expand(spec)
        out = tmp_path / "out"
        first = run_sweep(spec, points, shard=(1, 2), jobs=1, out_dir=out)
        assert first.merged_files == [] and not out.exists()
        runner.clear_cache()  # the next shard models another process
        missing = len(points) - first.points_shard
        with pytest.raises(SweepIncomplete, match=f"{missing} of {len(points)} point"):
            merge_sweep(spec, points, out)
        assert not out.exists()
        second = run_sweep(spec, points, shard=(2, 2), jobs=1, out_dir=out)
        assert second.executed == missing and len(second.merged_files) == 3
        runner.clear_cache()
        assert merge_sweep(spec, points, out) == second.merged_files

    def test_edited_matrix_merges_only_its_points(self, tmp_path, empty_cache, capsys):
        path = write_spec(tmp_path, spec_data())
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        # Dropping an axis value leaves points the cache already holds:
        # the table is exactly the edited expansion, with no stale row.
        narrowed = spec_data(matrix={
            "branch.btb_entries": [8192],
            "frontend.pfc_enabled": [False, True],
        }, exclude=[])
        narrowed_path = write_spec(tmp_path, narrowed, "narrowed.json")
        assert main(["sweep", str(narrowed_path), "--merge", "--out", str(out)]) == 0
        table = json.loads((out / f"{MERGED_BASENAME}.json").read_text())
        assert sorted(r["point"] for r in table["rows"]) == sorted(
            p.point_id for p in expand(parse_spec(narrowed))
        )
        # A new axis value has no cached result: the merge writes nothing.
        widened = spec_data(matrix={
            "branch.btb_entries": [512, 2048, 8192],
            "frontend.pfc_enabled": [False, True],
        })
        widened_path = write_spec(tmp_path, widened, "widened.json")
        before = (out / f"{MERGED_BASENAME}.json").read_bytes()
        assert main(["sweep", str(widened_path), "--merge", "--out", str(out)]) == 1
        assert (out / f"{MERGED_BASENAME}.json").read_bytes() == before

    def test_cli_dry_run_and_merge(self, tmp_path, capsys):
        path = write_spec(tmp_path, spec_data())
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--dry-run"]) == 0
        shown = capsys.readouterr().out
        assert "6 point(s)" in shown
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        assert main(["sweep", str(path), "--merge", "--out", str(out)]) == 0
        assert (out / f"{MERGED_BASENAME}.csv").is_file()
        # The cache is the sweep's record, so a fresh directory merges too.
        fresh = tmp_path / "fresh"
        assert main(["sweep", str(path), "--merge", "--out", str(fresh)]) == 0
        for suffix in ("json", "csv", "md"):
            name = f"{MERGED_BASENAME}.{suffix}"
            assert (fresh / name).read_bytes() == (out / name).read_bytes()

    def test_stale_shard_manifest_is_inert(self, tmp_path, capsys):
        # Older versions wrote a manifest per shard beside the table; a
        # stale one left in --out must not fail an unsharded re-run.
        path = write_spec(tmp_path, spec_data())
        out = tmp_path / "out"
        out.mkdir()
        stale = out / "shard-1-of-2.json"
        stale.write_text(json.dumps({
            "spec": "tiny",
            "spec_fingerprint": load_spec(path).fingerprint(),
            "shard": 1,
            "shard_total": 2,
            "points": [],
            "rows": [],
        }))
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        assert f"wrote {out / 'table.csv'}" in capsys.readouterr().out
        assert json.loads((out / f"{MERGED_BASENAME}.json").read_text())["points"] == 6
        assert sorted(p.name for p in out.glob("shard-*.json")) == [stale.name]

    @pytest.mark.parametrize("flag", [["--shard", "1/2"], ["--merge"]], ids=["shard", "merge"])
    def test_cache_off_shard_exits_2(
        self, tmp_path, monkeypatch, caplog, repro_records, flag
    ):
        # Both read results another process made, which only the disk
        # cache carries; the merge would otherwise advise running shards
        # that exit 2 themselves.
        monkeypatch.setenv("REPRO_CACHE", "0")
        path = write_spec(tmp_path, spec_data())
        out = tmp_path / "out"
        sims = CACHE_STATS.get("sim_runs")
        with caplog.at_level(logging.ERROR, logger="repro"):
            assert main(["sweep", str(path), *flag, "--out", str(out)]) == 2
        [record] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert "REPRO_CACHE" in record.getMessage() and "\n" not in record.getMessage()
        assert CACHE_STATS.get("sim_runs") == sims and not out.exists()
        # Unsharded, the run's own results are the whole table.
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        assert json.loads((out / f"{MERGED_BASENAME}.json").read_text())["points"] == 6

    def test_cli_merge_with_empty_cache_exits_1(
        self, tmp_path, empty_cache, caplog, repro_records
    ):
        path = write_spec(tmp_path, spec_data())
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="repro"):
            assert main(["sweep", str(path), "--merge", "--out", str(out)]) == 1
        [record] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert "6 of 6 point(s)" in record.getMessage()
        assert not out.exists()

    def test_resume_after_interruption(self, tmp_path, monkeypatch, empty_cache):
        """Kill after M points; a plain re-run finishes exactly the remainder."""
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        spec = parse_spec(spec_data())
        points = expand(spec)
        out = tmp_path / "out"

        runner.run_points([(p.workload, p.params) for p in points[:2]], jobs=1)
        runner.clear_cache()  # the killed process's memo is gone
        rerun = run_sweep(spec, points, jobs=1, out_dir=out)
        assert rerun.cache_hits == 2
        assert rerun.executed == len(points) - 2
        assert len(rerun.merged_files) == 3

        ledgers = sorted((tmp_path / "ledger").glob("*.jsonl"))
        assert len(ledgers) == 2
        first, second = (read_ledger(p) for p in ledgers)
        started_first = {r["key"] for r in first if r["event"] == "started"}
        started_second = {r["key"] for r in second if r["event"] == "started"}
        assert started_first == {p.point_id for p in points[:2]}
        assert started_second == {p.point_id for p in points} - started_first
        for record in second:
            if record["event"] not in ("sweep_begin", "sweep_end"):
                assert record["shard"] == 1 and record["shard_total"] == 1
                assert record["spec"] == "tiny" and "resumed" not in record

        # The re-run's table must be byte-identical to an uninterrupted run.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        runner.clear_cache()
        clean_out = tmp_path / "clean"
        run_sweep(spec, points, jobs=1, out_dir=clean_out)
        for suffix in ("json", "csv", "md"):
            name = f"{MERGED_BASENAME}.{suffix}"
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()


# ----------------------------------------------------------------------
# Differential sweep-equivalence harness
# ----------------------------------------------------------------------
class TestEquivalenceHarness:
    def test_harness_passes_on_multi_config_spec(self, tmp_path):
        spec = parse_spec(spec_data())
        report = check_sweep_equivalence(spec, workdir=tmp_path, jobs=2)
        assert report.ok, report.all_problems()
        assert report.n_points == 6
        assert [s.name for s in report.strategies] == [
            "serial",
            "parallel",
            "shard2",
            "shard3",
            "resume",
        ]
        digests = {frozenset(s.digests.items()) for s in report.strategies}
        assert len(digests) == 1  # all five strategies byte-identical
        for strategy in report.strategies:
            assert all(n <= 1 for n in strategy.started.values())

    def test_cli_check_sweep(self, tmp_path, capsys):
        data = spec_data(
            workloads=["srv_web"],
            base={"warmup_instructions": 200, "sim_instructions": 900},
            matrix={"branch.btb_entries": [512, 8192]},
            exclude=[],
        )
        path = write_spec(tmp_path, data)
        assert main(["check", "--sweep", str(path)]) == 0
        assert "bit-identical" in capsys.readouterr().out
        assert main(["check", "--sweep", str(tmp_path / "nope.json")]) == 2

    def test_harness_turns_the_cache_on(self, tmp_path, monkeypatch):
        # The shard and resume strategies read their own runs back from
        # each strategy's private cache, whatever REPRO_CACHE says.
        monkeypatch.setenv("REPRO_CACHE", "0")
        data = spec_data(
            workloads=["srv_web"],
            base={"warmup_instructions": 200, "sim_instructions": 900},
            matrix={"branch.btb_entries": [512, 8192]},
            exclude=[],
        )
        report = check_sweep_equivalence(parse_spec(data), workdir=tmp_path, jobs=1)
        assert report.ok, report.all_problems()
        assert os.environ["REPRO_CACHE"] == "0"

    def test_clean_check_logs_no_warning(self, tmp_path, caplog, repro_records):
        # The shard and resume strategies leave the table to a later run
        # on purpose; a passing harness logs no WARNING that would read
        # like a failed sweep.
        data = spec_data(
            workloads=["srv_web"],
            base={"warmup_instructions": 200, "sim_instructions": 900},
            matrix={"branch.btb_entries": [512, 8192]},
            exclude=[],
        )
        path = write_spec(tmp_path, data)
        with caplog.at_level(logging.INFO, logger="repro"):
            assert main(["--log-level", "info", "check", "--sweep", str(path)]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []

    @pytest.mark.parametrize("flag", [["--resume"], ["--limit", "2"]], ids=["resume", "limit"])
    def test_cli_resume_and_limit_are_gone(self, tmp_path, flag, capsys):
        path = write_spec(tmp_path, spec_data())
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(path), "--out", str(tmp_path / "out"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


EXAMPLE_SPECS = Path(__file__).resolve().parents[1] / "examples" / "sweeps"


class TestExampleSpecs:
    def test_shipped_specs_parse_and_expand(self):
        """Every spec under examples/sweeps/ stays valid (expansion only)."""
        specs = sorted(EXAMPLE_SPECS.glob("*.yaml"))
        assert specs, "examples/sweeps/ should ship at least one spec"
        for path in specs:
            points = expand(load_spec(path))
            assert points
            assert len({p.point_id for p in points}) == len(points)

    def test_fig7_spec_runs_fig7_points(self, monkeypatch):
        """fig7_btb_pfc.yaml expands to exactly the points fig7 runs."""

        class Captured(Exception):
            pass

        keys = set()

        def capture(configs, workloads):
            workloads = list(workloads)
            for params in configs.values():
                keys.update(run_key(wl, runner._resolve(params)) for wl in workloads)
            raise Captured

        monkeypatch.setattr(figures, "run_matrix", capture)
        with pytest.raises(Captured):
            figures.fig7()
        points = expand(load_spec(EXAMPLE_SPECS / "fig7_btb_pfc.yaml"))
        assert {p.point_id for p in points} == keys


# ----------------------------------------------------------------------
# Fuzz property 9
# ----------------------------------------------------------------------
class TestFuzzProperty:
    def test_random_specs_satisfy_expansion_properties(self):
        for seed in range(25):
            spec = random_sweep_spec(random.Random(seed))
            assert check_spec_expansion(spec) is None, f"seed {seed}"

    def test_generator_is_seed_deterministic(self):
        a = random_sweep_spec(random.Random(42)).fingerprint()
        b = random_sweep_spec(random.Random(42)).fingerprint()
        assert a == b

    def test_run_trial_reports_property_nine(self, monkeypatch):
        """A spec-expansion violation surfaces as fuzz property 9."""
        from repro.check import build_trial
        from repro.check import sweepdiff
        from repro.check.fuzz import run_trial

        monkeypatch.setattr(
            sweepdiff, "check_spec_expansion", lambda spec: "injected violation"
        )
        failure = run_trial(build_trial(0))
        assert failure is not None
        assert failure.prop == "sweep_spec_roundtrip"
        assert "injected violation" in failure.message
