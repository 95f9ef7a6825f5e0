"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "srv_web"
        assert args.ftq == 24
        assert not args.no_pfc

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "spc_fp", "--ftq", "2", "--no-pfc",
             "--btb", "1024", "--history", "GHR2", "--prefetcher", "nl1"]
        )
        assert args.workload == "spc_fp"
        assert args.btb == 1024
        assert args.history == "GHR2"

    def test_rejects_bad_history(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--history", "XYZ"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunListFlags:
    def test_list_workloads(self, capsys):
        assert main(["run", "--list-workloads"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        assert ["srv_web", "synthetic", "server"] in rows
        assert all(len(row) == 3 for row in rows)

    def test_list_prefetchers(self, capsys):
        assert main(["run", "--list-prefetchers"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "none" in lines
        assert "perfect" in lines
        assert "eip128" in lines
        assert all(" " not in line for line in lines)

    def test_list_predictors(self, capsys):
        assert main(["run", "--list-predictors"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == sorted(["gshare", "perceptron", "perfect", "tage"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "srv_web" in out
        assert "eip128" in out
        assert "fig14" in out

    def test_run_small(self, capsys):
        code = main(
            ["run", "--workload", "spc_fp", "--warmup", "1000",
             "--instructions", "2500", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC=" in out
        assert "l1i_tag_access" in out

    def test_run_with_gshare_and_prefetcher(self, capsys):
        code = main(
            ["run", "--workload", "spc_fp", "--warmup", "1000",
             "--instructions", "2500", "--direction", "gshare",
             "--prefetcher", "nl1", "--ftq", "2"]
        )
        assert code == 0

    def test_run_perfect_direction_kind(self, tmp_path, capsys):
        run = ["run", "--workload", "srv_web", "--warmup", "1000", "--instructions", "2500"]
        kind, flag = tmp_path / "kind.json", tmp_path / "flag.json"
        assert main(run + ["--direction", "perfect", "--stats-json", str(kind)]) == 0
        assert main(run + ["--perfect-direction", "--stats-json", str(flag)]) == 0
        kind, flag = json.loads(kind.read_text()), json.loads(flag.read_text())
        assert kind["counters"] == flag["counters"]
        assert kind["cycles"] == flag["cycles"]

    def test_report_static_tables(self, capsys):
        assert main(["report", "table3", "table5"]) == 0
        out = capsys.readouterr().out
        assert "195 bytes" in out
        assert "Table V" in out

    def test_report_unknown_experiment(self, capsys):
        assert main(["report", "fig99"]) == 2


class TestCheckCommand:
    def test_catalogue_mode_clean(self, capsys):
        code = main(
            ["check", "--workloads", "spc_fp", "--warmup", "1000",
             "--instructions", "2500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spc_fp" in out and "ok" in out

    def test_rejects_unknown_workload(self):
        assert main(["check", "--workloads", "nope"]) == 2

    def test_rejects_nonpositive_fuzz_count(self):
        assert main(["check", "--fuzz", "0"]) == 2
        assert main(["check", "--fuzz", "-3"]) == 2

    def test_replay_missing_file(self):
        assert main(["check", "--replay", "/nonexistent/failure.json"]) == 2

    def test_replay_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        assert main(["check", "--replay", str(path)]) == 2

    @pytest.mark.slow
    def test_fuzz_smoke(self, capsys):
        assert main(["check", "--fuzz", "2", "--seed", "0",
                     "--parallel-every", "0"]) == 0
        assert "clean" in capsys.readouterr().out
