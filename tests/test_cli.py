"""Tests for the command-line interface (repro.cli)."""

import json
import logging
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import build_parser, main

COMMITTED_RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture
def archive(tmp_path, monkeypatch):
    """Point ``repro report``'s archive at a temporary directory."""
    monkeypatch.setattr(cli, "RESULTS_DIR", tmp_path)
    return tmp_path


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

    def test_rejects_unknown_prefetcher(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--prefetcher", "nl2"])
        assert exc.value.code == 2
        assert "invalid choice: 'nl2'" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


def listed(capsys) -> dict[str, list[str]]:
    """Run ``repro list``; return each section's entries by section name.

    Workload rows are indented lines under ``workloads:``, one per
    workload; every other section is one ``name: a b c`` line.
    """
    assert main(["list"]) == 0
    sections: dict[str, list[str]] = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  "):
            sections["workloads"].append(line.strip())
        else:
            name, _, rest = line.partition(":")
            sections[name] = rest.split()
    return sections


class TestListCommand:
    def test_list_workloads(self, capsys):
        rows = [row.split() for row in listed(capsys)["workloads"]]
        assert ["srv_web", "synthetic", "server"] in rows
        assert all(len(row) == 3 for row in rows)

    def test_list_prefetchers(self, capsys):
        names = listed(capsys)["prefetchers"]
        assert "none" in names
        assert "perfect" in names
        assert "eip128" in names

    def test_list_predictors(self, capsys):
        names = listed(capsys)["predictors"]
        assert names == sorted(["gshare", "perceptron", "perfect", "tage"])


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

    def test_report_stdout_is_archived_text(self, capsys, archive):
        assert main(["report", "table3"]) == 0
        captured = capsys.readouterr()
        text = (archive / "table3.txt").read_text()
        assert captured.out == text
        assert text.splitlines()[-1] == (
            "paper reference: total=195 bytes, pfc_hints=24 bytes"
        )
        # Wall time and the cache summary stay off stdout.
        assert "[table3 done in " in captured.err
        assert "[cache: " in captured.err

    def test_report_static_tables(self, capsys, archive):
        # The static tables need no simulation, so their archives must
        # equal the committed ones byte for byte.
        names = ["table1", "table3", "table4", "table5"]
        assert main(["report", *names]) == 0
        texts = [(archive / f"{name}.txt").read_text() for name in names]
        for name in names:
            assert (archive / f"{name}.txt").read_bytes() == (
                COMMITTED_RESULTS / f"{name}.txt"
            ).read_bytes(), name
        out = capsys.readouterr().out
        assert out == "\n".join(texts)
        assert "195 bytes" in out
        assert "Table V" in out

    def test_report_plot_stays_off_archive(self, capsys, archive, monkeypatch):
        data = {"title": "T", "headers": ["config", "gain %"], "rows": [["a", 1.5], ["b", 3.0]]}
        monkeypatch.setitem(cli.ALL_EXPERIMENTS, "toy", lambda: data)
        assert main(["report", "toy", "--plot"]) == 0
        out = capsys.readouterr().out
        text = (archive / "toy.txt").read_text()
        assert "#" not in text
        assert out.startswith(text) and "#" in out[len(text):]

    def test_report_unknown_experiment(self, capsys, archive):
        assert main(["report", "fig99"]) == 2
        assert not list(archive.iterdir())

    def test_cache_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "info"]) == 0
        info_text = capsys.readouterr().out
        assert str(tmp_path) in info_text
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out


WINDOW = ["--warmup", "1000", "--instructions", "2500"]

BAD_WORKLOAD_COMMANDS = {
    "run": ["run", *WINDOW, "--workload"],
    "trace": ["trace", *WINDOW, "--out", "{out}", "--workload"],
    "profile": ["profile", *WINDOW, "--workload"],
    "check": ["check", *WINDOW, "--workloads"],
    "workload-info": ["workload", "info"],
}
"""Each command that takes one workload, as argv with the workload last."""


class TestBadWorkload:
    """An unknown workload name or a malformed trace file exits 2 with
    one error line, never a traceback."""

    def _run(self, command, workload, tmp_path, caplog):
        argv = [a.format(out=tmp_path / "out") for a in BAD_WORKLOAD_COMMANDS[command]]
        with caplog.at_level(logging.ERROR, logger="repro"):
            assert main([*argv, workload]) == 2
        [record] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert record.exc_info is None
        assert "\n" not in record.getMessage()
        return record.getMessage()

    # ``check`` and ``workload info`` name-check up front; their unknown
    # names are covered in TestCheckCommand and tests/test_champsim.py.
    @pytest.mark.parametrize("command", ["run", "trace", "profile"])
    def test_unknown_name(self, command, tmp_path, caplog, repro_records):
        message = self._run(command, "nope", tmp_path, caplog)
        assert "nope" in message

    @pytest.mark.parametrize("command", BAD_WORKLOAD_COMMANDS)
    def test_junk_trace_file(self, command, tmp_path, caplog, repro_records):
        junk = tmp_path / "junk.champsim"
        junk.write_bytes(bytes(range(35)))
        message = self._run(command, str(junk), tmp_path, caplog)
        assert "junk.champsim" in message and "truncated" in message


class TestBadFlagValue:
    """A flag value the parameters reject exits 2 with one error line
    naming the problem, before anything is simulated."""

    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            (["run", *WINDOW, "--ftq", "1"], "FTQ"),
            (["run", *WINDOW, "--btb", "0"], "BTB"),
            (["run", "--warmup", "1000", "--instructions", "0"], "instruction windows"),
            (["trace", *WINDOW, "--out", "{out}", "--stride", "0"], "interval_stride"),
            (["trace", *WINDOW, "--out", "{out}", "--events", "0"], "ring_capacity"),
            (["profile", *WINDOW, "--max-taken", "0"], "max_taken_per_cycle"),
            (["check", "--workloads", "srv_web", "--instructions", "0"], "instruction windows"),
            (["check", "--workloads", "srv_web", "--warmup", "-5"], "instruction windows"),
        ],
        ids=[
            "run-ftq", "run-btb", "run-instructions", "trace-stride", "trace-events", "profile",
            "check-instructions", "check-warmup",
        ],
    )
    def test_one_line_and_exit_2(self, argv, expected, tmp_path, caplog, repro_records, capsys):
        argv = [a.format(out=tmp_path / "out") for a in argv]
        with caplog.at_level(logging.ERROR, logger="repro"):
            assert main(argv) == 2
        [record] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert record.exc_info is None and "\n" not in record.getMessage()
        assert expected in record.getMessage()
        assert capsys.readouterr().out == ""  # nothing simulated
        assert not (tmp_path / "out").exists()


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
