"""Tests for ChampSim trace ingestion and the workload-source layer.

Covers the decode pipeline (repro.trace.champsim), the source registry
(repro.trace.source), and the end-to-end contract: a trace-backed
workload runs through simulate/sweep/check exactly like a synthetic
one, bit-identically across kernels and execution strategies.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.common.params import SimParams
from repro.core.simulator import Simulator, simulate
from repro.trace.champsim import (
    CHAMPSIM_DECODER_VERSION,
    RECORD_BYTES,
    RECORD_DTYPE,
    ChampSimTrace,
    TraceFormatError,
    build_workload,
    encode_stream,
    load_decoded_prefix,
    write_champsim_trace,
)
from repro.trace.cfg import generate_program
from repro.trace.oracle import run_oracle
from repro.trace.source import (
    clear_registered_workloads,
    known_workload_names,
    register_workload,
    registered_workloads,
    resolve_workload,
    trace_name_for_path,
    unregister_workload,
)
from repro.trace.workloads import make_trace
from tests.conftest import tiny_spec

GOLDEN = Path(__file__).parent / "data" / "golden.champsim.xz"


def small_stream(n: int = 4_000, seed: int = 7):
    program = generate_program(tiny_spec(), seed=seed)
    return run_oracle(program, n, seed=11)


def small_trace_file(tmp_path: Path, name: str = "web1.champsim.xz", n: int = 4_000):
    stream = small_stream(n)
    return write_champsim_trace(tmp_path / name, stream), stream


def fast() -> SimParams:
    return SimParams(warmup_instructions=1_000, sim_instructions=2_500)


def structure(stream):
    """Comparable structural identity of a committed stream."""
    return [
        (s.start, s.n_instrs, s.next_start, tuple(s.branches))
        for s in stream.segments
    ]


# ----------------------------------------------------------------------
# Naming and registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_trace_name_strips_known_suffixes(self):
        assert trace_name_for_path("/x/srv.web1.champsim.xz") == "srv.web1"
        assert trace_name_for_path("a/b/foo.trace.gz") == "foo"
        assert trace_name_for_path("bare.champsim") == "bare"
        assert trace_name_for_path("other.bin") == "other"

    def test_catalogue_names_are_reserved(self, tmp_path):
        path, _ = small_trace_file(tmp_path)
        with pytest.raises(ValueError, match="reserved"):
            register_workload(ChampSimTrace(str(path), name="srv_web"))

    def test_reregistering_identical_source_is_noop(self, tmp_path):
        path, _ = small_trace_file(tmp_path)
        first = register_workload(ChampSimTrace(str(path)))
        second = register_workload(ChampSimTrace(str(path)))
        assert second is first

    def test_rebinding_name_requires_replace(self, tmp_path):
        path_a, _ = small_trace_file(tmp_path, "w.champsim.xz", n=3_000)
        path_b, _ = small_trace_file(tmp_path, "other.champsim.xz", n=4_000)
        register_workload(ChampSimTrace(str(path_a), name="w"))
        with pytest.raises(ValueError, match="replace=True"):
            register_workload(ChampSimTrace(str(path_b), name="w"))
        rebound = register_workload(ChampSimTrace(str(path_b), name="w"), replace=True)
        assert resolve_workload("w") is rebound

    def test_path_lookup_autoregisters(self, tmp_path):
        path, _ = small_trace_file(tmp_path)
        source = resolve_workload(str(path))
        assert source.name == "web1"
        assert source.category == "trace"
        assert source.source_kind == "champsim"
        assert resolve_workload("web1") is source
        assert "web1" in known_workload_names()
        assert unregister_workload("web1")
        assert not unregister_workload("web1")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="srv_web"):
            resolve_workload("no_such_workload")

    def test_env_traces_scan(self, tmp_path, monkeypatch):
        path, _ = small_trace_file(tmp_path, "envwl.champsim.xz")
        monkeypatch.setenv("REPRO_TRACES", str(path))
        clear_registered_workloads()
        assert [s.name for s in registered_workloads()] == ["envwl"]

    def test_env_traces_directory_scan(self, tmp_path, monkeypatch):
        small_trace_file(tmp_path, "aa.champsim.xz", n=3_000)
        small_trace_file(tmp_path, "bb.trace.gz", n=3_000)
        (tmp_path / "ignored.txt").write_text("not a trace")
        monkeypatch.setenv("REPRO_TRACES", str(tmp_path))
        clear_registered_workloads()
        assert [s.name for s in registered_workloads()] == ["aa", "bb"]

    def test_env_traces_missing_entry_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACES", str(tmp_path / "nope.champsim.xz"))
        clear_registered_workloads()
        with pytest.raises(FileNotFoundError, match="REPRO_TRACES"):
            registered_workloads()


# ----------------------------------------------------------------------
# Decode errors (satellite: pinpoint messages)
# ----------------------------------------------------------------------
class TestDecodeErrors:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.champsim"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="empty trace"):
            load_decoded_prefix(path, 100, use_cache=False)

    def test_truncated_file(self, tmp_path):
        records = encode_stream(small_stream(500))
        blob = records.tobytes()[:-7]  # shear 7 bytes off the last record
        path = tmp_path / "cut.champsim"
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError, match=r"truncated trace: 57 trailing byte"):
            load_decoded_prefix(path, len(records), use_cache=False)

    def test_corrupt_record_is_pinpointed(self, tmp_path):
        records = encode_stream(small_stream(500)).copy()
        records[123]["is_branch"] = 7
        path = tmp_path / "bad.champsim"
        path.write_bytes(records.tobytes())
        with pytest.raises(TraceFormatError, match=r"corrupt record #123"):
            load_decoded_prefix(path, len(records), use_cache=False)

    def test_corrupt_record_index_is_absolute_across_chunks(self, tmp_path):
        records = encode_stream(small_stream(500)).copy()
        records[200]["ip"] = 0
        path = tmp_path / "bad2.champsim"
        path.write_bytes(records.tobytes())
        with pytest.raises(TraceFormatError, match=r"corrupt record #200"):
            load_decoded_prefix(path, len(records), chunk_records=64, use_cache=False)

    def test_corrupt_compressed_stream(self, tmp_path):
        path = tmp_path / "garbage.champsim.xz"
        path.write_bytes(b"\xfd7zXZ\x00" + b"\x00" * 64)
        with pytest.raises(TraceFormatError, match="compressed stream error"):
            load_decoded_prefix(path, 10, use_cache=False)

    def test_window_longer_than_trace(self, tmp_path):
        path, _ = small_trace_file(tmp_path, n=3_000)
        source = ChampSimTrace(str(path))
        with pytest.raises(TraceFormatError, match="usable instruction"):
            source.materialize(50_000)

    def test_too_short_for_any_stream(self, tmp_path):
        records = encode_stream(small_stream(500))[:1]
        path = tmp_path / "one.champsim"
        path.write_bytes(records.tobytes())
        prefix = load_decoded_prefix(path, 10, use_cache=False)
        with pytest.raises(TraceFormatError, match="at least 2 records"):
            build_workload(prefix, 1)


# ----------------------------------------------------------------------
# Chunked decode and the artifact cache
# ----------------------------------------------------------------------
class TestChunking:
    def test_chunk_boundary_branch_is_seamless(self, tmp_path):
        """A taken branch straddling a chunk boundary decodes identically."""
        path, _ = small_trace_file(tmp_path, n=2_000)
        whole = ChampSimTrace(str(path)).materialize(1_200)[1]
        chunked = ChampSimTrace(str(path), name="web1c", chunk_records=64).materialize(1_200)[1]
        assert structure(chunked) == structure(whole)

    def test_decode_artifacts_cache_hit_on_second_load(self, tmp_path):
        from repro.experiments.cache import CACHE_STATS

        path, _ = small_trace_file(tmp_path, n=2_000)
        before = CACHE_STATS.as_dict().get("trace_records_decoded", 0)
        ChampSimTrace(str(path)).materialize(1_200)
        decoded_once = CACHE_STATS.as_dict().get("trace_records_decoded", 0)
        assert decoded_once > before
        # A brand-new source object for the same file: chunks served
        # from the artifact store, zero records re-decoded.
        ChampSimTrace(str(path)).materialize(1_200)
        after = CACHE_STATS.as_dict()
        assert after.get("trace_records_decoded", 0) == decoded_once
        assert after.get("trace_chunk_hit", 0) >= 1

    def test_prefix_extension_redecodes(self, tmp_path):
        """Asking for a longer window than the cached prefix re-decodes."""
        path, _ = small_trace_file(tmp_path, n=3_500)
        short = load_decoded_prefix(path, 512, chunk_records=256)
        assert len(short) == 512 and not short.complete
        longer = load_decoded_prefix(path, 3_000, chunk_records=256)
        assert len(longer) >= 3_000
        assert np.array_equal(longer.ips[:512], short.ips)

    def test_cache_disabled_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path, _ = small_trace_file(tmp_path, n=2_000)
        ChampSimTrace(str(path)).materialize(1_000)
        assert not (tmp_path / "cache" / "traces").exists()

    def test_cache_info_and_clear_cover_trace_artifacts(self, tmp_path, monkeypatch):
        from repro.experiments.cache import ResultCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path, _ = small_trace_file(tmp_path, n=2_000)
        ChampSimTrace(str(path)).materialize(1_000)
        cache = ResultCache()
        info = cache.info()
        assert info["trace_files"] > 0
        assert info["trace_bytes"] > 0
        cache.clear()
        info = cache.info()
        assert info["trace_files"] == 0 and info["trace_bytes"] == 0


# ----------------------------------------------------------------------
# Round-trip and determinism
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("suffix", ["champsim", "champsim.gz", "champsim.xz"])
    def test_encode_decode_preserves_structure(self, tmp_path, suffix):
        stream = small_stream(3_000)
        path = write_champsim_trace(tmp_path / f"rt.{suffix}", stream)
        n = stream.total_instructions - 1  # final record only carries a target
        prefix = load_decoded_prefix(path, n + 1, use_cache=False)
        _program, decoded, anomalies = build_workload(prefix, n)
        assert decoded.total_instructions == n
        # The synthetic encoder emits unambiguous patterns: a clean
        # round-trip reconstructs every branch without anomalies.
        assert anomalies == {
            "pseudo_branches": 0,
            "kind_conflicts": 0,
            "demoted_direct": 0,
            "not_taken_discontinuities": 0,
        }
        got = [
            (kind, taken) for s in decoded.segments for _a, kind, taken, _t in s.branches
        ]
        want = [
            (kind, taken) for s in stream.segments for _a, kind, taken, _t in s.branches
        ]
        assert got == want[: len(got)]
        assert len(want) - len(got) <= 1
        assert [s.n_instrs for s in decoded.segments][:-1] == [
            s.n_instrs for s in stream.segments
        ][: len(decoded.segments) - 1]

    def test_materialize_is_deterministic(self, tmp_path):
        path, _ = small_trace_file(tmp_path, n=3_000)
        first = ChampSimTrace(str(path)).materialize(1_500)[1]
        second = ChampSimTrace(str(path)).materialize(1_500)[1]
        assert structure(first) == structure(second)

    def test_expected_stream_matches_materialized(self, tmp_path):
        path, _ = small_trace_file(tmp_path, n=3_000)
        source = ChampSimTrace(str(path))
        _program, stream = source.materialize(1_500)
        assert structure(source.expected_stream(1_500)) == structure(stream)

    def test_record_layout_is_champsim(self):
        assert RECORD_DTYPE.itemsize == RECORD_BYTES == 64
        rec = encode_stream(small_stream(200))[0]
        assert int(rec["ip"]) != 0


# ----------------------------------------------------------------------
# The golden fixture end to end
# ----------------------------------------------------------------------
class TestGoldenFixture:
    def test_fixture_is_committed_and_small(self):
        assert GOLDEN.is_file()
        assert GOLDEN.stat().st_size < 100_000

    def test_resolves_by_path(self):
        source = resolve_workload(str(GOLDEN))
        assert source.name == "golden"
        assert source.source_kind == "champsim"
        info = source.info()
        assert info["decoder_version"] == CHAMPSIM_DECODER_VERSION
        assert info["bytes"] == GOLDEN.stat().st_size
        assert len(info["digest"]) == 64

    def test_runs_through_simulate(self):
        result = simulate(str(GOLDEN), fast())
        assert result.workload == "golden"
        assert result.instructions >= 2_500
        assert result.cycles > 0

    def test_interp_and_typed_kernels_bit_identical(self):
        params = fast()
        n = params.warmup_instructions + params.sim_instructions
        program, stream = make_trace(str(GOLDEN), n)
        typed_sim = Simulator(params, program, stream)
        typed = typed_sim.run("golden")
        interp = Simulator(params, program, stream).run("golden", reference=True)
        assert typed_sim.kernel_backend != "interp"
        assert typed.cycles == interp.cycles
        assert typed.instructions == interp.instructions
        assert typed.stats.as_dict() == interp.stats.as_dict()

    def test_differential_check_passes(self):
        from repro.check.differential import check_workload

        report = check_workload(str(GOLDEN.parent / GOLDEN.name), fast())
        assert report.branches_checked > 0
        assert report.committed_instructions >= 3_500

    def test_fingerprint_derives_from_content(self, tmp_path):
        from repro.experiments.cache import run_key, workload_fingerprint

        fp = workload_fingerprint(str(GOLDEN))
        assert fp == workload_fingerprint(ChampSimTrace(str(GOLDEN)))
        assert fp != workload_fingerprint("srv_web")
        # A byte-identical copy under another path keys the same runs.
        copy = tmp_path / "copy.champsim.xz"
        copy.write_bytes(GOLDEN.read_bytes())
        assert workload_fingerprint(ChampSimTrace(str(copy))) == fp
        assert run_key(str(GOLDEN), fast()) == run_key(ChampSimTrace(str(GOLDEN)), fast())

    def test_workload_info_cli(self, capsys):
        from repro.cli import main

        assert main(["workload", "info", str(GOLDEN)]) == 0
        out = capsys.readouterr().out
        assert "workload: golden" in out
        assert "source:   champsim" in out
        assert "footprint:" in out
        assert "COND_DIRECT" in out

    def test_workload_info_cli_synthetic(self, capsys):
        from repro.cli import main

        assert main(["workload", "info", "spc_fp", "--instructions", "2000"]) == 0
        out = capsys.readouterr().out
        assert "source:   synthetic" in out

    def test_workload_info_cli_unknown(self):
        from repro.cli import main

        assert main(["workload", "info", "nope"]) == 2

    def test_list_workloads_shows_trace_source(self, capsys):
        from repro.cli import main

        register_workload(ChampSimTrace(str(GOLDEN)))
        assert main(["run", "--list-workloads"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        assert ["golden", "champsim", "trace"] in rows


# ----------------------------------------------------------------------
# Sweeps: specs, serial/parallel identity
# ----------------------------------------------------------------------
class TestTraceSweeps:
    def spec_data(self):
        return {
            "sweep": "trace-smoke",
            "workloads": [{"name": "golden", "trace": str(GOLDEN)}],
            "base": {"warmup_instructions": 1_000, "sim_instructions": 2_500},
            "matrix": {"frontend.ftq_entries": [2, 24]},
            "output": {"metrics": ["ipc"]},
        }

    def test_spec_accepts_trace_entries_and_roundtrips(self):
        from repro.experiments.spec import expand, parse_spec

        spec = parse_spec(self.spec_data())
        assert spec.workloads == ("golden",)
        assert spec.traces == (("golden", str(GOLDEN)),)
        assert parse_spec(spec.to_dict()) == spec
        points = expand(spec)
        assert [p.workload for p in points] == ["golden", "golden"]

    def test_spec_accepts_bare_trace_paths(self):
        from repro.experiments.spec import parse_spec

        data = self.spec_data()
        data["workloads"] = [str(GOLDEN), "srv_web"]
        spec = parse_spec(data)
        assert spec.workloads == ("golden", "srv_web")

    def test_spec_rejects_missing_trace_file(self, tmp_path):
        from repro.experiments.spec import SweepSpecError, parse_spec

        data = self.spec_data()
        data["workloads"] = [{"name": "w", "trace": str(tmp_path / "gone.champsim.xz")}]
        with pytest.raises(SweepSpecError, match="does not exist"):
            parse_spec(data)

    def test_spec_rejects_unknown_entry_keys(self):
        from repro.experiments.spec import SweepSpecError, parse_spec

        data = self.spec_data()
        data["workloads"] = [{"trace": str(GOLDEN), "seed": 3}]
        with pytest.raises(SweepSpecError, match="unknown workload-entry"):
            parse_spec(data)

    def test_serial_and_parallel_runs_bit_identical(self, monkeypatch):
        from repro.experiments.runner import clear_cache, run_points

        monkeypatch.setenv("REPRO_CACHE", "0")  # force real simulations
        register_workload(ChampSimTrace(str(GOLDEN)))
        points = [
            ("golden", fast().with_frontend(ftq_entries=2)),
            ("golden", fast().with_frontend(ftq_entries=24)),
        ]
        clear_cache()
        serial = run_points(points, jobs=1)
        clear_cache()
        parallel = run_points(points, jobs=2)
        assert serial.keys() == parallel.keys()
        for key, result in serial.items():
            other = parallel[key]
            assert other.cycles == result.cycles
            assert other.instructions == result.instructions
            assert other.stats.as_dict() == result.stats.as_dict()

    def test_evaluation_workloads_accepts_trace_paths(self, monkeypatch):
        from repro.experiments.configs import evaluation_workloads

        monkeypatch.setenv("REPRO_WORKLOADS", f"srv_web,{GOLDEN}")
        assert evaluation_workloads() == ["srv_web", "golden"]

    def test_manifest_records_workload_source(self, monkeypatch, tmp_path):
        from repro.experiments.cache import ResultCache, build_manifest, run_key

        register_workload(ChampSimTrace(str(GOLDEN)))
        result = simulate("golden", fast())
        manifest = build_manifest(run_key("golden", fast()), result)
        assert manifest["workload_source"] == "champsim"
        assert manifest["workload_category"] == "trace"
        assert manifest["workload_fingerprint"]
