"""Tests for the workload catalogue (repro.trace.workloads)."""

import dataclasses
import gc
import types
from pathlib import Path

import pytest

from repro.trace.champsim import ChampSimTrace, TraceFormatError
from repro.trace.workloads import (
    TRACE_SLACK,
    WorkloadSpec,
    default_workloads,
    make_trace,
    workload_by_name,
)
from tests.conftest import tiny_spec


class TestCatalogue:
    def test_eight_workloads_three_categories(self):
        workloads = default_workloads()
        assert len(workloads) == 8
        assert {w.category for w in workloads} == {"server", "client", "spec"}

    def test_names_unique(self):
        names = [w.name for w in default_workloads()]
        assert len(names) == len(set(names))

    def test_lookup_by_name(self):
        assert workload_by_name("srv_web").category == "server"

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            workload_by_name("srv_missing")

    def test_rejects_bad_category(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", "desktop", tiny_spec(), 1, 2)


class TestMakeTrace:
    def test_includes_slack(self):
        _, stream = make_trace("spc_fp", 5_000)
        assert stream.total_instructions >= 5_000 + TRACE_SLACK

    def test_cached_identity(self):
        a = make_trace("spc_fp", 5_000)
        b = make_trace("spc_fp", 5_000)
        assert a[0] is b[0] and a[1] is b[1]

    def test_accepts_spec_object(self):
        wl = workload_by_name("spc_fp")
        program, stream = make_trace(wl, 5_000)
        assert program.footprint_bytes > 0

    def test_deterministic_across_lengths(self):
        """A longer trace extends, not perturbs, a shorter one."""
        _, short = make_trace("spc_fp", 3_000)
        _, long = make_trace("spc_fp", 6_000)
        n = min(200, len(short.segments) - 1)
        assert [(s.start, s.n_instrs) for s in short.segments[:n]] == [
            (s.start, s.n_instrs) for s in long.segments[:n]
        ]


GOLDEN_CHAMPSIM = Path(__file__).parent / "data" / "golden.champsim.xz"


def _unregistered(name: str, source_name: str = "srv_web"):
    """A catalogue shape under a fresh name: never memoised, so cold."""
    return dataclasses.replace(workload_by_name(source_name), name=name)


@pytest.fixture
def collector_enabled():
    """Run with the cyclic collector on; restore the caller's state."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.usefixtures("collector_enabled")
class TestCollectorPause:
    """``make_trace`` builds with the cyclic collector paused."""

    @pytest.mark.parametrize("memoised", [True, False], ids=["memoised", "unregistered"])
    def test_no_collection_inside_cold_materialisation(self, memoised):
        source = "srv_web" if memoised else _unregistered("gc_pause_probe")
        make_trace("clt_browser", 5_000)  # not the first trace of the process
        starts = []

        def on_gc(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(on_gc)
        try:
            # A window no other test asks for, so the name memo is cold.
            make_trace(source, 85_001)
        finally:
            gc.callbacks.remove(on_gc)
        assert starts == []
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self):
        gc.disable()
        make_trace(_unregistered("gc_disabled_probe", "spc_fp"), 3_000)
        assert not gc.isenabled()

    def test_failed_materialisation_reenables_collector(self, tmp_path):
        junk = tmp_path / "junk.champsim"
        junk.write_bytes(bytes(range(35)))
        with pytest.raises(TraceFormatError, match="truncated"):
            make_trace(str(junk), 1_000)
        assert gc.isenabled()

    def test_materialisation_leaves_no_repro_cyclic_garbage(self):
        """Nothing relies on the collector the pause defers: building a
        catalogue shape, a fuzz spec and the golden ChampSim trace (twice,
        so the second decode reads the chunk cache) creates no cycle of
        ``repro`` objects."""
        from repro.check.fuzz import build_trial

        trial = build_trial(3)
        fuzz_shape = dataclasses.replace(
            workload_by_name("spc_fp"),
            name="gc_fuzz_probe",
            program_spec=trial.spec,
            program_seed=trial.program_seed,
            oracle_seed=trial.oracle_seed,
        )
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for source in (
                _unregistered("gc_garbage_probe", "clt_browser"),
                fuzz_shape,
                ChampSimTrace(str(GOLDEN_CHAMPSIM)),
                ChampSimTrace(str(GOLDEN_CHAMPSIM)),
            ):
                make_trace(source, 1_000)
                source.expected_stream(1_000)
            gc.collect()
            leaked = [
                obj
                for obj in gc.garbage
                if (
                    obj.__module__
                    if isinstance(obj, (type, types.FunctionType))
                    else type(obj).__module__
                ).startswith("repro")
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


class TestCategoryCharacter:
    def test_server_footprint_exceeds_l1i(self):
        for name in ("srv_web", "srv_db", "srv_cache"):
            program, stream = make_trace(name, 60_000)
            lines = set()
            for seg in stream.segments:
                addr = seg.start
                for i in range(seg.n_instrs):
                    lines.add((addr + 4 * i) & ~63)
            assert len(lines) * 64 > 32 * 1024, name

    def test_spec_smaller_than_server(self):
        srv, _ = make_trace("srv_web", 20_000)
        spc, _ = make_trace("spc_int_a", 20_000)
        assert spc.footprint_bytes < srv.footprint_bytes


@pytest.mark.slow
class TestSelectionRule:
    def test_perfect_icache_uplift_exceeds_5_percent(self):
        """The paper only keeps workloads whose perfect-I-cache uplift
        exceeds 5% (Section V); our catalogue must satisfy the same."""
        from repro.common.params import SimParams
        from repro.core.simulator import simulate

        base = SimParams(warmup_instructions=10_000, sim_instructions=25_000).with_frontend(
            ftq_entries=2, pfc_enabled=False
        )
        perfect = base.replace(prefetcher="perfect")
        for wl in default_workloads():
            r0 = simulate(wl.name, base)
            r1 = simulate(wl.name, perfect)
            assert r1.ipc / r0.ipc > 1.05, wl.name
