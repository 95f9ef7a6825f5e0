"""Functional fast-forward warmup and precompiled fetch-block metadata.

Pins the two invariants the fast-warmup design leans on:

* the measurement boundary is exact -- warmup counters are stashed in
  ``warmup_stats`` and every measured counter starts from zero;
* functional warmup is a faithful stand-in for cycle-accurate warmup --
  measured IPC agrees within 2% on every catalogue workload.

Plus the block-metadata compilation: the flat arrays must encode
exactly what a brute-force walk over the program image finds.
"""

import pytest

from repro.common.params import SimParams
from repro.common.telemetry import Telemetry, TelemetryConfig
from repro.core.simulator import Simulator, simulate
from repro.experiments.runner import resolve_warmup_mode
from repro.trace.fbmeta import (
    PD_COND,
    PD_INDIRECT,
    PD_PCREL_UNCOND,
    PD_RETURN,
    FetchBlockMeta,
)
from repro.trace.workloads import default_workloads, make_trace

ALL_WORKLOADS = [w.name for w in default_workloads()]


def fast(**overrides):
    return SimParams(warmup_instructions=2_000, sim_instructions=5_000, **overrides)


class TestWarmupModeParam:
    def test_default_is_auto(self):
        assert SimParams().warmup_mode == "auto"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SimParams(warmup_mode="fast")

    def test_explicit_modes_accepted(self):
        for mode in ("auto", "cycle", "functional"):
            assert SimParams(warmup_mode=mode).warmup_mode == mode


class TestResolveWarmupMode:
    def test_auto_resolves_to_functional(self):
        assert resolve_warmup_mode(fast()).warmup_mode == "functional"

    def test_explicit_mode_passes_through(self):
        for mode in ("cycle", "functional"):
            p = fast(warmup_mode=mode)
            assert resolve_warmup_mode(p) is p

    def test_modes_get_distinct_cache_keys(self):
        from repro.experiments.cache import run_key

        cyc = run_key("srv_web", fast(warmup_mode="cycle"))
        fun = run_key("srv_web", fast(warmup_mode="functional"))
        assert cyc != fun


class TestMeasurementBoundary:
    def _run(self, workload="srv_web", telemetry=None):
        params = fast(warmup_mode="functional")
        n = params.warmup_instructions + params.sim_instructions
        program, stream = make_trace(workload, n)
        sim = Simulator(params, program, stream, telemetry=telemetry)
        result = sim.run(workload_name=workload)
        return params, sim, result

    def test_warmup_stats_stashed(self):
        params, sim, _ = self._run()
        assert sim.warmup_stats is not None
        assert (
            sim.warmup_stats.get("committed_instructions")
            == params.warmup_instructions
        )

    def test_measured_counters_start_from_zero(self):
        # Retirement is chunk-granular, so the measured window can only
        # overshoot the target by less than one retire-width.
        params, sim, result = self._run()
        retire = params.core.retire_width
        assert (
            params.sim_instructions
            <= result.instructions
            < params.sim_instructions + retire
        )
        assert result.stats.get("committed_instructions") == result.instructions

    def test_measured_cycles_start_from_zero(self):
        _, sim, result = self._run()
        assert sim._measure_start_cycle == 0
        assert result.cycles == sim.cycle

    def test_telemetry_buckets_sum_to_cycles(self):
        # Every measured cycle lands in exactly one cyc_* bucket, even
        # when the cycle loop starts at the measurement boundary.
        tel = Telemetry(TelemetryConfig())
        _, _, result = self._run(telemetry=tel)
        accounting = tel.accounting()
        assert sum(accounting.values()) == result.cycles


class TestFetchBlockMeta:
    def test_matches_brute_force_walk(self):
        program, _ = make_trace("srv_web", 7_000)
        meta = program.fetch_meta()
        walked = []
        for addr in range(program.code_start, program.code_end, 4):
            instr = program.instruction_at(addr)
            if instr is not None:
                walked.append((instr.addr, instr.kind, instr.target))
        assert list(meta.triples) == walked
        assert list(meta.addrs) == [a for a, _, _ in walked]
        assert list(meta.kinds) == [k for _, k, _ in walked]
        assert list(meta.targets) == [t for _, _, t in walked]
        assert list(meta.addrs) == sorted(meta.addrs)

    def test_predecode_classes(self):
        program, _ = make_trace("srv_web", 7_000)
        meta = program.fetch_meta()
        for kind, cls in zip(meta.kinds, meta.pd_class):
            if kind.is_conditional:
                assert cls == PD_COND
            elif kind.is_pc_relative:
                assert cls == PD_PCREL_UNCOND
            elif kind.is_return:
                assert cls == PD_RETURN
            else:
                assert cls == PD_INDIRECT

    def test_memoised_per_program(self):
        program, _ = make_trace("srv_web", 7_000)
        assert program.fetch_meta() is program.fetch_meta()
        assert isinstance(program.fetch_meta(), FetchBlockMeta)


class TestFunctionalMatchesCycleWarmup:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_measured_ipc_within_2_percent(self, workload):
        params = SimParams(warmup_instructions=10_000, sim_instructions=25_000)
        cycle = simulate(workload, params.replace(warmup_mode="cycle"))
        func = simulate(workload, params.replace(warmup_mode="functional"))
        assert func.ipc == pytest.approx(cycle.ipc, rel=0.02)
