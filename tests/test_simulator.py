"""End-to-end simulator tests (repro.core.simulator)."""

import time

import pytest

from repro.common.params import DirectionPredictorKind, HistoryPolicy, SimParams
from repro.core.simulator import Simulator, simulate
from repro.trace.cfg import generate_program
from repro.trace.oracle import run_oracle
from repro.trace.workloads import make_trace
from tests.conftest import tiny_spec

#: A deliberately conservative floor on simulated instructions per
#: second -- the cycle loop runs at tens of thousands of
#: instructions/sec even on loaded CI machines.  Throughput itself is
#: measured end to end and per layer by ``perfbench/``.
MIN_INSTRS_PER_SEC = 2_000


def fast(**kw):
    return SimParams(warmup_instructions=1_500, sim_instructions=4_000, **kw)


@pytest.fixture(scope="module")
def trace():
    program = generate_program(tiny_spec(n_functions=40, functions_per_phase=12), seed=21)
    stream = run_oracle(program, 10_000, seed=22)
    return program, stream


def run(trace, params):
    program, stream = trace
    return Simulator(params, program, stream).run("tiny")


class TestBasicRun:
    def test_commits_requested_window(self, trace):
        # The window boundary lands on a retire group, so the measured
        # count can undershoot by at most one retire width.
        r = run(trace, fast())
        assert r.instructions >= 4_000 - r.params.core.retire_width
        assert r.cycles > 0
        assert 0 < r.ipc <= 6.0

    def test_deterministic(self, trace):
        a = run(trace, fast())
        b = run(trace, fast())
        assert a.cycles == b.cycles
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_rejects_short_stream(self):
        program = generate_program(tiny_spec(), seed=3)
        stream = run_oracle(program, 500, seed=3)
        with pytest.raises(ValueError):
            Simulator(SimParams(warmup_instructions=10_000, sim_instructions=10_000), program, stream)

    def test_stats_windowed(self, trace):
        """Measured stats must exclude warmup activity."""
        short = run(trace, fast())
        # committed_instructions in the window ~ sim_instructions.
        committed = short.stats.get("committed_instructions")
        assert abs(committed - short.instructions) <= 8


class TestArchitecturalEffects:
    def test_fdp_beats_no_fdp(self, trace):
        fdp = run(trace, fast())
        base = run(trace, fast().with_frontend(ftq_entries=2, pfc_enabled=False))
        assert fdp.ipc > base.ipc

    def test_perfect_prefetch_at_least_as_good(self, trace):
        base = run(trace, fast().with_frontend(ftq_entries=2, pfc_enabled=False))
        perfect = run(
            trace,
            fast().with_frontend(ftq_entries=2, pfc_enabled=False).replace(prefetcher="perfect"),
        )
        assert perfect.ipc >= base.ipc

    def test_perfect_all_has_no_mispredicts(self, trace):
        r = run(
            trace,
            fast().with_branch(perfect_btb=True, direction_kind="perfect", perfect_indirect=True),
        )
        assert r.stats.get("branch_mispredictions") == 0

    def test_mispredict_penalty_hurts(self, trace):
        small = run(trace, fast().with_core(mispredict_penalty=5))
        big = run(trace, fast().with_core(mispredict_penalty=40))
        assert small.ipc > big.ipc

    def test_pfc_reduces_mispredicts_with_small_btb(self, trace):
        base = fast().with_branch(btb_entries=256)
        off = run(trace, base.with_frontend(pfc_enabled=False))
        on = run(trace, base.with_frontend(pfc_enabled=True))
        assert on.stats.get("branch_mispredictions") < off.stats.get("branch_mispredictions")

    def test_bigger_l1i_fewer_misses(self, trace):
        small = run(trace, fast().with_memory(l1i_kib=4))
        big = run(trace, fast().with_memory(l1i_kib=64))
        assert big.stats.get("l1i_miss") <= small.stats.get("l1i_miss")


class TestConfigurations:
    @pytest.mark.parametrize("policy", list(HistoryPolicy))
    def test_all_history_policies_run(self, trace, policy):
        r = run(trace, fast().with_frontend(history_policy=policy))
        assert r.instructions > 0

    @pytest.mark.parametrize(
        "prefetcher",
        [
            "none", "nl1", "eip27", "eip128", "fnl_mma", "djolt", "rdip",
            "sn4l_dis", "sn4l_dis_btb", "profile_guided", "perfect",
        ],
    )
    def test_all_prefetchers_run(self, trace, prefetcher):
        r = run(trace, fast().replace(prefetcher=prefetcher))
        assert r.instructions > 0

    def test_gshare_runs(self, trace):
        r = run(trace, fast().with_branch(direction_kind=DirectionPredictorKind.GSHARE))
        assert r.instructions > 0

    def test_unknown_prefetcher_rejected(self, trace):
        with pytest.raises(ValueError):
            run(trace, fast().replace(prefetcher="warp_drive"))

    def test_bandwidth_variants_run(self, trace):
        for width, taken in ((6, 1), (18, 1), (18, 2)):
            r = run(trace, fast().with_frontend(predict_width=width, max_taken_per_cycle=taken))
            assert r.instructions > 0


class TestStatInvariants:
    def test_mispredict_breakdown_sums(self, trace):
        r = run(trace, fast())
        total = r.stats.get("branch_mispredictions")
        parts = sum(
            r.stats.get(f"mispredict_{k}")
            for k in ("pred_taken_wrong", "wrong_target", "dir_nt", "btb_miss")
        )
        assert total == parts

    def test_tag_accesses_at_least_misses(self, trace):
        r = run(trace, fast())
        assert r.stats.get("l1i_tag_access") >= r.stats.get("l1i_miss")

    def test_miss_exposure_only_counts_misses(self, trace):
        r = run(trace, fast())
        classified = sum(r.miss_exposure().values())
        assert classified <= r.stats.get("l1i_miss") + r.stats.get("mshr_stall")

    def test_no_wrong_path_commits(self, trace):
        """Wrong-path chunks must be flushed before reaching commit."""
        r = run(trace, fast())
        assert r.stats.get("wrong_path_consumed") == 0


class TestSimulateHelper:
    def test_simulate_by_name(self):
        r = simulate("spc_fp", SimParams(warmup_instructions=1_000, sim_instructions=2_000))
        assert r.workload == "spc_fp"
        assert r.instructions >= 2_000 - r.params.core.retire_width


class TestThroughputFloor:
    def test_functional_warmup_meets_floor(self):
        params = SimParams(
            warmup_instructions=1_000, sim_instructions=2_500, warmup_mode="functional"
        )
        n = params.warmup_instructions + params.sim_instructions
        program, stream = make_trace("spc_fp", n)  # untimed: setup, not simulation
        sim = Simulator(params, program, stream)
        t0 = time.perf_counter()
        sim.run(workload_name="spc_fp")
        wall = time.perf_counter() - t0
        # The rate counts the functional warmup's instructions too.
        assert n / wall > MIN_INSTRS_PER_SEC
