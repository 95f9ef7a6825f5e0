"""Cross-module integration and property tests.

Drives the full simulator over randomly generated tiny programs and
checks invariants that must hold for *any* program: committed stream
fidelity, stat consistency, determinism, and architectural orderings
(perfect structures never hurt, penalties never help).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.params import HistoryPolicy, SimParams
from repro.core.simulator import Simulator
from repro.trace.cfg import generate_program
from repro.trace.oracle import run_oracle
from tests.conftest import tiny_spec


def build(seed, **spec_overrides):
    program = generate_program(tiny_spec(**spec_overrides), seed=seed)
    stream = run_oracle(program, 6_000, seed=seed + 1)
    return program, stream


def fast(**kw):
    return SimParams(warmup_instructions=1_000, sim_instructions=3_500, **kw)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2_000))
def test_simulator_invariants_for_random_programs(seed):
    program, stream = build(seed)
    sim = Simulator(fast(), program, stream)
    result = sim.run("rand")

    # The backend committed exactly the oracle prefix.
    assert sim.backend.committed == sim.trainer.committed
    assert result.instructions > 0

    # Wrong-path work never commits.
    assert result.stats.get("wrong_path_consumed") == 0

    # Mispredict classification is exhaustive.
    total = result.stats.get("branch_mispredictions")
    parts = sum(
        result.stats.get(f"mispredict_{k}")
        for k in ("pred_taken_wrong", "wrong_target", "dir_nt", "btb_miss")
    )
    assert total == parts

    # Cycle accounting is sane.
    assert result.cycles >= result.instructions / (
        result.params.core.retire_width + 0.001
    ) - 2


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2_000))
def test_commit_stream_fidelity(seed):
    """Every committed instruction advances the oracle exactly in order."""
    program, stream = build(seed)
    sim = Simulator(fast(), program, stream)
    sim.run("rand")
    trainer = sim.trainer
    # The trainer's cursor sits within the stream and its committed count
    # equals the cumulative prefix it has walked.
    assert trainer.committed == stream.cumulative[trainer.seg_idx] + trainer.pos


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1_000))
def test_perfect_structures_never_increase_mispredicts(seed):
    program, stream = build(seed)
    real = Simulator(fast(), program, stream).run("r")
    oracle = Simulator(
        fast().with_branch(perfect_btb=True, direction_kind="perfect", perfect_indirect=True),
        program,
        stream,
    ).run("o")
    assert oracle.stats.get("branch_mispredictions") <= real.stats.get("branch_mispredictions")
    assert oracle.stats.get("branch_mispredictions") == 0


class TestCrossConfigOrderings:
    @pytest.fixture(scope="class")
    def trace(self):
        return build(99, n_functions=30, functions_per_phase=10)

    def test_deeper_ftq_not_slower(self, trace):
        program, stream = trace
        shallow = Simulator(fast().with_frontend(ftq_entries=4), program, stream).run("s")
        deep = Simulator(fast().with_frontend(ftq_entries=24), program, stream).run("d")
        assert deep.ipc >= shallow.ipc * 0.98  # allow tiny noise

    def test_wrong_path_ablation_reduces_traffic(self, trace):
        program, stream = trace
        on = Simulator(fast(), program, stream).run("on")
        off = Simulator(fast().with_frontend(wrong_path_fills=False), program, stream).run("off")
        assert off.stats.get("l1i_tag_access") <= on.stats.get("l1i_tag_access")

    def test_history_policies_all_commit_same_stream(self, trace):
        program, stream = trace
        counts = set()
        for policy in HistoryPolicy:
            sim = Simulator(fast().with_frontend(history_policy=policy), program, stream)
            sim.run("p")
            counts.add(sim.backend.committed)
        assert len(counts) == 1

    def test_prefetchers_do_not_change_commit_stream(self, trace):
        program, stream = trace
        counts = set()
        for pf in ("none", "nl1", "fnl_mma", "perfect"):
            sim = Simulator(fast().replace(prefetcher=pf), program, stream)
            sim.run("p")
            counts.add(sim.backend.committed)
        assert len(counts) == 1

    def test_slower_memory_never_faster(self, trace):
        program, stream = trace
        quick = Simulator(fast(), program, stream).run("q")
        slow = Simulator(
            fast().with_memory(l2_latency=40, dram_latency=400), program, stream
        ).run("s")
        assert slow.cycles >= quick.cycles

    def test_two_level_btb_commits_same_stream(self, trace):
        program, stream = trace
        flat = Simulator(fast(), program, stream)
        flat.run("f")
        two = Simulator(fast().with_branch(btb_l1_entries=128), program, stream)
        two.run("t")
        assert flat.backend.committed == two.backend.committed
