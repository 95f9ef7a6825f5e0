"""Tests for the oracle interpreter (repro.trace.oracle)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import BranchKind
from repro.trace.cfg import generate_program
from repro.trace.oracle import OracleStream, Segment, run_oracle
from tests.conftest import tiny_spec


def segment_by_search_loop(cumulative: list[int], n: int) -> int:
    """The hand-written binary search ``segment_at_instruction`` used
    before it called :func:`bisect.bisect_right`: the reference model."""
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if cumulative[mid] <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.fixture(scope="module")
def trace():
    program = generate_program(tiny_spec(), seed=7)
    return program, run_oracle(program, 5_000, seed=11)


class TestSegments:
    def test_instruction_count_reaches_target(self, trace):
        _, stream = trace
        assert stream.total_instructions >= 5_000
        assert stream.total_instructions == sum(s.n_instrs for s in stream.segments)

    def test_segments_link(self, trace):
        _, stream = trace
        for a, b in zip(stream.segments, stream.segments[1:]):
            assert a.next_start == b.start

    def test_taken_terminators(self, trace):
        _, stream = trace
        for seg in stream.segments[:-1]:
            taken = seg.taken_branch
            assert taken is not None
            addr, kind, is_taken, target = taken
            assert is_taken
            assert addr == seg.end
            assert target == seg.next_start

    def test_branch_addresses_inside_segment(self, trace):
        _, stream = trace
        for seg in stream.segments:
            for addr, _, _, _ in seg.branches:
                assert seg.start <= addr <= seg.end
                assert (addr - seg.start) % 4 == 0

    def test_intermediate_branches_not_taken(self, trace):
        _, stream = trace
        for seg in stream.segments:
            for addr, kind, taken, _ in seg.branches[:-1]:
                assert not taken
                assert kind is BranchKind.COND_DIRECT

    def test_branches_match_static_image(self, trace):
        program, stream = trace
        for seg in stream.segments:
            for addr, kind, _, _ in seg.branches:
                instr = program.instruction_at(addr)
                assert instr is not None and instr.kind == kind

    def test_non_branch_slots_have_no_branch_instances(self, trace):
        program, stream = trace
        for seg in stream.segments[:50]:
            recorded = {a for a, _, _, _ in seg.branches}
            addr = seg.start
            while addr <= seg.end:
                if program.instruction_at(addr) is not None:
                    assert addr in recorded
                else:
                    assert addr not in recorded
                addr += 4

    def test_call_return_balance(self, trace):
        """Returns never outnumber calls at any prefix (explicit stack)."""
        _, stream = trace
        depth = 0
        for seg in stream.segments:
            for _, kind, taken, _ in seg.branches:
                if not taken:
                    continue
                if kind.is_call:
                    depth += 1
                elif kind.is_return:
                    depth -= 1
                assert depth >= 0

    def test_counts_consistent(self, trace):
        _, stream = trace
        branches = sum(len(s.branches) for s in stream.segments)
        taken = sum(1 for s in stream.segments for b in s.branches if b[2])
        assert stream.total_branches == branches
        assert stream.total_taken == taken


class TestCumulativeIndex:
    def test_cumulative_monotone(self, trace):
        _, stream = trace
        cum = stream.cumulative
        assert cum[0] == 0
        assert all(a < b for a, b in zip(cum, cum[1:]))

    def test_segment_at_instruction(self, trace):
        _, stream = trace
        for n in (0, 1, 100, 2_500, stream.total_instructions - 1):
            idx = stream.segment_at_instruction(n)
            assert stream.cumulative[idx] <= n
            assert n < stream.cumulative[idx] + stream.segments[idx].n_instrs

    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=30),
        st.integers(min_value=-3, max_value=1_300),
    )
    def test_segment_at_instruction_matches_search_loop(self, sizes, n):
        # Zero-length segments repeat a cumulative value; an empty list
        # is an empty stream.
        segments = [Segment(start=0x1000, n_instrs=size) for size in sizes]
        stream = OracleStream(segments, sum(sizes), 0, 0)
        assert stream.segment_at_instruction(n) == segment_by_search_loop(stream.cumulative, n)


class TestDeterminism:
    def test_same_seed_identical(self):
        program = generate_program(tiny_spec(), seed=9)
        a = run_oracle(program, 3_000, seed=5)
        b = run_oracle(program, 3_000, seed=5)
        assert [(s.start, s.n_instrs, s.next_start) for s in a.segments] == [
            (s.start, s.n_instrs, s.next_start) for s in b.segments
        ]

    def test_different_oracle_seed_differs(self):
        program = generate_program(tiny_spec(), seed=9)
        a = run_oracle(program, 3_000, seed=5)
        b = run_oracle(program, 3_000, seed=6)
        assert [(s.start, s.n_instrs) for s in a.segments] != [
            (s.start, s.n_instrs) for s in b.segments
        ]

    def test_rerun_resets_behaviours(self):
        program = generate_program(tiny_spec(), seed=9)
        a = run_oracle(program, 3_000, seed=5)
        # Second run on the same program object must match (behaviour
        # state is reset internally).
        b = run_oracle(program, 3_000, seed=5)
        assert a.total_taken == b.total_taken


class TestValidation:
    def test_rejects_nonpositive_window(self):
        program = generate_program(tiny_spec(), seed=1)
        with pytest.raises(ValueError):
            run_oracle(program, 0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_oracle_terminates_and_links_for_any_seed(seed):
    program = generate_program(tiny_spec(), seed=seed)
    stream = run_oracle(program, 2_000, seed=seed + 1)
    assert stream.total_instructions >= 2_000
    for a, b in zip(stream.segments, stream.segments[1:]):
        assert a.next_start == b.start
