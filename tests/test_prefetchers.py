"""Unit tests for the prefetcher zoo (repro.prefetch)."""

import pytest

from repro.branch.btb import BTB
from repro.common.params import SimParams
from repro.common.stats import StatSet
from repro.isa.instructions import BranchKind, Instruction
from repro.memory.hierarchy import InstructionMemory
from repro.prefetch import PREFETCHERS, prefetcher_names
from repro.prefetch.base import MAX_ISSUE_PER_CYCLE, Prefetcher
from repro.prefetch.djolt import DJoltPrefetcher
from repro.prefetch.eip import EIP27, EIP128, EIPPrefetcher
from repro.prefetch.fnl_mma import FNLMMAPrefetcher
from repro.prefetch.next_line import NextLinePrefetcher
from repro.prefetch.sn4l_dis_btb import SN4LDisBTBPrefetcher, SN4LDisPrefetcher
from tests.conftest import make_program


def make_ctx(program=None):
    params = SimParams()
    stats = StatSet()
    memory = InstructionMemory(params.memory, stats)
    btb = BTB(256, 4)
    return params, memory, btb, program or make_program({}), stats


def build(cls, program=None, **kw):
    params, memory, btb, prog, stats = make_ctx(program)
    return cls(params, memory, btb, prog, stats, **kw), memory, btb, stats


class TestRegistry:
    def test_names(self):
        assert "nl1" in prefetcher_names()
        assert "eip128" in prefetcher_names()

    def test_create(self):
        pf, *_ = build(PREFETCHERS["nl1"])
        assert isinstance(pf, NextLinePrefetcher)

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown prefetcher 'nope'"):
            SimParams(prefetcher="nope")


class TestBase:
    def test_enqueue_dedup(self):
        pf, memory, _, _ = build(Prefetcher)
        pf.enqueue(0x1000)
        pf.enqueue(0x1010)  # same line
        assert pf.pending == 1

    def test_cycle_issue_budget(self):
        pf, memory, _, stats = build(Prefetcher)
        for i in range(10):
            pf.enqueue(0x1000 + 64 * i)
        pf.cycle(0)
        assert stats.get("prefetch_issued") == MAX_ISSUE_PER_CYCLE
        assert pf.pending == 10 - MAX_ISSUE_PER_CYCLE

    def test_reenqueue_after_drain(self):
        pf, *_ = build(Prefetcher)
        pf.enqueue(0x1000)
        pf.cycle(0)
        pf.enqueue(0x1000)
        assert pf.pending == 1


class TestNextLine:
    def test_prefetches_next_on_miss(self):
        pf, *_ = build(NextLinePrefetcher)
        pf.on_access(0x1000, hit=False, cycle=0)
        assert pf.pending == 1
        assert pf._queue[0] == 0x1040

    def test_no_prefetch_on_hit(self):
        pf, *_ = build(NextLinePrefetcher)
        pf.on_access(0x1000, hit=True, cycle=0)
        assert pf.pending == 0


class TestEIP:
    def test_entangles_and_issues(self):
        pf, *_ = build(EIPPrefetcher)
        # Build an access pattern: source at 0x0, miss at 0xF000.
        for i in range(12):
            pf.on_access(0x0 + 64 * i, hit=True, cycle=i)
        pf.on_access(0xF000, hit=False, cycle=20)
        # On re-access of the entangled sources, 0xF000 is prefetched.
        pf._queue.clear()
        pf._queued.clear()
        pf.on_access(0x0, hit=True, cycle=30)
        assert 0xF000 in pf._queue

    def test_next_line_component(self):
        pf, *_ = build(EIPPrefetcher)
        pf.on_access(0x2000, hit=False, cycle=0)
        assert 0x2040 in pf._queue

    def test_capacity_bounded(self):
        pf, *_ = build(EIPPrefetcher, budget_kib=1)
        for i in range(10_000):
            pf.on_access(0x100000 + 64 * i, hit=False, cycle=i)
        assert len(pf._table) <= pf.capacity

    def test_budget_variants(self):
        e27, *_ = build(EIP27)
        e128, *_ = build(EIP128)
        assert e128.capacity > e27.capacity
        assert e128.storage_bits() > e27.storage_bits()

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            build(EIPPrefetcher, budget_kib=0)


class TestFNLMMA:
    def test_footprint_learned_and_issued(self):
        pf, *_ = build(FNLMMAPrefetcher)
        # Access line then its successor a few times -> footprint bit.
        for _ in range(2):
            pf.on_access(0x3000, hit=True, cycle=0)
            pf.on_access(0x3040, hit=True, cycle=1)
        pf._queue.clear()
        pf._queued.clear()
        pf.on_access(0x3000, hit=True, cycle=2)
        assert 0x3040 in pf._queue

    def test_mma_links_distant_misses(self):
        pf, *_ = build(FNLMMAPrefetcher, miss_distance=2)
        misses = [0x10000, 0x20000, 0x30000, 0x40000]
        for i, line in enumerate(misses):
            pf.on_access(line, hit=False, cycle=i)
        # Miss[0] should be linked to miss[2].
        assert pf._mma.get(0x10000) == 0x30000
        pf._queue.clear()
        pf._queued.clear()
        pf.on_access(0x10000, hit=False, cycle=10)
        assert 0x30000 in pf._queue

    def test_storage_bits(self):
        pf, *_ = build(FNLMMAPrefetcher)
        assert pf.storage_bits() > 0


class TestDJolt:
    def test_signature_changes_on_call(self):
        pf, *_ = build(DJoltPrefetcher)
        sig0 = pf.signature
        pf.on_commit_branch(0x4000, BranchKind.CALL_DIRECT, True, 0x8000)
        assert pf.signature != sig0

    def test_non_call_branches_ignored(self):
        pf, *_ = build(DJoltPrefetcher)
        sig0 = pf.signature
        pf.on_commit_branch(0x4000, BranchKind.COND_DIRECT, True, 0x8000)
        pf.on_commit_branch(0x4000, BranchKind.RETURN, True, 0x8000)
        assert pf.signature == sig0

    def test_misses_recorded_and_jolted(self):
        pf, *_ = build(DJoltPrefetcher)
        pf.on_commit_branch(0x4000, BranchKind.CALL_DIRECT, True, 0x8000)
        pf.on_access(0xA000, hit=False, cycle=0)
        pf.on_access(0xB000, hit=False, cycle=1)
        pf._queue.clear()
        pf._queued.clear()
        # Recreate the same call context.
        pf._call_fifo.clear()
        pf._sig_history.clear()
        pf._sig_history.append(0)
        pf.on_commit_branch(0x4000, BranchKind.CALL_DIRECT, True, 0x8000)
        assert 0xA000 in pf._queue and 0xB000 in pf._queue


class TestSN4LDis:
    def test_usefulness_filter_gates_next_lines(self):
        pf, *_ = build(SN4LDisPrefetcher)
        # Cold: nothing useful yet, no prefetches.
        pf.on_access(0x5000, hit=True, cycle=0)
        assert pf.pending == 0
        # A miss within 4 lines of a recent access trains usefulness.
        pf.on_access(0x5080, hit=False, cycle=1)
        pf._queue.clear()
        pf._queued.clear()
        pf.on_access(0x5000, hit=True, cycle=2)
        assert 0x5080 in pf._queue

    def test_discontinuity_recorded(self):
        pf, *_ = build(SN4LDisPrefetcher)
        pf.on_access(0x5000, hit=False, cycle=0)
        pf.on_access(0x9000, hit=False, cycle=1)  # non-sequential miss pair
        assert pf._dis.get(0x5000) == 0x9000
        pf._queue.clear()
        pf._queued.clear()
        pf.on_access(0x5000, hit=True, cycle=2)
        assert 0x9000 in pf._queue

    def test_sequential_miss_pair_not_discontinuity(self):
        pf, *_ = build(SN4LDisPrefetcher)
        pf.on_access(0x5000, hit=False, cycle=0)
        pf.on_access(0x5040, hit=False, cycle=1)
        assert 0x5000 not in pf._dis


class TestBTBPrefetch:
    def test_fill_installs_pc_relative_branches(self):
        program = make_program(
            {
                0x6000: Instruction(0x6000, BranchKind.COND_DIRECT, 0x7000, 0),
                0x6010: Instruction(0x6010, BranchKind.INDIRECT),
                0x6020: Instruction(0x6020, BranchKind.CALL_DIRECT, 0x9000),
            }
        )
        pf, memory, btb, stats = build(SN4LDisBTBPrefetcher, program=program)
        pf.on_fill(0x6000, cycle=0, was_prefetch=False)
        assert btb.contains(0x6000)
        assert btb.contains(0x6020)
        # Register-indirect branches cannot be prefetched (Section VI-E).
        assert not btb.contains(0x6010)
        assert stats.get("btb_prefetch_inserts") == 2

    def test_plain_variant_does_not_touch_btb(self):
        program = make_program(
            {0x6000: Instruction(0x6000, BranchKind.COND_DIRECT, 0x7000, 0)}
        )
        pf, memory, btb, _ = build(SN4LDisPrefetcher, program=program)
        pf.on_fill(0x6000, cycle=0, was_prefetch=False)
        assert not btb.contains(0x6000)
