"""Tests for the two-level BTB hierarchy (repro.branch.btb2l)."""

import pytest

from repro.branch.btb import BTB
from repro.branch.btb2l import TwoLevelBTB
from repro.isa.instructions import BranchKind


def make(l1=16, l2=64, extra=2):
    return TwoLevelBTB(l1, 4, l2, 4, extra)


class TestConstruction:
    def test_rejects_l1_not_smaller(self):
        with pytest.raises(ValueError):
            TwoLevelBTB(64, 4, 64, 4)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            TwoLevelBTB(16, 4, 64, 4, l2_extra_latency=-1)

    def test_capacity(self):
        assert make().n_entries == 80


class TestHierarchy:
    def test_insert_lands_in_both_levels(self):
        btb = make()
        btb.insert(0x4000, BranchKind.UNCOND_DIRECT, 0x8000)
        assert btb.l1.contains(0x4000)
        assert btb.l2.contains(0x4000)
        assert btb.contains(0x4000)

    def test_l1_hit_not_flagged(self):
        btb = make()
        btb.insert(0x4000, BranchKind.UNCOND_DIRECT, 0x8000)
        assert btb.scan_block(0x4000, 0x4000) != []
        assert not btb.was_l2_sourced(0x4000)

    def test_l2_hit_flagged_and_promoted(self):
        btb = make()
        btb.l2.insert(0x4000, BranchKind.UNCOND_DIRECT, 0x8000)
        assert btb.scan_block(0x4000, 0x4000) != []
        assert btb.was_l2_sourced(0x4000)
        assert btb.l1.contains(0x4000)

    def test_promotion_flag_cleared_on_l1_hit(self):
        btb = make()
        btb.l2.insert(0x4000, BranchKind.UNCOND_DIRECT, 0x8000)
        btb.scan_block(0x4000, 0x4000)
        btb.scan_block(0x4000, 0x4000)  # now an L1 hit
        assert not btb.was_l2_sourced(0x4000)

    def test_demotion_on_l1_eviction(self):
        btb = TwoLevelBTB(8, 2, 64, 4)  # 4 L1 sets x 2 ways
        span = btb.l1.n_sets * 16
        addrs = [0x4000 + i * span for i in range(2)]  # fill one L1 set
        for a in addrs:
            btb.l1.insert(a, BranchKind.UNCOND_DIRECT, 0x100)
        # Insert through the hierarchy: the L1 victim falls back to L2.
        btb.insert(0x4000 + 2 * span, BranchKind.UNCOND_DIRECT, 0x100)
        assert all(btb.contains(a) for a in addrs)

    def test_scan_block_merges_levels(self):
        btb = make()
        btb.l1.insert(0x4004, BranchKind.COND_DIRECT, 0x100)
        btb.l2.insert(0x4010, BranchKind.RETURN, 0)
        found = btb.scan_block(0x4000, 0x401C)
        assert [e.addr for e in found] == [0x4004, 0x4010]
        assert not btb.was_l2_sourced(0x4004)
        assert btb.was_l2_sourced(0x4010)

    def test_invalidate_both_levels(self):
        btb = make()
        btb.insert(0x4000, BranchKind.RETURN, 0)
        assert btb.invalidate(0x4000)
        assert not btb.contains(0x4000)


class TestSingleLevelInterface:
    def test_plain_btb_never_l2_sourced(self):
        btb = BTB(64, 4)
        btb.insert(0x4000, BranchKind.RETURN, 0)
        btb.scan_block(0x4000, 0x4000)
        assert not btb.was_l2_sourced(0x4000)


class TestSimulatorIntegration:
    def test_two_level_runs_and_charges_latency(self):
        from repro.common.params import SimParams
        from repro.core.simulator import simulate

        p = SimParams(warmup_instructions=2_000, sim_instructions=6_000).with_branch(
            btb_l1_entries=64, btb_l2_extra_latency=3
        )
        r = simulate("srv_web", p)
        assert r.instructions > 0
        # A 64-entry L1 in front of a server branch footprint must spill.
        assert r.stats.get("btb_l2_taken_predictions") > 0
