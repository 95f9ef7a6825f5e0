"""Tests for the TAGE direction predictor (repro.branch.tage)."""

import itertools
import random

import pytest

from repro.branch.history import HistoryManager
from repro.branch.tage import TAGE, TageConfig
from repro.common.bits import fold
from repro.common.params import HistoryPolicy


def make_tage(kib=18, hist=260):
    return TAGE(TageConfig.for_budget_kib(kib, hist))


class TestConfig:
    def test_history_lengths_geometric(self):
        cfg = TageConfig.for_budget_kib(18)
        lengths = cfg.history_lengths()
        assert lengths[0] == cfg.min_history
        assert lengths[-1] == cfg.max_history
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_budget_scaling(self):
        assert (
            TageConfig.for_budget_kib(9).storage_bits()
            < TageConfig.for_budget_kib(18).storage_bits()
            < TageConfig.for_budget_kib(36).storage_bits()
        )

    def test_storage_near_budget(self):
        bits = TageConfig.for_budget_kib(18).storage_bits()
        assert 14 * 1024 * 8 <= bits <= 24 * 1024 * 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TageConfig(0, 1024, 8192, 10, 4, 260)
        with pytest.raises(ValueError):
            TageConfig(4, 1000, 8192, 10, 4, 260)
        with pytest.raises(ValueError):
            TageConfig(4, 1024, 8192, 10, 100, 50)

    def test_single_table_lengths(self):
        cfg = TageConfig(1, 1024, 8192, 10, 4, 64)
        assert cfg.history_lengths() == [64]


class TestLearning:
    def test_unseen_branch_defaults_not_taken(self):
        assert make_tage().predict(0x4000, 0) is False

    def test_learns_always_taken(self):
        tage = make_tage()
        for _ in range(8):
            tage.update(0x4000, 0, True)
        assert tage.predict(0x4000, 0) is True

    def test_learns_always_not_taken(self):
        tage = make_tage()
        for _ in range(8):
            tage.update(0x4000, 0, False)
        assert tage.predict(0x4000, 0) is False

    def test_learns_history_correlated_pattern(self):
        """Deterministically interleaved patterned branches: >90% accuracy."""
        tage = make_tage()
        mgr = HistoryManager(HistoryPolicy.THR, 260)
        branches = []
        for i in range(20):
            pattern = itertools.cycle([(j % (2 + i % 4)) != 0 for j in range(2 + i % 4)])
            branches.append((0x4000 + 32 * i, pattern))
        hist = 0
        correct = total = 0
        for it in range(8000):
            pc, cyc = branches[it % len(branches)]
            taken = next(cyc)
            pred = tage.predict(pc, hist)
            tage.update(pc, hist, taken)
            if it > 2000:
                total += 1
                correct += pred == taken
            if taken:
                hist = mgr.push_taken(hist, pc, pc + 64)
        assert correct / total > 0.9

    def test_allocation_happens_on_mispredict(self):
        tage = make_tage()
        # alternate outcomes under distinct histories
        tage.update(0x4000, 0, True)
        tage.update(0x4000, 0, False)
        assert tage.allocations > 0

    def test_counters_track(self):
        tage = make_tage()
        tage.predict(0x4000, 0)
        tage.update(0x4000, 0, True)
        assert tage.predictions >= 1 and tage.updates == 1


class TestHistorySensitivity:
    def test_same_pc_different_history_can_differ(self):
        tage = make_tage()
        h1, h2 = 0b1010, 0b0101
        for _ in range(12):
            tage.update(0x4000, h1, True)
            tage.update(0x4000, h2, False)
        assert tage.predict(0x4000, h1) is True
        assert tage.predict(0x4000, h2) is False


class TestFoldMemo:
    @staticmethod
    def direct(tage, hist):
        ib, tb = tage._idx_bits, tage._tag_bits
        return [
            f for m in tage._hist_masks for f in (fold(hist & m, ib), fold((hist & m) * 3, tb))
        ]

    def test_only_short_tables_memoise(self):
        tage = TAGE(TageConfig.for_budget_kib(18))
        assert tage.lengths == [4, 7, 13, 24, 43, 79, 143, 260]
        memoised = [memo is not None for _, memo in tage._fold_plan]
        assert memoised == [True, True, True] + [False] * 5

    def test_folds_match_direct_formula_after_memos_fill(self):
        tage = TAGE(TageConfig.for_budget_kib(18))
        rng = random.Random(7)
        # Histories sharing their low bits revisit the short tables'
        # memos with new long-table bits, so memoised and freshly folded
        # pairs mix in one result.
        hists = [rng.getrandbits(260) for _ in range(300)]
        hists += [(rng.getrandbits(250) << 10) | (h & 0x3FF) for h in hists]
        for hist in hists:
            assert list(tage._folds(hist)) == self.direct(tage, hist)
        assert all(memo for _, memo in tage._fold_plan[:3])
        tage._fold_store.clear()  # force the memo path, not the stored rows
        for hist in hists:
            assert list(tage._folds(hist)) == self.direct(tage, hist)
