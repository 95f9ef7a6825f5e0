"""Unit tests for repro.common.params."""

import pytest

from repro.common.params import (
    BranchPredictorParams,
    CoreParams,
    DirectionPredictorKind,
    FrontendParams,
    HistoryPolicy,
    MemoryParams,
    SimParams,
)
from repro.experiments.cache import _canonical


class TestHistoryPolicy:
    def test_thr_is_target_history(self):
        assert HistoryPolicy.THR.uses_target_history
        assert not HistoryPolicy.GHR0.uses_target_history

    def test_allocation_policies(self):
        assert not HistoryPolicy.THR.allocates_all_branches
        assert not HistoryPolicy.GHR0.allocates_all_branches
        assert HistoryPolicy.GHR1.allocates_all_branches
        assert not HistoryPolicy.GHR2.allocates_all_branches
        assert HistoryPolicy.GHR3.allocates_all_branches

    def test_fixup_policies(self):
        fixers = {p for p in HistoryPolicy if p.fixes_not_taken_history}
        assert fixers == {HistoryPolicy.GHR2, HistoryPolicy.GHR3}


class TestBranchPredictorParams:
    def test_defaults_valid(self):
        p = BranchPredictorParams()
        assert p.btb_entries % p.btb_assoc == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchPredictorParams(btb_entries=100, btb_assoc=3)

    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            BranchPredictorParams(btb_latency=0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            BranchPredictorParams(btb_entries=-4)

    def test_direction_kind_string_coerced(self):
        p = BranchPredictorParams(direction_kind="gshare")
        assert p.direction_kind is DirectionPredictorKind.GSHARE

    def test_rejects_unknown_direction_kind(self):
        with pytest.raises(
            ValueError,
            match=r"unknown direction predictor 'tagee'; known: gshare, perceptron, perfect, tage$",
        ):
            BranchPredictorParams(direction_kind="tagee")

    def test_history_policy_string_coerced(self):
        f = FrontendParams(history_policy="GHR2")
        assert f.history_policy is HistoryPolicy.GHR2

    def test_rejects_unknown_history_policy(self):
        with pytest.raises(
            ValueError,
            match=r"unknown history policy 'thr2'; known: GHR0, GHR1, GHR2, GHR3, Ideal, THR$",
        ):
            FrontendParams(history_policy="thr2")


class TestFrontendParams:
    def test_fdp_enabled_by_depth(self):
        assert FrontendParams(ftq_entries=24).fdp_enabled
        assert not FrontendParams(ftq_entries=2).fdp_enabled

    def test_instrs_per_block(self):
        assert FrontendParams(block_bytes=32).instrs_per_block == 8
        assert FrontendParams(block_bytes=16).instrs_per_block == 4

    def test_rejects_tiny_ftq(self):
        with pytest.raises(ValueError):
            FrontendParams(ftq_entries=1)

    def test_rejects_odd_block(self):
        with pytest.raises(ValueError):
            FrontendParams(block_bytes=24)

    def test_rejects_small_decode_queue(self):
        with pytest.raises(ValueError):
            FrontendParams(fetch_width=6, decode_queue_size=4)


class TestMemoryParams:
    def test_line_counts(self):
        m = MemoryParams(l1i_kib=32, line_bytes=64)
        assert m.l1i_lines == 512

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            MemoryParams(line_bytes=48)


class TestCoreParams:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            CoreParams(retire_width=0)

    def test_rejects_zero_penalty(self):
        with pytest.raises(ValueError):
            CoreParams(mispredict_penalty=0)


class TestSimParams:
    def test_hashable_for_caching(self):
        a = SimParams()
        b = SimParams()
        assert hash(a) == hash(b)
        assert a == b

    def test_with_helpers_do_not_mutate(self):
        base = SimParams()
        derived = base.with_branch(btb_entries=1024)
        assert base.branch.btb_entries == 8192
        assert derived.branch.btb_entries == 1024

    def test_with_frontend(self):
        p = SimParams().with_frontend(ftq_entries=4)
        assert p.frontend.ftq_entries == 4

    def test_with_memory(self):
        p = SimParams().with_memory(l1i_kib=64)
        assert p.memory.l1i_kib == 64

    def test_with_core(self):
        p = SimParams().with_core(mispredict_penalty=20)
        assert p.core.mispredict_penalty == 20

    def test_replace_prefetcher(self):
        p = SimParams().replace(prefetcher="nl1")
        assert p.prefetcher == "nl1"

    def test_rejects_unknown_prefetcher(self):
        with pytest.raises(
            ValueError, match=r"unknown prefetcher 'nl2'; known: none, perfect, djolt, "
        ):
            SimParams(prefetcher="nl2")
        for name in ("none", "perfect", "nl1"):
            assert SimParams(prefetcher=name).prefetcher == name

    def test_label_contains_key_facts(self):
        p = SimParams()
        label = p.label()
        assert "fdp" in label and "THR" in label and "btb8k" in label
        assert "nofdp" in p.with_frontend(ftq_entries=2).label()

    def test_label_names_btb_size(self):
        p = SimParams()
        labels = {
            entries: p.with_branch(btb_entries=entries).label().rsplit("/", 1)[1]
            for entries in (256, 512, 1536, 1024, 32768)
        }
        assert labels == {
            256: "btb256",
            512: "btb512",
            1536: "btb1536",
            1024: "btb1k",
            32768: "btb32k",
        }
        assert p.with_branch(perfect_btb=True).label().endswith("/btbperfect")

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            SimParams(sim_instructions=0)
        with pytest.raises(ValueError):
            SimParams(warmup_instructions=-1)

    def test_direction_kind_enum(self):
        p = SimParams().with_branch(direction_kind=DirectionPredictorKind.GSHARE)
        assert p.branch.direction_kind is DirectionPredictorKind.GSHARE

    def test_perfect_kind_implies_perfect_direction(self):
        # The kind is the one spelling, so one simulation has one
        # configuration and one cache key.
        kind = SimParams().with_branch(direction_kind="perfect")
        assert kind.branch.direction_kind is DirectionPredictorKind.PERFECT
        assert not hasattr(kind.branch, "perfect_direction")
        with pytest.raises(TypeError, match="perfect_direction"):
            SimParams().with_branch(perfect_direction=True)
        assert "perfect_direction" not in _canonical(kind)["branch"]

    def test_rejects_unknown_warmup_mode(self):
        with pytest.raises(ValueError):
            SimParams(warmup_mode="sideways")

    def test_check_invariants_defaults_off(self):
        assert not SimParams().check_invariants
        assert SimParams().replace(check_invariants=True).check_invariants


class TestMoreRejectionPaths:
    def test_rejects_l1_btb_not_smaller(self):
        with pytest.raises(ValueError):
            BranchPredictorParams(btb_entries=1024, btb_l1_entries=1024)

    def test_rejects_l1_btb_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchPredictorParams(btb_entries=2048, btb_l1_entries=100, btb_l1_assoc=3)

    def test_rejects_negative_two_level_latency(self):
        with pytest.raises(ValueError):
            BranchPredictorParams(btb_l2_extra_latency=-1)

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            FrontendParams(fetch_width=0)
        with pytest.raises(ValueError):
            FrontendParams(predict_width=0)

    def test_rejects_nonpositive_cache_sizes(self):
        with pytest.raises(ValueError):
            MemoryParams(l1i_kib=0)
        with pytest.raises(ValueError):
            MemoryParams(l2_kib=-1)


class TestValuesThatHangCrashOrAreIgnored:
    """Values that would livelock, divide by zero, invert a latency or be
    silently ignored fail at construction, naming the field."""

    def test_rejects_zero_fetch_probe_width(self):
        with pytest.raises(ValueError, match="fetch_probe_width"):
            FrontendParams(fetch_probe_width=0)

    def test_rejects_zero_max_taken(self):
        with pytest.raises(ValueError, match="max_taken_per_cycle"):
            FrontendParams(max_taken_per_cycle=0)

    def test_rejects_zero_l1_btb_assoc(self):
        with pytest.raises(ValueError, match="btb_l1_assoc"):
            BranchPredictorParams(btb_l1_assoc=0)

    @pytest.mark.parametrize("kib", [0, 12, 72])
    def test_rejects_unbuilt_tage_budget(self, kib):
        with pytest.raises(ValueError, match="tage_storage_kib"):
            BranchPredictorParams(tage_storage_kib=kib)

    @pytest.mark.parametrize("field", ["l2_latency", "dram_latency"])
    def test_rejects_negative_memory_latency(self, field):
        with pytest.raises(ValueError, match=field):
            MemoryParams(**{field: -20})
        assert getattr(MemoryParams(**{field: 0}), field) == 0

    @pytest.mark.parametrize("page", [0, -4096, 3000])
    def test_rejects_bad_itlb_page(self, page):
        with pytest.raises(ValueError, match="itlb_page_bytes"):
            MemoryParams(itlb_page_bytes=page)

    @pytest.mark.parametrize("field", ["pfc_resteer_penalty", "history_fixup_penalty"])
    def test_rejects_negative_frontend_penalty(self, field):
        with pytest.raises(ValueError, match=field):
            CoreParams(**{field: -2})
        assert getattr(CoreParams(**{field: 0}), field) == 0

    def test_rejects_block_wider_than_line(self):
        with pytest.raises(ValueError, match="block_bytes.*line_bytes"):
            SimParams().with_frontend(block_bytes=64).with_memory(line_bytes=32)
        params = SimParams().with_memory(line_bytes=32).with_frontend(block_bytes=32)
        assert params.frontend.block_bytes == params.memory.line_bytes

    def test_l1i_latency_is_gone(self):
        # Nothing modelled it: an L1I hit is ready the cycle after its
        # probe, plus any I-TLB miss latency.
        with pytest.raises(TypeError, match="l1i_latency"):
            MemoryParams(l1i_latency=4)
