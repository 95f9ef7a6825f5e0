"""Tests for the ablation analyses (repro.experiments.analysis)."""

import pytest

from repro.experiments.analysis import (
    ALL_ABLATIONS,
    direction_zoo,
    fdp_attribution,
    loop_predictor_ablation,
    prefetcher_quality,
    two_level_btb,
)
from repro.experiments.runner import clear_cache


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    monkeypatch.setenv("REPRO_WORKLOADS", "spc_fp")
    monkeypatch.setenv("REPRO_WARMUP", "1200")
    monkeypatch.setenv("REPRO_SIM", "3000")
    clear_cache()
    yield
    clear_cache()


class TestFdpAttribution:
    def test_structure(self):
        data = fdp_attribution()
        assert data["headers"][0] == "step"
        assert len(data["rows"]) == 5

    def test_baseline_row_is_zero(self):
        data = fdp_attribution()
        assert data["rows"][0][1] == pytest.approx(0.0)

    def test_marginals_sum_to_total(self):
        data = fdp_attribution()
        # marginal contributions accumulate into each row's total
        running = 0.0
        for row in data["rows"]:
            running += row[2]
            assert row[1] == pytest.approx(running, abs=1e-6)

    def test_full_fdp_beats_baseline(self):
        data = fdp_attribution()
        full = next(r for r in data["rows"] if r[0] == "+PFC (full FDP)")
        assert full[1] > 0


class TestPrefetcherQuality:
    def test_metrics_bounded(self):
        data = prefetcher_quality()
        for name, speedup, accuracy, coverage, late in data["rows"]:
            assert 0.0 <= accuracy <= 100.0
            assert coverage <= 100.0
            assert late >= 0

    def test_covers_all_prefetchers(self):
        names = {row[0] for row in prefetcher_quality()["rows"]}
        assert {"nl1", "eip27", "eip128", "fnl_mma", "djolt", "rdip", "sn4l_dis", "profile_guided"} == names


class TestTwoLevelBTB:
    def test_flat_8k_beats_flat_512(self):
        data = two_level_btb()
        rows = {r[0]: r for r in data["rows"]}
        assert rows["flat 8K"][1] >= rows["flat 512"][1]

    def test_l2_sourced_counts_present_for_hierarchy(self):
        data = two_level_btb()
        rows = {r[0]: r for r in data["rows"]}
        assert rows["flat 8K"][3] == 0  # flat BTBs never report L2 sources


class TestLoopAblation:
    def test_row_per_workload(self):
        data = loop_predictor_ablation()
        assert [r[0] for r in data["rows"]] == ["spc_fp"]


class TestDirectionZoo:
    def test_row_per_predictor(self):
        data = direction_zoo()
        assert [r[0] for r in data["rows"]] == [
            "gshare-8KB",
            "perceptron-8KB",
            "tage-9KB",
            "tage-18KB",
            "tage-36KB",
        ]
        assert all(len(r) == len(data["headers"]) == 3 for r in data["rows"])

    def test_anchor_is_tage18(self):
        rows = {r[0]: r for r in direction_zoo()["rows"]}
        assert rows["tage-18KB"][1] == pytest.approx(0.0)


class TestRegistry:
    def test_all_ablations_named(self):
        assert set(ALL_ABLATIONS) == {
            "abl_fdp_components",
            "abl_prefetcher_quality",
            "abl_two_level_btb",
            "abl_loop_predictor",
            "abl_direction_zoo",
        }
