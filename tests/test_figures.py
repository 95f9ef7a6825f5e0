"""Structural tests for the per-figure experiment functions.

These run with a tiny window and a single workload, checking the shape
of each function's output and a few monotonicity properties that must
hold even at miniature scale.  Full-scale values live in results/ and
EXPERIMENTS.md.
"""

import pytest

from repro.experiments import figures
from repro.experiments.runner import clear_cache


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    monkeypatch.setenv("REPRO_WORKLOADS", "clt_browser")
    monkeypatch.setenv("REPRO_WARMUP", "1500")
    monkeypatch.setenv("REPRO_SIM", "4000")
    clear_cache()
    yield
    clear_cache()


class TestFig1:
    def test_rows_and_fdp_presence(self):
        data = figures.fig1()
        labels = [r[0] for r in data["rows"]]
        assert "fdp" in labels and "perfect" in labels
        assert all(len(r) == 2 for r in data["rows"])


class TestTable2:
    def test_row_per_history_type(self):
        data = figures.table2()
        assert [r[0] for r in data["rows"]] == [
            "Target (THR)",
            "Direction no-fix (GHR0)",
            "Direction fix (GHR2)",
        ]
        assert all(len(r) == len(data["headers"]) == 4 for r in data["rows"])

    def test_only_ghr2_flushes_for_fixups(self):
        data = figures.table2()
        flushes = {r[0]: r[2] for r in data["rows"]}
        assert flushes["Target (THR)"] == 0
        assert flushes["Direction no-fix (GHR0)"] == 0


class TestFig6:
    def test_fig6a_fdp_beats_baseline(self):
        data = figures.fig6a()
        rows = {r[0]: r[1] for r in data["rows"]}
        assert rows["fdp"] > 0
        assert rows["perfect"] > 0

    def test_fig6b_one_row_per_workload(self):
        data = figures.fig6b()
        assert [r[0] for r in data["rows"]] == ["clt_browser"]
        assert len(data["rows"][0]) == 4


class TestFig7:
    def test_sweep_covers_btb_sizes(self):
        data = figures.fig7()
        assert [r[0] for r in data["rows"]] == figures.BTB_SWEEP

    def test_pfc_gain_larger_for_small_btb(self):
        data = figures.fig7()
        gains = {r[0]: r[1] for r in data["rows"]}
        assert gains[256] > gains[32768]

    def test_mpki_decreases_with_capacity(self):
        data = figures.fig7()
        mpki_off = [r[2] for r in data["rows"]]
        assert mpki_off[0] >= mpki_off[-1]


class TestFig8:
    def test_all_policies_and_pfc_states(self):
        data = figures.fig8()
        assert len(data["rows"]) == 12
        anchor = next(r for r in data["rows"] if r[0] == "THR" and r[1] == "on")
        assert anchor[2] == pytest.approx(0.0)

    def test_ghr2_worst(self):
        data = figures.fig8()
        perf = {(r[0], r[1]): r[2] for r in data["rows"]}
        assert perf[("GHR2", "on")] < perf[("THR", "on")]
        assert perf[("GHR2", "on")] < perf[("GHR0", "on")]


class TestFig9:
    def test_eip_config_has_more_tag_accesses(self):
        data = figures.fig9()
        rows = {r[0]: r for r in data["rows"]}
        assert rows["fdp/btb4k+eip27"][4] > rows["fdp/btb8k"][4]


class TestFig10:
    def test_rows_cover_btb_history_pfc_prefetcher(self):
        data = figures.fig10()
        labels = [r[0] for r in data["rows"]]
        assert len(labels) == 24
        assert labels[0] == "btb512/THR/nopfc/sn4l_dis"
        assert labels[-1] == "btbPerf/GHR/pfc/+btbpf"
        rows = {r[0]: r for r in data["rows"]}
        assert rows["btb8k/THR/pfc/sn4l_dis"][1] == pytest.approx(0.0)  # anchor

    def test_perfect_btb_ignores_pfc_and_btb_prefetch(self):
        data = figures.fig10()
        for hist in ("THR", "GHR"):
            perf = {tuple(r[1:]) for r in data["rows"] if r[0].startswith(f"btbPerf/{hist}/")}
            assert len(perf) == 1, hist


class TestFig11:
    def test_fdp_beats_nofdp_at_every_capacity(self):
        data = figures.fig11()
        for _, nofdp, fdp, _ in data["rows"]:
            assert fdp >= nofdp


class TestFig12:
    def test_perfect_all_best(self):
        data = figures.fig12()
        rows = {r[0]: r for r in data["rows"]}
        assert rows["perfall"][2] >= rows["tage18k"][2]
        assert rows["perfall"][3] == pytest.approx(0.0)  # no mispredicts


class TestFig13:
    def test_anchor_is_zero(self):
        data = figures.fig13()
        rows = {r[0]: r[1] for r in data["rows"]}
        assert rows["B12"] == pytest.approx(0.0)
        assert rows["lat2"] == pytest.approx(0.0)

    def test_slower_btb_not_faster(self):
        data = figures.fig13()
        rows = {r[0]: r[1] for r in data["rows"]}
        assert rows["lat4"] <= rows["lat1"] + 0.5


class TestFig14:
    def test_speedup_monotone_up_to_noise(self):
        data = figures.fig14()
        speedups = [r[1] for r in data["rows"]]
        assert speedups[0] == pytest.approx(0.0)
        assert speedups[-1] >= speedups[1]

    def test_exposed_fraction_decreases(self):
        data = figures.fig14()
        exposed = [r[5] for r in data["rows"]]
        assert exposed[-1] <= exposed[0]

    def test_registry_complete(self):
        assert set(figures.ALL_EXPERIMENTS) == {
            "fig1", "table1", "table2", "table3", "table4", "table5",
            "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14",
        }
