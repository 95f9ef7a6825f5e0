"""One function per table and figure of the paper.

Each ``figN`` / ``tableN`` function runs the relevant configuration
matrix over the selected workloads and returns a structured dict:
``{"title": ..., "headers": [...], "rows": [...], ...}`` ready for
:func:`repro.experiments.report.render_table`.  Paper reference values
are included where the paper states them, so EXPERIMENTS.md can record
paper-vs-measured side by side.

See DESIGN.md section 4 for the experiment index.
"""

from __future__ import annotations


from repro.common.params import DirectionPredictorKind, HistoryPolicy, SimParams
from repro.core.metrics import FTQ_FIELD_BITS, ftq_storage_bytes
from repro.experiments.configs import default_params, evaluation_workloads, no_fdp
from repro.experiments.runner import geomean_speedup, mean_metric, run_matrix

TOP3_PREFETCHERS = ["fnl_mma", "djolt", "eip128"]


def _pct(ratio: float) -> float:
    return 100.0 * (ratio - 1.0)


# ----------------------------------------------------------------------
# Fig 1: prefetching limit study on an IPC-1-style framework
# ----------------------------------------------------------------------
def fig1(workloads: list[str] | None = None) -> dict:
    """Limit study with perfect branch prediction: prefetchers vs FDP.

    The IPC-1 framework used perfect target prediction; the FTQ is
    either shallow (12-instruction-class, FDP off) or deep (192
    instructions, FDP on).  Paper: top-3 ~28%+, perfect 30.6%, FDP
    alone 30.2%, top-3 on top of FDP marginal.
    """
    workloads = workloads or evaluation_workloads()
    perfect_bp = default_params().with_branch(
        direction_kind=DirectionPredictorKind.PERFECT, perfect_btb=True, perfect_indirect=True
    )
    shallow = no_fdp(perfect_bp)
    configs: dict[str, SimParams] = {"base": shallow}
    for name in ["nl1"] + TOP3_PREFETCHERS + ["perfect"]:
        configs[name] = shallow.replace(prefetcher=name)
    configs["fdp"] = perfect_bp.with_frontend(pfc_enabled=False)
    for name in TOP3_PREFETCHERS + ["perfect"]:
        configs[f"fdp+{name}"] = configs["fdp"].replace(prefetcher=name)
    results = run_matrix(configs, workloads)
    rows = [
        [label, _pct(geomean_speedup(results, label, "base"))]
        for label in configs
        if label != "base"
    ]
    return {
        "title": "Fig 1: prefetching limit study (perfect branch prediction)",
        "headers": ["mechanism", "speedup_%"],
        "rows": rows,
        "paper": {"top3": ">28%", "perfect": "30.6%", "fdp": "30.2%"},
    }


# ----------------------------------------------------------------------
# Table I: BTB capacity gap (static data from the paper)
# ----------------------------------------------------------------------
def table1() -> dict:
    """The academia-vs-industry BTB capacity table, plus our default."""
    rows = [
        ["Shotgun [12]", "2.1K", "AMD Zen2 [29]", "7K"],
        ["Confluence [10]", "1.5K", "Samsung Exynos M3 [27]", "16K"],
        ["Divide&Conquer [13]", "2K", "Arm Neoverse N1 [26]", "6K"],
        ["(this repro default)", f"{default_params().branch.btb_entries // 1024}K", "", ""],
    ]
    return {
        "title": "Table I: BTB capacity gap between academia and industry",
        "headers": ["academia", "BTB", "industry", "BTB"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Table II: handling BTB-miss not-taken branches (measured)
# ----------------------------------------------------------------------
def table2(workloads: list[str] | None = None) -> dict:
    """Measured counterpart of the paper's qualitative Table II.

    Compares target history (no fixup needed) against direction history
    without fixup (GHR0: most mispredictions) and with fixup (GHR2:
    fewer mispredictions than GHR0 but frontend stalls).
    """
    workloads = workloads or evaluation_workloads()
    base = default_params()
    configs = {
        "Target (THR)": base,
        "Direction no-fix (GHR0)": base.with_frontend(history_policy=HistoryPolicy.GHR0),
        "Direction fix (GHR2)": base.with_frontend(history_policy=HistoryPolicy.GHR2),
    }
    results = run_matrix(configs, workloads)
    rows = []
    for label in configs:
        mpki = mean_metric(results, label, "branch_mpki")
        fixups = mean_metric(results, label, "starvation_per_kilo")
        flushes = sum(
            r.stats.get("ghr_fixup_flush") for r in results[label].values()
        )
        rows.append([label, mpki, flushes, fixups])
    return {
        "title": "Table II: handling BTB-miss not-taken branches (measured)",
        "headers": ["history type", "branch MPKI", "fixup flushes", "starv/KI"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Table III: FTQ hardware overhead
# ----------------------------------------------------------------------
def table3() -> dict:
    """FTQ field widths and the 195-byte total (paper Table III)."""
    rows = [[field, f"{bits}-bit"] for field, bits in FTQ_FIELD_BITS.items()]
    rows.append(["Total (24-entry)", f"{ftq_storage_bytes(24)} bytes"])
    rows.append(
        ["PFC-hint increment", f"{ftq_storage_bytes(24) - ftq_storage_bytes(24, with_pfc_hints=False)} bytes"]
    )
    return {
        "title": "Table III: FTQ hardware overhead",
        "headers": ["field", "size"],
        "rows": rows,
        "paper": {"total": "195 bytes", "pfc_hints": "24 bytes"},
    }


# ----------------------------------------------------------------------
# Table IV: common simulation parameters
# ----------------------------------------------------------------------
def table4() -> dict:
    """Dump of the Table IV-equivalent configuration surface."""
    p = default_params()
    rows = [
        ["fetch width", f"{p.frontend.fetch_width} instructions/cycle"],
        ["prediction bandwidth", f"{p.frontend.predict_width} instructions/cycle"],
        ["FTQ", f"{p.frontend.ftq_entries} entries x {p.frontend.instrs_per_block} instructions"],
        ["decode queue", f"{p.frontend.decode_queue_size} instructions"],
        ["L1I", f"{p.memory.l1i_kib}KB {p.memory.l1i_assoc}-way, {p.memory.line_bytes}B lines"],
        ["L2", f"{p.memory.l2_kib}KB, {p.memory.l2_latency}-cycle"],
        ["DRAM", f"{p.memory.dram_latency}-cycle"],
        ["BTB", f"{p.branch.btb_entries} entries, {p.branch.btb_assoc}-way, {p.branch.btb_latency}-cycle"],
        ["direction predictor", f"TAGE {p.branch.tage_storage_kib}KB, {p.branch.history_bits}-bit target history"],
        ["indirect predictor", f"ITTAGE {p.branch.ittage_entries} entries"],
        ["RAS", f"{p.branch.ras_entries} entries"],
        ["mispredict penalty", f"{p.core.mispredict_penalty} cycles"],
        ["windows", f"{p.warmup_instructions} warmup + {p.sim_instructions} measured"],
    ]
    return {
        "title": "Table IV: common simulation parameters",
        "headers": ["parameter", "value"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Table V: history management policies
# ----------------------------------------------------------------------
def table5() -> dict:
    """Enumerates the Table V policy definitions as implemented."""
    rows = []
    for policy in HistoryPolicy:
        rows.append(
            [
                policy.value,
                "target" if policy.uses_target_history else "direction",
                "yes" if policy.fixes_not_taken_history else "no",
                "all" if policy.allocates_all_branches else "taken-only",
            ]
        )
    return {
        "title": "Table V: branch history management policies",
        "headers": ["policy", "history", "fixup", "BTB allocation"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Fig 6a: instruction prefetching with and without FDP
# ----------------------------------------------------------------------
def fig6a(workloads: list[str] | None = None) -> dict:
    """Speedups of prefetchers and FDP over the no-FDP/no-prefetch
    baseline.  Paper: NL1 10.6%, EIP-27KB 32.4%, FDP 41.0%, FDP+perfect
    BTB +3.4%, FDP+EIP-128KB +4.3%, FDP+perfect +5.4%."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    base = no_fdp(fdp)
    configs: dict[str, SimParams] = {"base": base}
    for name in ["nl1", "eip27", "eip128", "fnl_mma", "djolt", "perfect"]:
        configs[name] = base.replace(prefetcher=name)
    configs["fdp"] = fdp
    configs["fdp+perfbtb"] = fdp.with_branch(perfect_btb=True)
    for name in ["eip128", "perfect"]:
        configs[f"fdp+{name}"] = fdp.replace(prefetcher=name)
    configs["fdp+perfbtb+perfect"] = configs["fdp+perfbtb"].replace(prefetcher="perfect")
    results = run_matrix(configs, workloads)
    rows = [
        [label, _pct(geomean_speedup(results, label, "base"))]
        for label in configs
        if label != "base"
    ]
    return {
        "title": "Fig 6a: IPC improvement by instruction prefetching",
        "headers": ["mechanism", "speedup_%"],
        "rows": rows,
        "paper": {
            "nl1": "10.6%",
            "eip27": "32.4%",
            "fdp": "41.0%",
            "fdp+perfbtb": "FDP+3.4%",
            "fdp+eip128": "FDP+4.3%",
            "fdp+perfect": "FDP+5.4%",
            "fdp+perfbtb+perfect": "46.9%",
        },
    }


# ----------------------------------------------------------------------
# Fig 6b: per-trace EIP-128KB improvement vs branch MPKI
# ----------------------------------------------------------------------
def fig6b(workloads: list[str] | None = None) -> dict:
    """Per-workload EIP-128KB speedup with FDP on and off, against the
    workload's branch MPKI (which FDP leaves unchanged).  Paper: up to
    2.01x without FDP; max 14.8% with FDP, some slightly negative."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    base = no_fdp(fdp)
    configs = {
        "base": base,
        "eip": base.replace(prefetcher="eip128"),
        "fdp": fdp,
        "fdp+eip": fdp.replace(prefetcher="eip128"),
    }
    results = run_matrix(configs, workloads)
    rows = []
    for wl in workloads:
        mpki = results["fdp"][wl].branch_mpki
        no_fdp_gain = _pct(results["eip"][wl].ipc / results["base"][wl].ipc)
        with_fdp_gain = _pct(results["fdp+eip"][wl].ipc / results["fdp"][wl].ipc)
        rows.append([wl, mpki, no_fdp_gain, with_fdp_gain])
    return {
        "title": "Fig 6b: per-trace EIP-128KB improvement vs branch MPKI",
        "headers": ["workload", "branch MPKI", "gain_noFDP_%", "gain_withFDP_%"],
        "rows": rows,
        "paper": {"noFDP max": "101%", "withFDP max": "14.8%"},
    }


# ----------------------------------------------------------------------
# Fig 7: PFC benefit across BTB sizes
# ----------------------------------------------------------------------
BTB_SWEEP = [256, 512, 1024, 2048, 8192, 32768]
"""BTB capacities swept.  The paper sweeps 1K-32K against trace branch
footprints of ~10K; our scaled traces have taken-branch footprints of
~0.8-1.7K, so the sweep is extended down to 256 entries to exercise the
same capacity ratios (DESIGN.md section 6)."""


def fig7(workloads: list[str] | None = None) -> dict:
    """PFC on/off across BTB sizes.  Paper: +9.3% at 1K, +2.4% at 8K,
    ~+0.1% (with more mispredictions) at 32K."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    configs: dict[str, SimParams] = {}
    for entries in BTB_SWEEP:
        for pfc in (False, True):
            label = f"btb{entries}/{'pfc' if pfc else 'nopfc'}"
            configs[label] = fdp.with_branch(btb_entries=entries).with_frontend(
                pfc_enabled=pfc
            )
    results = run_matrix(configs, workloads)
    rows = []
    for entries in BTB_SWEEP:
        on = f"btb{entries}/pfc"
        off = f"btb{entries}/nopfc"
        gain = _pct(geomean_speedup(results, on, off))
        mpki_on = mean_metric(results, on, "branch_mpki")
        mpki_off = mean_metric(results, off, "branch_mpki")
        rows.append([entries, gain, mpki_off, mpki_on])
    return {
        "title": "Fig 7: PFC benefit vs BTB size",
        "headers": ["BTB entries", "PFC gain_%", "MPKI off", "MPKI on"],
        "rows": rows,
        "paper": {"1K": "+9.3%", "8K": "+2.4%", "32K": "+0.1%, MPKI +1.5%"},
    }


# ----------------------------------------------------------------------
# Fig 8: branch history management
# ----------------------------------------------------------------------
def fig8(workloads: list[str] | None = None) -> dict:
    """History policies x PFC.  Paper: THR ~= Ideal; GHR2 loses 23.7%
    to fixup flushes; GHR0 +19.5% mispredictions, -1.5% performance."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    configs: dict[str, SimParams] = {}
    for policy in HistoryPolicy:
        for pfc in (False, True):
            label = f"{policy.value}/{'pfc' if pfc else 'nopfc'}"
            configs[label] = fdp.with_frontend(history_policy=policy, pfc_enabled=pfc)
    results = run_matrix(configs, workloads)
    base_label = f"{HistoryPolicy.THR.value}/pfc"
    rows = []
    for policy in HistoryPolicy:
        for pfc in (False, True):
            label = f"{policy.value}/{'pfc' if pfc else 'nopfc'}"
            rel = _pct(geomean_speedup(results, label, base_label))
            mpki = mean_metric(results, label, "branch_mpki")
            rows.append([policy.value, "on" if pfc else "off", rel, mpki])
    return {
        "title": "Fig 8: branch history management (relative to THR+PFC)",
        "headers": ["policy", "PFC", "rel_perf_%", "branch MPKI"],
        "rows": rows,
        "paper": {
            "THR": "~Ideal",
            "GHR2": "-23.7% vs Ideal",
            "GHR0": "+19.5% mispred, -1.5% perf",
        },
    }


# ----------------------------------------------------------------------
# Fig 9: ISO-budget comparison
# ----------------------------------------------------------------------
def fig9(workloads: list[str] | None = None) -> dict:
    """8K BTB vs 4K BTB + EIP-27KB vs 4K BTB, all with FDP.

    Paper: 41.0% vs 40.6% speedup; the 8K BTB has 12% fewer
    mispredictions, EIP has 13.5% lower starvation but 3.5x more
    I-cache tag accesses."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    base = no_fdp(fdp)
    configs = {
        "base": base,
        "fdp/btb8k": fdp.with_branch(btb_entries=8192),
        "fdp/btb4k+eip27": fdp.with_branch(btb_entries=4096).replace(prefetcher="eip27"),
        "fdp/btb4k": fdp.with_branch(btb_entries=4096),
    }
    results = run_matrix(configs, workloads)
    rows = []
    for label in configs:
        if label == "base":
            continue
        rows.append(
            [
                label,
                _pct(geomean_speedup(results, label, "base")),
                mean_metric(results, label, "branch_mpki"),
                mean_metric(results, label, "starvation_per_kilo"),
                mean_metric(results, label, "tag_accesses_per_kilo"),
            ]
        )
    return {
        "title": "Fig 9: ISO-budget analysis (FDP + BTB vs FDP + smaller BTB + EIP)",
        "headers": ["config", "speedup_%", "branch MPKI", "starv/KI", "tag/KI"],
        "rows": rows,
        "paper": {"speedups": "41.0% vs 40.6%", "tag accesses": "EIP 3.5x more"},
    }


# ----------------------------------------------------------------------
# Fig 10: BTB prefetching with PFC
# ----------------------------------------------------------------------
def fig10(workloads: list[str] | None = None) -> dict:
    """Divide-and-Conquer (SN4L+Dis with/without BTB prefetching) across
    BTB sizes, history policies and PFC.  Paper: BTB prefetching helps
    small BTBs with GHR (+8.8% at 2K) and hurts an 8K BTB with THR."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    configs: dict[str, SimParams] = {}
    btb_points: list[tuple[str, SimParams]] = [
        ("btb512", fdp.with_branch(btb_entries=512)),
        ("btb8k", fdp.with_branch(btb_entries=8192)),
        ("btbPerf", fdp.with_branch(perfect_btb=True)),
    ]
    for btb_label, btb_params in btb_points:
        for hist_label, policy in (("THR", HistoryPolicy.THR), ("GHR", HistoryPolicy.GHR3)):
            for pfc in (False, True):
                for pf_label, pf in (("sn4l_dis", "sn4l_dis"), ("+btbpf", "sn4l_dis_btb")):
                    label = f"{btb_label}/{hist_label}/{'pfc' if pfc else 'nopfc'}/{pf_label}"
                    configs[label] = btb_params.with_frontend(
                        history_policy=policy, pfc_enabled=pfc
                    ).replace(prefetcher=pf)
    results = run_matrix(configs, workloads)
    anchor = "btb8k/THR/pfc/sn4l_dis"
    rows = []
    for label in configs:
        rows.append(
            [
                label,
                _pct(geomean_speedup(results, label, anchor)),
                mean_metric(results, label, "branch_mpki"),
            ]
        )
    return {
        "title": "Fig 10: BTB prefetching with PFC (relative to 8K/THR/PFC/SN4L+Dis)",
        "headers": ["config", "rel_perf_%", "branch MPKI"],
        "rows": rows,
        "paper": {"GHR 2K": "+8.8% from BTB prefetching", "THR 8K": "BTB prefetching hurts"},
    }


# ----------------------------------------------------------------------
# Fig 11: BTB capacity sensitivity
# ----------------------------------------------------------------------
def fig11(workloads: list[str] | None = None) -> dict:
    """BTB size sweep with FDP on and off.  Paper: FDP widens small-BTB
    gains (PFC compensates misses); both saturate once the branch
    footprint fits; FDP better at every capacity."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    configs: dict[str, SimParams] = {}
    for entries in BTB_SWEEP:
        configs[f"fdp/btb{entries}"] = fdp.with_branch(btb_entries=entries)
        configs[f"nofdp/btb{entries}"] = no_fdp(fdp).with_branch(btb_entries=entries)
    results = run_matrix(configs, workloads)
    anchor = f"nofdp/btb{BTB_SWEEP[0]}"
    rows = []
    for entries in BTB_SWEEP:
        rows.append(
            [
                entries,
                _pct(geomean_speedup(results, f"nofdp/btb{entries}", anchor)),
                _pct(geomean_speedup(results, f"fdp/btb{entries}", anchor)),
                mean_metric(results, f"fdp/btb{entries}", "branch_mpki"),
            ]
        )
    return {
        "title": "Fig 11: BTB capacity sensitivity (speedup over smallest no-FDP)",
        "headers": ["BTB entries", "noFDP_%", "FDP_%", "FDP branch MPKI"],
        "rows": rows,
        "paper": {"shape": "FDP better everywhere; saturation once footprint fits"},
    }


# ----------------------------------------------------------------------
# Fig 12: direction predictor sensitivity
# ----------------------------------------------------------------------
def fig12(workloads: list[str] | None = None) -> dict:
    """Gshare vs TAGE sizes vs perfect prediction, with PFC on/off.

    Paper: Gshare 31.4% vs TAGE 37.1%; PFC *hurts* Gshare by 6.0%;
    perfect direction makes PFC worth +4.6%; Perfect All 49.4%."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    base = no_fdp(fdp)
    variants: dict[str, SimParams] = {
        "gshare8k": fdp.with_branch(direction_kind=DirectionPredictorKind.GSHARE),
        "tage9k": fdp.with_branch(tage_storage_kib=9),
        "tage18k": fdp,
        "tage36k": fdp.with_branch(tage_storage_kib=36),
        "perfdir": fdp.with_branch(direction_kind=DirectionPredictorKind.PERFECT),
        "perfall": fdp.with_branch(
            direction_kind=DirectionPredictorKind.PERFECT, perfect_btb=True, perfect_indirect=True
        ),
    }
    configs: dict[str, SimParams] = {"base": base}
    for label, params in variants.items():
        configs[f"{label}/pfc"] = params
        configs[f"{label}/nopfc"] = params.with_frontend(pfc_enabled=False)
    results = run_matrix(configs, workloads)
    rows = []
    for label in variants:
        on = _pct(geomean_speedup(results, f"{label}/pfc", "base"))
        off = _pct(geomean_speedup(results, f"{label}/nopfc", "base"))
        mpki = mean_metric(results, f"{label}/pfc", "branch_mpki")
        rows.append([label, off, on, mpki])
    return {
        "title": "Fig 12: direction predictor sensitivity (speedup over baseline)",
        "headers": ["predictor", "noPFC_%", "PFC_%", "MPKI (PFC)"],
        "rows": rows,
        "paper": {
            "gshare": "31.4% (PFC -6.0%)",
            "tage18k": "37.1%",
            "perfdir+PFC": "+4.6%",
            "perfall": "49.4%",
        },
    }


# ----------------------------------------------------------------------
# Fig 13: prediction bandwidth / BTB latency sensitivity
# ----------------------------------------------------------------------
def fig13(workloads: list[str] | None = None) -> dict:
    """Bandwidth B6/B12/B18/B18m and BTB latency 1-4.  Paper: B18 ~= B12,
    B6 -0.6%, B18m +0.2%; 4-cycle BTB latency -1.8%."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    configs = {
        "B6": fdp.with_frontend(predict_width=6),
        "B12": fdp,
        "B18": fdp.with_frontend(predict_width=18),
        "B18m": fdp.with_frontend(predict_width=18, max_taken_per_cycle=2),
        "lat1": fdp.with_branch(btb_latency=1),
        "lat2": fdp,
        "lat3": fdp.with_branch(btb_latency=3),
        "lat4": fdp.with_branch(btb_latency=4),
    }
    results = run_matrix(configs, workloads)
    rows = [
        [label, _pct(geomean_speedup(results, label, "B12"))]
        for label in configs
    ]
    return {
        "title": "Fig 13: prediction bandwidth and BTB latency (relative to B12/lat2)",
        "headers": ["config", "rel_perf_%"],
        "rows": rows,
        "paper": {"B6": "-0.6%", "B18": "~0%", "B18m": "+0.2%", "lat4": "-1.8%"},
    }


# ----------------------------------------------------------------------
# Fig 14: FTQ size sensitivity + miss exposure
# ----------------------------------------------------------------------
FTQ_SWEEP = [2, 4, 8, 12, 16, 24, 32]


def fig14(workloads: list[str] | None = None) -> dict:
    """FTQ depth sweep with exposed/covered miss classification.

    Paper: +23.7% at 4 entries, +39.5% at 12, marginal beyond; 76% of
    misses exposed at 2 entries, 90.6% of those removed at 24."""
    workloads = workloads or evaluation_workloads()
    fdp = default_params()
    configs = {
        f"ftq{n}": fdp.with_frontend(ftq_entries=n, pfc_enabled=n > 2)
        for n in FTQ_SWEEP
    }
    results = run_matrix(configs, workloads)
    rows = []
    for n in FTQ_SWEEP:
        label = f"ftq{n}"
        speedup = _pct(geomean_speedup(results, label, f"ftq{FTQ_SWEEP[0]}"))
        exposure = {"covered": 0, "partially_exposed": 0, "fully_exposed": 0}
        for r in results[label].values():
            for k, v in r.miss_exposure().items():
                exposure[k] += v
        total = sum(exposure.values())
        exposed = exposure["partially_exposed"] + exposure["fully_exposed"]
        frac = 100.0 * exposed / total if total else 0.0
        rows.append(
            [n, speedup, exposure["covered"], exposure["partially_exposed"], exposure["fully_exposed"], frac]
        )
    return {
        "title": "Fig 14: FTQ size sensitivity (speedup over 2-entry FTQ)",
        "headers": ["FTQ entries", "speedup_%", "covered", "partial", "full", "exposed_%"],
        "rows": rows,
        "paper": {"12-entry": "+39.5%", "2-entry exposed": "76%", "24-entry": "removes 90.6% of exposed"},
    }


ALL_EXPERIMENTS = {
    "fig1": fig1,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
}
