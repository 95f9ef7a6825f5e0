#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from archived results and commentary.

Run after ``python -m repro report`` has populated ``results/``.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by this
repository's report command (`python -m repro report`, which archives
each table under `results/`). Configuration: 8 synthetic workloads
(3 server / 2 client / 3 SPEC-like), 25K warmup + 60K measured
instructions, parameters per Table IV. Magnitudes are scaled (85K-vs-100M
instruction windows; see DESIGN.md §6); the claims compared below are the
paper's *relationships* — orderings, crossovers, and marginal effects.

Summary of reproduction status:

| experiment | paper's claim | status |
|---|---|---|
| Fig 1 | FDP ≈ perfect prefetching under perfect branch prediction; top-3 add little over FDP | reproduced |
| Table I | academic BTBs ≪ industry BTBs | restated (static) |
| Table II | THR: fewest mispredicts, no fixups; GHR-fix: fixup flushes + stalls | reproduced |
| Table III | 24-entry FTQ = 195 bytes; PFC hints = 24 bytes | exact |
| Table IV | common parameters | restated (config) |
| Table V | history policy matrix | restated (enum) |
| Fig 6a | FDP (41%) beats every prefetcher; add-ons marginal | reproduced (FDP 61%) |
| Fig 6b | EIP big without FDP (≤2.01x), ≤14.8% with FDP, some negative | reproduced |
| Fig 7 | PFC gain large at 1K BTB (9.3%), gone by 32K | reproduced (shape; floor ~8%) |
| Fig 8 | THR ≈ Ideal; GHR2 worst (−23.7%) | reproduced |
| Fig 9 | 8K BTB ≈ 4K BTB + EIP-27KB; EIP 3.5× tag probes | reproduced (4.5× probes) |
| Fig 10 | BTB prefetching helps small-BTB GHR, hurts capacity-matched THR+PFC | reproduced at scaled capacity |
| Fig 11 | FDP better at every BTB capacity; saturation when footprint fits | reproduced |
| Fig 12 | TAGE > Gshare; PFC value scales with direction accuracy | reproduced (PFC-on-Gshare sign differs) |
| Fig 13 | B6 −0.6%, B18 ~0, B18m +0.2%, lat4 −1.8% | reproduced |
| Fig 14 | gains saturate past ~12 entries; exposed misses shrink | reproduced |

---
"""

SECTIONS: list[tuple[str, str, str]] = [
    (
        "fig1",
        "Fig 1 — prefetching limit study (IPC-1-style framework)",
        "Paper: with perfect branch prediction and a deep FTQ, FDP alone "
        "(30.2%) matches perfect prefetching (30.6%) and the top-3 IPC-1 "
        "prefetchers add little on top.\n\n"
        "Measured: FDP (≈160%) lands at/above perfect-prefetching-without-"
        "FDP (≈129%), and each top-3 prefetcher adds only ~6–10pp on top of "
        "FDP versus ~47pp standalone — the paper's central argument, at our "
        "scale. (Our magnitudes are larger throughout because the scaled "
        "traces are more frontend-bound; see DESIGN.md §6.)",
    ),
    (
        "table1",
        "Table I — BTB capacity gap",
        "Static data from the paper, restated, plus this repository's "
        "default (8K entries — industry-sized, per the paper's thesis).",
    ),
    (
        "table2",
        "Table II — handling BTB-miss not-taken branches",
        "Paper (qualitative): target history needs no fixup and mispredicts "
        "least; direction history without fixup mispredicts most; with "
        "fixup, fewer mispredictions but added frontend stalls.\n\n"
        "Measured: THR has the lowest MPKI and zero fixup flushes; GHR0 "
        "adds ~0.4 MPKI; GHR2 recovers some accuracy at the cost of "
        "thousands of fixup flushes and the highest starvation.",
    ),
    (
        "table3",
        "Table III — FTQ hardware overhead",
        "Exact reproduction: 57 architectural bits + 8 hint bits per entry; "
        "24 entries → 195 bytes, of which the PFC hints are 24 bytes.",
    ),
    ("table4", "Table IV — common parameters", "Configuration surface as simulated."),
    ("table5", "Table V — history management policies", "Policy matrix as implemented."),
    (
        "fig6a",
        "Fig 6a — IPC improvement by instruction prefetching",
        "Paper: NL1 10.6%, EIP-27KB 32.4%, FDP 41.0% — FDP beats every "
        "dedicated prefetcher; perfect BTB +3.4%, EIP-128KB +4.3%, perfect "
        "prefetching +5.4% on top of FDP; both perfect = 46.9%.\n\n"
        "Measured: NL1 12.0%, EIP-27KB 27.2%, FDP 61.1% — same ordering, "
        "with FDP above even perfect-prefetching-without-FDP (57.2%). "
        "On top of FDP: EIP-128KB +4.2pp (paper +4.3%), perfect prefetching "
        "+21pp, perfect BTB +14pp, both +34pp. The add-on gains are larger "
        "than the paper's because our branchier traces leave FDP more "
        "BTB-miss and run-ahead headroom (DESIGN.md §6).",
    ),
    (
        "fig6b",
        "Fig 6b — per-trace EIP-128KB improvement vs branch MPKI",
        "Paper: without FDP up to 2.01×, high-MPKI workloads gain most; "
        "with FDP the max falls to 14.8% and two workloads go slightly "
        "negative.\n\n"
        "Measured: without FDP up to 70% (server traces, highest I-MPKI); "
        "with FDP the max falls to 6.0% and two workloads are slightly "
        "negative — the same collapse, including the sign flips.",
    ),
    (
        "fig7",
        "Fig 7 — PFC benefit vs BTB size",
        "Paper: +9.3% at 1K entries, +2.4% at 8K, ~+0.1% at 32K.\n\n"
        "Measured: the same monotone decay across the equivalent "
        "footprint/capacity ratios (sweep extended to 256 entries because "
        "our taken-branch footprints are ~8× smaller): +39.5% at 256, "
        "+20.4% at 1K, +8.2% at 8K, flat to 32K. The floor stays ~8% "
        "rather than ~0% because cold branches keep missing the BTB within "
        "our short windows, and PFC keeps fixing them.",
    ),
    (
        "fig8",
        "Fig 8 — branch history management",
        "Paper: THR ≈ Ideal (sometimes marginally better); GHR2 loses "
        "23.7% to fixup flushes; GHR0 +19.5% mispredictions, −1.5% "
        "performance; PFC helps every policy.\n\n"
        "Measured: THR is the best policy (marginally above Ideal, as the "
        "paper also observed); GHR2 is the clear loser (~−14%); GHR3 "
        "recovers most of GHR2's loss via all-branch allocation; PFC "
        "improves every policy by ~5pp.",
    ),
    (
        "fig9",
        "Fig 9 — ISO-budget analysis",
        "Paper: FDP+8K-BTB (41.0%) ≈ FDP+4K-BTB+EIP-27KB (40.6%); the BTB "
        "route has 12% fewer mispredictions, the EIP route 13.5% lower "
        "starvation but 3.5× more I-cache tag accesses.\n\n"
        "Measured: 61.1% vs 63.9% (within 3pp, same conclusion); the EIP "
        "route has slightly lower starvation and 4.5× the tag probes — the "
        "power argument lands with the same force.",
    ),
    (
        "fig10",
        "Fig 10 — BTB prefetching with PFC",
        "Paper: PFC beats BTB prefetching; BTB prefetching helps small "
        "BTBs under GHR (+8.8% at 2K) and *hurts* an 8K BTB under THR "
        "(pollution by never-taken branches); THR > GHR everywhere.\n\n"
        "Measured: THR > GHR at every matched point, and PFC contributes "
        "far more than BTB prefetching (e.g. at 512 entries under GHR: "
        "PFC +17pp vs BTB prefetching +4.7pp). At the capacity-matched "
        "small-BTB point (512 entries ≈ the paper's 2K for our branch "
        "footprints), BTB prefetching helps GHR (+4.7pp without PFC) and "
        "*hurts* THR+PFC (−0.2pp) — the paper's pollution result. At 8K "
        "(oversized for our footprints) blind insertion still helps "
        "because the set pressure needed for pollution never materialises; "
        "the perfect-BTB columns bound the study from above.",
    ),
    (
        "fig11",
        "Fig 11 — BTB capacity sensitivity",
        "Paper: FDP is better at every capacity; without FDP only moderate "
        "gains from capacity; both saturate once the branch footprint fits "
        "(16K in their traces).\n\n"
        "Measured: FDP leads at every point, small BTBs benefit far more "
        "under FDP+PFC, and both curves saturate once our ~1–2K-branch "
        "footprints fit (≈2–8K entries, the scaled analogue of their 16K).",
    ),
    (
        "fig12",
        "Fig 12 — direction predictor sensitivity",
        "Paper: Gshare 31.4% vs TAGE 37.1%; PFC *degrades* Gshare by 6.0% "
        "(wrong taken-hints re-steer onto wrong paths); perfect direction "
        "makes PFC worth +4.6%; Perfect All 49.4%.\n\n"
        "Measured: Gshare trails every TAGE sizing by a wide margin, and "
        "PFC's benefit grows monotonically with direction-predictor "
        "quality (+6pp under Gshare, +12pp under TAGE, +32pp under perfect "
        "direction) — the paper's mechanism, that PFC is only as good as "
        "the hints feeding it. One sign differs: our Gshare is weak enough "
        "that PFC's BTB-miss fixes still outweigh its false re-steers, so "
        "it nets positive where the paper measured −6.0%. Perfect All tops "
        "the chart with zero mispredictions.",
    ),
    (
        "fig13",
        "Fig 13 — prediction bandwidth and BTB latency",
        "Paper: B6 −0.6%, B18 ≈ B12, B18m +0.2%; 4-cycle BTB −1.8%.\n\n"
        "Measured: the same plateau — B18 +0.3%, B18m +0.8%, halving "
        "bandwidth −3.1%, and BTB latency costs ~3% per extra cycle "
        "(it only matters on refill after flushes, as the paper explains; "
        "our flush rate is higher, so the latency sensitivities are "
        "proportionally larger).",
    ),
    (
        "fig14",
        "Fig 14 — FTQ size sensitivity",
        "Paper: +23.7% at 4 entries, +39.5% at 12, marginal beyond; 76% of "
        "misses exposed at 2 entries and a 24-entry FTQ removes 90.6% of "
        "them, partial-exposure shrinking first.\n\n"
        "Measured: the same saturating curve with most of the gain by 8–12 "
        "entries; exposure falls monotonically with depth, with "
        "partially-exposed misses shrinking fastest. Our fully-exposed "
        "class has a floor tied to the misprediction rate (every post-flush "
        "restart probes at the FTQ head — DESIGN.md §6).",
    ),
]

ABLATIONS = """
---

## Beyond the paper: ablations

These quantify design choices the paper discusses qualitatively
(regenerated by `python -m repro report abl_...`; see
`repro.experiments.analysis`).
"""

ABLATION_SECTIONS: list[tuple[str, str]] = [
    ("abl_fdp_components", "Attribution of the FDP speedup (run-ahead vs THR vs PFC vs wrong-path fills)."),
    ("abl_prefetcher_quality", "Accuracy / coverage / timeliness behind Fig 9's traffic argument, including RDIP and profile-guided software prefetching (Section VII baselines)."),
    ("abl_two_level_btb", "Two-level BTB hierarchies (Section II-B industry trend)."),
    ("abl_loop_predictor", "Fig 2's loop predictor on top of TAGE."),
    ("abl_direction_zoo", "Fig 12 extended with the perceptron predictor (Section II-A)."),
]


def main() -> int:
    parts = [HEADER]
    for name, title, commentary in SECTIONS:
        parts.append(f"## {title}\n")
        parts.append(commentary + "\n")
        path = RESULTS / f"{name}.txt"
        if path.exists():
            parts.append("```\n" + path.read_text().rstrip() + "\n```\n")
        else:
            parts.append("*(results/" + name + ".txt not generated yet)*\n")
    parts.append(ABLATIONS)
    for name, commentary in ABLATION_SECTIONS:
        parts.append(f"### {name}\n")
        parts.append(commentary + "\n")
        path = RESULTS / f"{name}.txt"
        if path.exists():
            parts.append("```\n" + path.read_text().rstrip() + "\n```\n")
        else:
            parts.append("*(results/" + name + ".txt not generated yet)*\n")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote EXPERIMENTS.md ({len(parts)} sections)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
