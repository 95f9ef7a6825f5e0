#!/usr/bin/env python
"""Regenerate the committed golden-counter fixture.

The fixture (``tests/data/golden_counters.json``) records the full
simulated counter set (``stats.as_dict()``, instructions, cycles) of a
small run matrix.  ``tests/test_golden_counters.py`` re-runs the matrix
and demands exact equality, which pins the shared components
(caches, MSHRs, predictors, prefetchers, commit training) that run
under *both* cycle kernels and so escape the typed == reference
identity tests.

Only regenerate it for an intended model change, together with a
``SIM_SCHEMA_VERSION`` bump; a pure speed-up must leave it untouched.

Usage::

    PYTHONPATH=src python scripts/make_golden_counters.py [OUT]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.common.params import HistoryPolicy, SimParams
from repro.core.simulator import simulate
from repro.experiments.configs import QUICK_WORKLOADS

WARMUP = 500
SIM = 2_000
HISTORY_WARMUP = 2_000
HISTORY_SIM = 6_000
"""Windows of the history-policy points (see :func:`golden_matrix`)."""
DJOLT_WARMUP = 20_000
DJOLT_SIM = 40_000
"""Windows of the D-JOLT MSHR-pressure point: D-JOLT needs recurring
call contexts before it prefetches at all."""

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_counters.json"


def golden_matrix() -> list[tuple[str, str, SimParams]]:
    """``(label, workload, params)`` for every fixture point."""
    base = SimParams(warmup_instructions=WARMUP, sim_instructions=SIM)
    points = []
    for workload in QUICK_WORKLOADS:
        for prefetcher in ("none", "eip128", "fnl_mma", "djolt"):
            points.append(
                (f"{workload}/{prefetcher}", workload, base.replace(prefetcher=prefetcher))
            )
    variants = {
        "gshare": base.with_branch(direction_kind="gshare"),
        "perceptron": base.with_branch(direction_kind="perceptron"),
        "tage9": base.with_branch(tage_storage_kib=9),
        "tage36": base.with_branch(tage_storage_kib=36),
        "no_pfc": base.with_frontend(pfc_enabled=False),
        "two_level_btb": base.with_branch(btb_l1_entries=256),
        "functional_warmup": base.replace(warmup_mode="functional"),
        "eip128_small_mshr": base.replace(prefetcher="eip128").with_memory(
            mshr_entries=2, l1i_kib=16
        ),
        # D-JOLT enqueues from committed branches, so the typed
        # kernel's drain stops to issue its prefetches, here under MSHR
        # pressure.
        "djolt_small_mshr": base.replace(
            prefetcher="djolt", warmup_instructions=DJOLT_WARMUP, sim_instructions=DJOLT_SIM
        ).with_memory(mshr_entries=2, l1i_kib=16),
    }
    for name, params in variants.items():
        points.append((f"srv_web/{name}", "srv_web", params))
    points.append(
        (
            "clt_browser/fnl_mma_mshr1",
            "clt_browser",
            base.replace(prefetcher="fnl_mma").with_memory(mshr_entries=1),
        )
    )
    # History policies other than THR, at longer windows: at the default
    # ones every policy leaves the direction predictor's counters equal.
    longer = base.replace(warmup_instructions=HISTORY_WARMUP, sim_instructions=HISTORY_SIM)
    policies = {
        "ideal": longer.with_frontend(history_policy=HistoryPolicy.IDEAL),
        "ghr0": longer.with_frontend(history_policy=HistoryPolicy.GHR0),
        "ghr3": longer.with_frontend(history_policy=HistoryPolicy.GHR3),
        "ideal_tage9": longer.with_frontend(history_policy=HistoryPolicy.IDEAL).with_branch(
            tage_storage_kib=9
        ),
    }
    for name, params in policies.items():
        points.append((f"srv_web/{name}", "srv_web", params))
    # THR without FDP (a 2-entry FTQ, no PFC), alone and under EIP-128
    # as in Fig 6a, and THR with the loop predictor overriding TAGE.
    no_fdp = longer.with_frontend(ftq_entries=2, pfc_enabled=False)
    thr = {
        "no_fdp": no_fdp,
        "no_fdp_eip128": no_fdp.replace(prefetcher="eip128"),
        "loop_predictor": longer.with_branch(loop_predictor_entries=256),
    }
    for name, params in thr.items():
        points.append((f"srv_web/{name}", "srv_web", params))
    points.append(("srv_web/sn4l_dis", "srv_web", longer.replace(prefetcher="sn4l_dis")))
    for name, params in replacement_points().items():
        points.append((f"srv_web/{name}", "srv_web", params))
    # Both SN4L prefetchers on a second workload; spc_int_a issues no
    # SN4L prefetch at these windows, clt_browser does.
    sn4l = {
        "sn4l_dis": longer.replace(prefetcher="sn4l_dis"),
        "sn4l_dis_btb512": replacement_points()["sn4l_dis_btb512"],
    }
    for name, params in sn4l.items():
        points.append((f"clt_browser/{name}", "clt_browser", params))
    return points


def replacement_points() -> dict[str, SimParams]:
    """Points whose BTB evicts, at the history-policy windows.

    The default 8192-entry BTB evicts nothing at the fixture's windows,
    so these pin BTB replacement order: small BTBs (384 entries is 96
    sets, the non-power-of-two set index), allocate-all insertion,
    ``sn4l_dis_btb`` (which also inserts on fill), four 16-byte chunks
    per 64-byte block and a two-level BTB whose levels both evict.
    """
    longer = SimParams(warmup_instructions=HISTORY_WARMUP, sim_instructions=HISTORY_SIM)
    return {
        "btb256": longer.with_branch(btb_entries=256),
        "btb384": longer.with_branch(btb_entries=384),
        "btb512_ghr3": longer.with_branch(btb_entries=512).with_frontend(
            history_policy=HistoryPolicy.GHR3
        ),
        "sn4l_dis_btb512": longer.replace(prefetcher="sn4l_dis_btb").with_branch(
            btb_entries=512
        ),
        "block64_btb256": longer.with_branch(btb_entries=256).with_frontend(block_bytes=64),
        "two_level_l1_64": longer.with_branch(btb_l1_entries=64, btb_entries=512),
    }


def run_point(workload: str, params: SimParams) -> dict:
    """The recorded outcome of one point."""
    result = simulate(workload, params)
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "counters": dict(sorted(result.stats.as_dict().items())),
    }


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUT
    points = {label: run_point(workload, params) for label, workload, params in golden_matrix()}
    payload = {"warmup_instructions": WARMUP, "sim_instructions": SIM, "points": points}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(points)} points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
