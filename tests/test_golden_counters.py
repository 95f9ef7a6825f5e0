"""Golden counters: the full simulated counter set of a small run matrix.

The typed == reference identity tests cannot see a change to a
component both kernels call (caches, MSHRs, predictors, prefetchers,
commit training): both sides move together.  This test re-runs the
matrix of ``scripts/make_golden_counters.py`` and compares every
counter, instruction and cycle count with the committed fixture.

The fixture is written by plain runs, which take the typed kernel.  A
second test replays every point on the cycle-by-cycle reference loop
with the observers attached, so the reference loop is pinned on the
whole matrix too, not only on the configs the typed == reference
identity tests sample.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.branch.btb2l import TwoLevelBTB
from repro.check.fuzz import _strip_telemetry
from repro.common.telemetry import Telemetry, TelemetryConfig
from repro.core.prof import StageProfiler
from repro.core.simulator import Simulator
from repro.trace.workloads import make_trace

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_golden_counters.py"
FIXTURE = ROOT / "tests" / "data" / "golden_counters.json"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_golden_counters", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drift(got: dict, want: dict) -> dict:
    """``{counter: (golden, now)}`` for every value that differs."""
    names = set(got["counters"]) | set(want["counters"])
    drift = {
        name: (want["counters"].get(name), got["counters"].get(name))
        for name in sorted(names)
        if got["counters"].get(name) != want["counters"].get(name)
    }
    for key in ("instructions", "cycles"):
        if got[key] != want[key]:
            drift[key] = (want[key], got[key])
    return drift


def _check_matrix(run_point) -> None:
    """Run every fixture point through ``run_point(workload, params)``
    and require the recorded outcome."""
    script = _load_script()
    golden = json.loads(FIXTURE.read_text())
    assert golden["warmup_instructions"] == script.WARMUP
    assert golden["sim_instructions"] == script.SIM
    matrix = script.golden_matrix()
    assert sorted(label for label, _, _ in matrix) == sorted(golden["points"])
    drifted = {}
    for label, workload, params in matrix:
        drift = _drift(run_point(workload, params), golden["points"][label])
        if drift:
            drifted[label] = drift
    assert not drifted, (
        "simulated counters drifted from tests/data/golden_counters.json "
        f"(label: {{counter: (golden, now)}}): {drifted}.  A speed-up must "
        "not change them; for an intended model change, bump "
        "SIM_SCHEMA_VERSION and regenerate with "
        "`PYTHONPATH=src python scripts/make_golden_counters.py`."
    )


def test_counters_match_golden_fixture():
    _check_matrix(_load_script().run_point)


def _observed_reference_point(workload: str, params) -> dict:
    """One point on the reference loop, traced and profiled, with the
    counters only a telemetry run writes stripped."""
    program, stream = make_trace(workload, params.warmup_instructions + params.sim_instructions)
    telemetry = Telemetry(TelemetryConfig(interval_stride=2_000, ring_capacity=256))
    sim = Simulator(params, program, stream, telemetry=telemetry, profiler=StageProfiler())
    result = sim.run(workload, reference=True)
    assert sim.kernel_backend == "interp"
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "counters": dict(sorted(_strip_telemetry(result.stats.as_dict()).items())),
    }


def test_observed_reference_loop_matches_golden_fixture():
    """The fixture's typed-kernel counters, reproduced on every point by
    the reference loop stepping each cycle under telemetry and the
    stage profiler."""
    _check_matrix(_observed_reference_point)


@pytest.mark.parametrize("name", sorted(_load_script().replacement_points()))
def test_replacement_points_evict(name):
    """Each BTB replacement point must exercise eviction (both levels of
    a two-level BTB), or its golden counters cannot pin eviction order."""
    params = _load_script().replacement_points()[name]
    program, stream = make_trace("srv_web", params.warmup_instructions + params.sim_instructions)
    sim = Simulator(params, program, stream)
    sim.run("srv_web")
    btb = sim.bpu.btb
    levels = (btb.l1, btb.l2) if isinstance(btb, TwoLevelBTB) else (btb,)
    assert all(level.evictions > 0 for level in levels), [lvl.evictions for lvl in levels]
