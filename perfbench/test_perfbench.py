"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import time

import pytest

from perfbench import bench, run
from perfbench.tracer import Tracer, self_times

TINY = (300, 1200)
"""(warmup, measured) windows small enough for a smoke run."""


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """A fresh process's state: empty trace memo and workload registry,
    run outputs under ``tmp_path``, and the environment restored after."""
    from repro.trace.source import clear_registered_workloads

    clear_registered_workloads()
    saved = dict(os.environ)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    bench.isolate_env(tmp_path / "setup-cache")
    yield tmp_path
    os.environ.clear()
    os.environ.update(saved)


def _measure(workload: str, tmp_path, seed: int = 5, trace: int = 0) -> dict:
    args = run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    )
    return run.measure(args, tmp_path / f"scratch-{workload}-{trace}", windows=TINY)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_subtract_only_direct_children():
    spans = [
        ["pass", 0.0, 10.0, -1, None],
        ["runner", 1.0, 4.0, 0, None],
        ["kernel.typed", 2.0, 3.0, 1, None],
        ["runner", 5.0, 9.0, 0, None],
        ["kernel.typed", 5.5, 8.5, 3, None],
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"pass": 3.0, "runner": 3.0, "kernel.typed": 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_times_of_a_slice_ignore_earlier_subtrees():
    spans = [
        ["setup", 0.0, 2.0, -1, None],
        ["trace.oracle", 0.5, 1.5, 0, None],
        ["pass", 3.0, 7.0, -1, None],
        ["build", 4.0, 5.0, 2, None],
    ]
    assert self_times(spans, 0, 2) == pytest.approx({"setup": 1.0, "trace.oracle": 1.0})
    assert self_times(spans, 2) == pytest.approx({"pass": 3.0, "build": 1.0})


def test_spans_nest_and_inherit_their_point():
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("simulate", "srv_web/fdp"):
            with tracer.span("kernel.typed"):
                pass
    layers = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert layers == [
        ("pass", -1, None),
        ("simulate", 0, "srv_web/fdp"),
        ("kernel.typed", 1, "srv_web/fdp"),
    ]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_uninstall_restores_every_patched_binding():
    class Owner:
        value = "original"

    tracer = Tracer()
    tracer.patch(Owner, "value", "patched")
    tracer.patch(Owner, "value", "patched twice")
    tracer.uninstall()
    assert Owner.value == "original"


def test_speed_clock_weights_time_by_host_speed(monkeypatch):
    from perfbench import hostspeed

    # A host at half the reference speed: every calibration takes twice as long.
    monkeypatch.setattr(hostspeed, "calibration_snippet", lambda: 2 * hostspeed.REFERENCE_CAL_S)
    with hostspeed.SpeedClock() as clock:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(clock.samples) >= 3  # ticks fired during the body
    assert 0.25 < clock.wall_s < 0.5
    assert clock.reference_s == pytest.approx(clock.wall_s / 2)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_check_pass_names_each_bad_point():
    result = bench.PassResult(
        1.0, 1.0, 3, 0, {"a|x": (10, 20), "b|x": (10, 21)}, {"c|x": "RuntimeError: boom"}
    )
    reference = {"a|x": (10, 20), "b|x": (10, 20), "c|x": (1, 1)}
    failures = bench.check_pass(result, reference, expected=None)
    assert set(failures) == {"b|x", "c|x"}
    assert "first pass" in failures["b|x"]
    expected = {"a|x": [10, 19], "b|x": [10, 21], "c|x": [1, 1]}
    failures = bench.check_pass(result, result.outputs, expected)
    assert set(failures) == {"a|x", "c|x"}


def test_tampered_expected_value_counts_in_fail_frac(isolated, monkeypatch):
    # Record the tiny-window outputs as "expected", then tamper with one.
    workload = bench.setup("oneshot", bench.DEFAULT_SEED, windows=TINY)
    outputs = bench.run_pass(workload, isolated / "record").outputs
    expected = {key: list(value) for key, value in outputs.items()}
    victim = sorted(expected)[0]
    expected[victim][1] += 1
    monkeypatch.setattr(bench, "load_expected", lambda name: expected)

    report = _measure("oneshot", isolated, seed=bench.DEFAULT_SEED)
    assert report["checked_against_expected"]
    assert report["fail_frac"] == pytest.approx(1 / len(outputs))
    assert [point.split(": ", 1)[1] for point in report["failures"]] == [victim]


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def test_seed_derivation_is_deterministic_and_distinct():
    assert bench.derived_seed(3, "srv_web", "program") == bench.derived_seed(3, "srv_web", "program")
    seeds = {
        bench.derived_seed(seed, wl, role)
        for seed in (1, 2)
        for wl in ("srv_web", "srv_db")
        for role in ("program", "oracle")
    }
    assert len(seeds) == 8


def test_default_seed_is_the_catalogue():
    from repro.trace.workloads import default_workloads

    assert bench.register_seeded(bench.DEFAULT_SEED) == {w.name: w.name for w in default_workloads()}
    assert bench.CATALOGUE == tuple(w.name for w in default_workloads())


@pytest.mark.parametrize("name", ["fdp-sweep", "prefetch-sweep"])
def test_point_lists_are_deterministic(name):
    seeded = bench.register_seeded(9)
    assert bench.register_seeded(9) == seeded
    assert set(seeded.values()) == {f"{w}.s9" for w in bench.CATALOGUE}

    from repro.experiments.spec import expand

    first = [p.point_id for p in expand(bench.load_sweep_spec(name, seeded, TINY))]
    again = [p.point_id for p in expand(bench.load_sweep_spec(name, seeded, TINY))]
    default = bench.register_seeded(bench.DEFAULT_SEED)
    catalogue = [p.point_id for p in expand(bench.load_sweep_spec(name, default, TINY))]
    assert first == again
    assert len(first) == len(catalogue) == len(set(first) | set(catalogue)) // 2


def test_expected_values_cover_every_default_point():
    from repro.experiments.spec import expand

    names = bench.register_seeded(bench.DEFAULT_SEED)
    for name in ("fdp-sweep", "prefetch-sweep"):
        spec = bench.load_sweep_spec(name, names, None)
        keys = {f"{p.workload}|{p.label}" for p in expand(spec)}
        assert set(bench.load_expected(name)) == keys
    assert len(bench.load_expected("oneshot")) == len(bench.CATALOGUE) + 1


def test_benchmark_json_lists_what_the_run_prints():
    import json

    config = json.loads((bench.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(bench.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert list(per_layer) == list(run.PER_LAYER_METRICS)
    assert all(per_layer[name] == run.layer_unit(name) for name in per_layer)
    report = {"wall_s": {"median": 1.0}, "setup_s": {"median": 1.0}, "sim_kips": 1.0, "peak_rss_mib": 1.0}
    units = {name: m["unit"] for name, m in run.end_to_end_metrics(report).items()}
    assert units == {m["name"]: m["unit"] for m in config["end_to_end"]}


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_untraced(isolated, workload):
    report = _measure(workload, isolated)
    assert report["failures"] == {}
    metrics = run.end_to_end_metrics(report)
    assert set(metrics) == {"wall_s", "setup_s", "sim_kips", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_traced(isolated, workload):
    report = _measure(workload, isolated, trace=1)
    # Traced passes are checked against the untraced first pass.
    assert report["failures"] == {}
    layers = report["layers"]
    assert set(layers) == set(run.PER_LAYER_METRICS)
    assert layers["cache.hit_ratio"] == 0
    if workload == "fdp-sweep":
        assert layers["kernel.interp_runs"] == layers["batch.units"] == 0
        assert layers["kernel.typed_runs"] == report["points_per_pass"]
    elif workload == "prefetch-sweep":
        assert layers["kernel.typed_runs"] == 0
        assert layers["batch.units"] > 0
        assert layers["cache.lookups"] == report["points_per_pass"]
    else:
        assert layers["trace.champsim_s"] > 0
        assert layers["trace.materializations"] == report["points_per_pass"]
    assert (isolated / f"spans-{workload}-seed5.jsonl").is_file()
