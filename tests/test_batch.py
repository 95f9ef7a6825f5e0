"""Lockstep batch simulation: bit-identity, fallback, and grouping.

The whole batching layer rests on one claim: a batched run is
bit-identical to the scalar run of the same configuration (the stepping
kernel is generated from the same schedule as the scalar kernel).  These
tests pin that claim across every registered prefetcher and direction
predictor, for mixed-config batches, and through the sweep runner's
transparent batch grouping.
"""

import pytest

from repro.common.params import SimParams
from repro.common.telemetry import Telemetry, TelemetryConfig
from repro.core.batch import batchable, run_batch, simulate_batch
from repro.core.simulator import Simulator, simulate
from repro.experiments import runner
from repro.experiments.runner import (
    _plan_batches,
    batch_width,
    batching_enabled,
    clear_cache,
    run_matrix,
)
from repro.prefetch import prefetcher_names
from repro.trace.workloads import make_trace

WORKLOAD = "srv_web"


def fast(**kwargs):
    kwargs.setdefault("warmup_instructions", 500)
    kwargs.setdefault("sim_instructions", 2_000)
    return SimParams(**kwargs)


def identity(a, b):
    """Full bit-identity between two RunResults."""
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.ipc == b.ipc
    assert a.stats.as_dict() == b.stats.as_dict()


@pytest.fixture(autouse=True)
def isolated(monkeypatch, tmp_path):
    """Fresh memo + private disk cache directory per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    yield
    clear_cache()


class TestBatchableFallback:
    def test_plain_config_is_batchable(self):
        ok, reason = batchable(fast())
        assert ok and reason == ""

    def test_invariant_checking_forces_scalar(self):
        ok, reason = batchable(fast(check_invariants=True))
        assert not ok and "invariant" in reason

    def test_telemetry_forces_scalar(self):
        tel = Telemetry(TelemetryConfig())
        ok, reason = batchable(fast(), telemetry=tel)
        assert not ok and "telemetry" in reason

    def test_simulate_batch_rejects_non_batchable(self):
        with pytest.raises(ValueError, match="not batchable"):
            simulate_batch(WORKLOAD, [fast(check_invariants=True)])

    def test_simulate_batch_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="shared trace length"):
            simulate_batch(WORKLOAD, [fast(), fast(warmup_instructions=1_000)])


class TestBatchedScalarIdentity:
    @pytest.mark.parametrize("prefetcher", ["none", "perfect", *prefetcher_names()])
    def test_every_prefetcher(self, prefetcher):
        params = fast(prefetcher=prefetcher)
        scalar = simulate(WORKLOAD, params)
        for result in simulate_batch(WORKLOAD, [params, params]):
            identity(result, scalar)

    @pytest.mark.parametrize("direction", ["tage", "gshare", "perceptron", "perfect"])
    def test_every_direction_predictor(self, direction):
        params = fast().with_branch(
            direction_kind=direction, perfect_direction=direction == "perfect"
        )
        scalar = simulate(WORKLOAD, params)
        for result in simulate_batch(WORKLOAD, [params, params]):
            identity(result, scalar)

    def test_mixed_config_batch(self):
        # Members need not share a configuration -- each instance steps
        # its own specialized kernel; only the trace is shared.
        variants = [
            fast(),
            fast().with_frontend(ftq_entries=4),
            fast(prefetcher="djolt"),
            fast().with_branch(perfect_btb=True),
        ]
        batched = simulate_batch(WORKLOAD, variants)
        for params, result in zip(variants, batched):
            identity(result, simulate(WORKLOAD, params))

    def test_functional_warmup_batch(self):
        params = fast(warmup_mode="functional")
        scalar = simulate(WORKLOAD, params)
        for result in simulate_batch(WORKLOAD, [params, params]):
            identity(result, scalar)

    def test_run_batch_preserves_input_order(self):
        params_a, params_b = fast(), fast().with_frontend(ftq_entries=4)
        n = 2_500
        program, stream = make_trace(WORKLOAD, n)
        sims = [Simulator(p, program, stream) for p in (params_a, params_b)]
        results = run_batch(sims, [WORKLOAD, WORKLOAD])
        identity(results[0], simulate(WORKLOAD, params_a))
        identity(results[1], simulate(WORKLOAD, params_b))
        assert results[0].workload == WORKLOAD

    def test_run_batch_name_count_mismatch(self):
        with pytest.raises(ValueError, match="one workload name"):
            run_batch([], ["extra"])


class TestRunnerBatching:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert batching_enabled()
        for off in ("0", "false", "no"):
            monkeypatch.setenv("REPRO_BATCH", off)
            assert not batching_enabled()
        monkeypatch.setenv("REPRO_BATCH", "1")
        assert batching_enabled()

    def test_width_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_WIDTH", raising=False)
        assert batch_width() == 8
        monkeypatch.setenv("REPRO_BATCH_WIDTH", "3")
        assert batch_width() == 3
        monkeypatch.setenv("REPRO_BATCH_WIDTH", "1")
        assert batch_width() == 2  # lockstep needs at least two members

    def test_plan_batches_groups_by_workload_and_length(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_BATCH_WIDTH", "2")
        # Every unchecked point is typed-eligible and kept scalar (see
        # the next test); pretend none is, to reach the grouping.
        monkeypatch.setattr(runner, "typed_eligible", lambda params: False)
        djolt = fast(prefetcher="djolt")
        pending = {
            "a1": ("srv_web", djolt),
            "a2": ("srv_web", djolt.with_frontend(ftq_entries=4)),
            "a3": ("srv_web", fast(prefetcher="fnl_mma")),
            "b1": ("srv_db", djolt),
            "len": ("srv_web", fast(prefetcher="djolt", warmup_instructions=1_000)),
            "chk": ("srv_web", fast(prefetcher="djolt", check_invariants=True)),
        }
        batches, singles = _plan_batches(pending)
        # a1+a2 batch; a3 overflows width 2 into a singleton; b1 and
        # "len" have no same-(workload, length) partner; "chk" is not
        # batchable.
        assert batches == [["a1", "a2"]]
        assert sorted(singles) == ["a3", "b1", "chk", "len"]

    def test_plan_batches_prefers_typed_scalar(self, monkeypatch):
        # Typed-eligible points skip batching entirely: the typed scalar
        # path is faster than the batched interpreted path.  Dedicated
        # prefetchers run on the typed kernel too, so no point batches.
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_BATCH_WIDTH", "2")
        pending = {
            "t1": ("srv_web", fast()),
            "t2": ("srv_web", fast().with_frontend(ftq_entries=4)),
        }
        for name in prefetcher_names():
            pending[name] = ("srv_web", fast(prefetcher=name))
        batches, singles = _plan_batches(pending)
        assert batches == []
        assert sorted(singles) == sorted(pending)

    def test_plan_batches_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "0")
        batches, singles = _plan_batches({"a1": ("srv_web", fast())})
        assert batches == [] and singles == ["a1"]

    def test_run_matrix_batched_matches_scalar(self, monkeypatch):
        configs = {
            "base": fast(),
            "small_ftq": fast().with_frontend(ftq_entries=4),
            "djolt": fast(prefetcher="djolt"),
        }
        workloads = ["srv_web", "srv_db"]

        def flatten(results):
            return {
                (label, wl): (r.instructions, r.cycles, r.stats.as_dict())
                for label, row in results.items()
                for wl, r in row.items()
            }

        monkeypatch.setenv("REPRO_BATCH", "0")
        scalar = flatten(run_matrix(configs, workloads, jobs=1))
        clear_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", "")  # keep caches apart
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_BATCH_WIDTH", "2")
        batched = flatten(run_matrix(configs, workloads, jobs=1))
        assert batched == scalar


class TestCheckIntegration:
    def test_check_workload_batched_clean(self):
        from repro.check import check_workload_batched

        report = check_workload_batched(WORKLOAD, fast())
        assert report.workload == WORKLOAD
        assert report.branches_checked > 0
        assert report.committed_instructions >= 2_500

    def test_check_cli_batched(self, capsys):
        from repro.cli import main

        rc = main([
            "check", "--batched",
            "--workloads", WORKLOAD,
            "--warmup", "500",
            "--instructions", "2000",
        ])
        assert rc == 0
        assert "(batched)" in capsys.readouterr().out
