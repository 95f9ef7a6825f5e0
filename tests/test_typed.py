"""Typed flat cycle kernel: eligibility, fallback, and bit-identity.

The typed kernel (:mod:`repro.core.typedkern`) is a hand-flattened
lowering of the schedule-composed interpreted loop for the
uninstrumented feature set.  Its whole contract is *bit-identity*: a
typed run must reproduce the interpreted reference run
(``Simulator.run(reference=True)``) counter-for-counter, so these tests
pin that claim across every registered prefetcher and direction
predictor, through the idle-skip drain extension, and for both warmup
modes -- plus the derived backend choice and the label that records
which backend produced a number.
"""

import logging

import pytest

import repro.core.simulator as simulator
from repro.common.params import SimParams
from repro.core.simulator import Simulator, simulate
from repro.core.typed import (
    backend_name,
    kernel_backend_for_params,
    supported,
    typed_eligible,
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


def run_pair(params, workload=WORKLOAD):
    """(derived-backend result, reference result, derived sim) on one
    shared trace."""
    n = params.warmup_instructions + params.sim_instructions
    program, stream = make_trace(workload, n)
    typed_sim = Simulator(params, program, stream)
    typed = typed_sim.run(workload)
    interp_sim = Simulator(params, program, stream)
    interp = interp_sim.run(workload, reference=True)
    assert interp_sim.kernel_backend == "interp"
    return typed, interp, typed_sim


class TestResolution:
    def test_params_validate_kernel(self):
        # The backend is derived per run: SimParams has no field for it.
        with pytest.raises(TypeError, match="kernel"):
            SimParams(kernel="jit")

    def test_backend_name_is_python_here(self):
        # The test container has no mypyc toolchain, so typedkern runs
        # from its .py source.  A compiled CI environment reports
        # typed-compiled instead; either way the name must be a typed-*.
        assert backend_name() in ("typed-python", "typed-compiled")


class TestEligibility:
    def test_plain_config_is_eligible(self):
        assert typed_eligible(fast())
        assert typed_eligible(fast(prefetcher="perfect"))

    def test_checker_disables(self):
        assert not typed_eligible(fast(check_invariants=True))

    @pytest.mark.parametrize("prefetcher", prefetcher_names())
    def test_dedicated_prefetcher_disables(self, prefetcher):
        assert not typed_eligible(fast(prefetcher=prefetcher))

    def test_backend_label_matches_eligibility(self):
        assert kernel_backend_for_params(fast()) == backend_name()
        assert kernel_backend_for_params(fast(check_invariants=True)) == "interp"

    def test_supported_mirrors_features(self):
        n = 2_500
        program, stream = make_trace(WORKLOAD, n)
        plain = Simulator(fast(), program, stream)
        ok, reason = supported(plain)
        assert ok and reason == ""
        checked = Simulator(fast(check_invariants=True), program, stream)
        ok, reason = supported(checked)
        assert not ok and "interpreted" in reason


class TestTypedInterpIdentity:
    def test_default_workload(self):
        typed, interp, sim = run_pair(fast())
        assert sim.kernel_backend == backend_name()
        identity(typed, interp)

    def test_simulate_uses_typed_by_default(self, monkeypatch):
        # The backend is derived, so the public entry point exercises
        # the typed backend without opt-in.
        ran = []
        real = simulator.typed_kernel

        def spy(sim, *args):
            ran.append(sim)
            real(sim, *args)

        monkeypatch.setattr(simulator, "typed_kernel", spy)
        result = simulate(WORKLOAD, fast())
        assert len(ran) == 1 and ran[0].kernel_backend == backend_name()
        program, stream = make_trace(WORKLOAD, 2_500)
        identity(result, Simulator(fast(), program, stream).run(WORKLOAD, reference=True))

    @pytest.mark.parametrize("prefetcher", ["none", "perfect", *prefetcher_names()])
    def test_every_prefetcher(self, prefetcher):
        # Dedicated prefetchers compose a feature into the schedule, so
        # the derived backend *falls back* to interp (still bit-identical
        # -- trivially, but the backend label must say so).
        typed, interp, sim = run_pair(fast(prefetcher=prefetcher))
        if prefetcher in ("none", "perfect"):
            assert sim.kernel_backend == backend_name()
        else:
            assert sim.kernel_backend == "interp"
        identity(typed, interp)

    @pytest.mark.parametrize("direction", ["tage", "gshare", "perceptron", "perfect"])
    def test_every_direction_predictor(self, direction):
        params = fast().with_branch(
            direction_kind=direction, perfect_direction=direction == "perfect"
        )
        typed, interp, sim = run_pair(params)
        assert sim.kernel_backend == backend_name()
        identity(typed, interp)

    def test_functional_warmup(self):
        typed, interp, _ = run_pair(fast(warmup_mode="functional"))
        identity(typed, interp)

    def test_perfect_btb_and_two_level(self):
        typed, interp, _ = run_pair(fast().with_branch(perfect_btb=True))
        identity(typed, interp)
        typed, interp, _ = run_pair(fast().with_branch(btb_l1_entries=256))
        identity(typed, interp)

    def test_pfc_and_history_variants(self):
        typed, interp, _ = run_pair(fast().with_frontend(pfc_enabled=True))
        identity(typed, interp)
        typed, interp, _ = run_pair(fast().with_frontend(wrong_path_fills=False))
        identity(typed, interp)

    def test_idle_skip_drain_stretch(self):
        # A tiny FTQ with a large mispredict penalty and few MSHRs
        # produces long stalled stretches where the decode queue drains
        # while fetch is blocked -- the bandwidth-bound drain extension
        # (Simulator._drain_to and its typedkern twin) is the hot path
        # here, and starvation accounting must match cycle-for-cycle.
        params = (
            fast()
            .with_frontend(ftq_entries=2, decode_queue_size=32)
            .replace(core=fast().core.__class__(retire_width=8, mispredict_penalty=20))
        )
        typed, interp, _ = run_pair(params)
        identity(typed, interp)
        assert typed.stats.get("starvation_cycles") > 0

    def test_small_mshr_pressure(self):
        params = fast().replace(
            memory=fast().memory.__class__(mshr_entries=2, l1i_kib=16)
        )
        typed, interp, _ = run_pair(params)
        identity(typed, interp)


class TestRunRecordsBackend:
    def test_interp_run_records_interp(self):
        n = 2_500
        program, stream = make_trace(WORKLOAD, n)
        sim = Simulator(fast(), program, stream)
        sim.run(WORKLOAD, reference=True)
        assert sim.kernel_backend == "interp"

    def test_featured_run_falls_back(self):
        n = 2_500
        program, stream = make_trace(WORKLOAD, n)
        sim = Simulator(fast(check_invariants=True), program, stream)
        sim.run(WORKLOAD)
        assert sim.kernel_backend == "interp"

    def test_fallback_reason_logged(self, caplog, monkeypatch):
        # configure() stops the repro logger propagating to the root,
        # where caplog listens; let records through for this test.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        program, stream = make_trace(WORKLOAD, 2_500)
        sim = Simulator(fast(prefetcher="djolt"), program, stream)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            sim.run(WORKLOAD)
        assert sim.kernel_backend == "interp"
        [record] = [r for r in caplog.records if r.name == "repro.core.simulator"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert WORKLOAD in message and "djolt" in message
        assert supported(sim)[1] in message

    def test_typed_and_reference_runs_log_nothing(self, caplog, monkeypatch):
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        program, stream = make_trace(WORKLOAD, 2_500)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            Simulator(fast(), program, stream).run(WORKLOAD)
            Simulator(fast(prefetcher="djolt"), program, stream).run(
                WORKLOAD, reference=True
            )
        assert not [r for r in caplog.records if r.name == "repro.core.simulator"]
