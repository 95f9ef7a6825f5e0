"""Typed flat cycle kernel: eligibility, fallback, and bit-identity.

The typed kernel (:mod:`repro.core.typedkern`) is a hand-flattened
lowering of the written-out reference loop for every run
without an observer, dedicated prefetchers included.  Its whole
contract is *bit-identity*: a typed run must reproduce the interpreted
reference run (``Simulator.run(reference=True)``) counter-for-counter,
so these tests pin that claim across every registered prefetcher and
direction predictor, through the typed kernel's idle skip and drain
against a reference that steps every cycle (including the drain's
stop for prefetchers that train on committed branches), through
every outcome of the inlined prefetch issue stage, under MSHR
pressure with one and two MSHRs (where the kernel's MSHR wake moves
on nearly every fill, also behind its back at the drain's stops), and
for both warmup modes -- plus the derived backend choice and the
label that records which backend produced a number.
"""

import logging

import pytest

import repro.core.simulator as simulator
from repro.common.params import SimParams
from repro.cli import main
from repro.core.simulator import Simulator, simulate
from repro.core.typed import backend_name, kernel_backend_for_params, supported
from repro.experiments.configs import QUICK_WORKLOADS
from repro.prefetch import Prefetcher, prefetcher_names
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


def component_counters(sim):
    """The L1I's and MSHR file's own counters (not in the StatSet)."""
    l1i, mshrs = sim.memory.l1i, sim.memory.mshrs
    return {
        "tag_probes": l1i.tag_probes,
        "hits": l1i.hits,
        "misses": l1i.misses,
        "allocations": mshrs.allocations,
        "merges": mshrs.merges,
        "peak_occupancy": mshrs.peak_occupancy,
    }


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
        assert kernel_backend_for_params(fast()) == backend_name()
        assert kernel_backend_for_params(fast(prefetcher="perfect")) == backend_name()

    def test_checker_disables(self):
        assert kernel_backend_for_params(fast(check_invariants=True)) == "interp"

    @pytest.mark.parametrize("prefetcher", prefetcher_names())
    def test_dedicated_prefetcher_disables(self, prefetcher):
        # It does not: the typed kernel lowers the prefetcher's hook
        # points, so only observers force the interpreted kernel.
        assert kernel_backend_for_params(fast(prefetcher=prefetcher)) == backend_name()

    def test_backend_label_matches_eligibility(self):
        # The label derived from params names the backend a run takes.
        program, stream = make_trace(WORKLOAD, 2_500)
        for params in (fast(), fast(prefetcher="djolt"), fast(check_invariants=True)):
            sim = Simulator(params, program, stream)
            sim.run()
            assert kernel_backend_for_params(params) == sim.kernel_backend

    def test_supported_mirrors_features(self):
        n = 2_500
        program, stream = make_trace(WORKLOAD, n)
        plain = Simulator(fast(), program, stream)
        ok, reason = supported(plain)
        assert ok and reason == ""
        prefetched = Simulator(fast(prefetcher="eip128"), program, stream)
        assert prefetched.prefetcher is not None
        assert supported(prefetched) == (True, "")
        checked = Simulator(fast(check_invariants=True), program, stream)
        ok, reason = supported(checked)
        assert not ok and "interpreted" in reason

    def test_kernel_command_names_the_observers(self, capsys):
        assert main(["kernel"]) == 0
        [rule] = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("a run uses:")
        ]
        assert rule.endswith("interp under checker, profile, telemetry")


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
        # The reference kernel steps every cycle, so this also pins the
        # typed idle skip's prefetcher guard: it may skip only while the
        # prefetch queue is empty.
        typed, interp, sim = run_pair(fast(prefetcher=prefetcher))
        assert sim.kernel_backend == backend_name()
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

    @pytest.mark.parametrize("prefetcher", ["none", "djolt", "rdip", "profile_guided"])
    @pytest.mark.parametrize("workload", QUICK_WORKLOADS)
    def test_idle_skip_drain_stretch(self, workload, prefetcher):
        # A tiny FTQ with a large mispredict penalty and few MSHRs
        # produces long stalled stretches where the decode queue drains
        # while fetch is blocked -- the typed kernel's bandwidth-bound
        # drain is the hot path here, and its starvation accounting must
        # match the reference kernel, which steps every cycle.
        # djolt / rdip / profile_guided enqueue from committed branches,
        # so the typed drain must also stop at the first cycle whose
        # commits fill the prefetch queue.
        params = (
            fast(prefetcher=prefetcher)
            .with_frontend(ftq_entries=2, decode_queue_size=32)
            .replace(core=fast().core.__class__(retire_width=8, mispredict_penalty=20))
        )
        typed, interp, sim = run_pair(params, workload)
        assert sim.kernel_backend == backend_name()
        identity(typed, interp)
        assert typed.stats.get("starvation_cycles") > 0

    def test_small_mshr_pressure(self):
        params = fast().replace(
            memory=fast().memory.__class__(mshr_entries=2, l1i_kib=16)
        )
        typed, interp, _ = run_pair(params)
        identity(typed, interp)

    @pytest.mark.parametrize(
        "prefetcher, mshrs, l1i_kib",
        [
            ("nl1", 2, 16),
            ("eip128", 2, 16),
            ("fnl_mma", 2, 16),
            ("eip128", 1, 32),
            ("fnl_mma", 1, 32),
        ],
        ids=["nl1", "eip128", "fnl_mma", "eip128-1mshr", "fnl_mma-1mshr"],
    )
    def test_small_mshr_pressure_issue_paths(self, prefetcher, mshrs, l1i_kib):
        # The typed kernel inlines the prefetch issue stage
        # (Prefetcher.cycle -> InstructionMemory.prefetch_line); two
        # MSHRs and a 16 KiB L1I drive every one of its four outcomes,
        # so a reordered or dropped branch breaks identity here.  With
        # one MSHR every miss and prefetch contends for the single
        # fill, so the kernel's MSHR wake moves on nearly every
        # allocation and completion.
        params = fast(prefetcher=prefetcher).with_memory(mshr_entries=mshrs, l1i_kib=l1i_kib)
        program, stream = make_trace(WORKLOAD, 2_500)
        typed_sim = Simulator(params, program, stream)
        typed = typed_sim.run(WORKLOAD)
        ref_sim = Simulator(params, program, stream)
        ref = ref_sim.run(WORKLOAD, reference=True)
        assert typed_sim.kernel_backend == backend_name()
        identity(typed, ref)
        for outcome in ("redundant", "inflight_merge", "mshr_reject", "issued"):
            assert typed.stats.get(f"prefetch_{outcome}") > 0, outcome
        # The issue stage also updates component-level counters that a
        # RunResult does not carry.
        assert component_counters(typed_sim) == component_counters(ref_sim)
        # The kernel keeps the MSHR file's wake exact.
        assert typed_sim.memory.mshrs.validate() == []

    @pytest.mark.parametrize(
        "prefetcher, memory, windows",
        [
            # D-JOLT prefetches only once call contexts recur.
            ("djolt", {"mshr_entries": 2, "l1i_kib": 16}, (20_000, 40_000)),
            ("profile_guided", {"mshr_entries": 1}, (500, 2_000)),
            ("rdip", {"mshr_entries": 1}, (500, 2_000)),
        ],
        ids=["djolt-2mshr", "profile_guided-1mshr", "rdip-1mshr"],
    )
    def test_drain_stop_issues_under_mshr_pressure(
        self, prefetcher, memory, windows, monkeypatch
    ):
        # These prefetchers enqueue from committed branches, so the
        # typed drain stops and issues through Prefetcher.cycle, which
        # allocates behind the kernel's back: the kernel must re-read
        # the MSHR file's wake after it.
        params = fast(
            prefetcher=prefetcher, warmup_instructions=windows[0], sim_instructions=windows[1]
        ).with_memory(**memory)
        program, stream = make_trace(WORKLOAD, sum(windows))
        stop_issues = []
        issue_stage = Prefetcher.cycle

        def counted(prefetcher, cycle):
            before = prefetcher.memory.mshrs.allocations
            issue_stage(prefetcher, cycle)
            stop_issues.append(prefetcher.memory.mshrs.allocations - before)

        monkeypatch.setattr(Prefetcher, "cycle", counted)
        typed_sim = Simulator(params, program, stream)
        typed = typed_sim.run(WORKLOAD)
        monkeypatch.undo()
        assert typed_sim.kernel_backend == backend_name()
        assert sum(stop_issues) > 0, stop_issues
        ref_sim = Simulator(params, program, stream)
        identity(typed, ref_sim.run(WORKLOAD, reference=True))
        assert component_counters(typed_sim) == component_counters(ref_sim)
        assert typed_sim.memory.mshrs.validate() == []

    def test_no_prefetcher_overrides_issue_stage(self):
        # The typed kernel inlines Prefetcher.cycle (it calls the method
        # only at its drain's rare stop), so an override would make the
        # two kernels diverge.
        program, stream = make_trace(WORKLOAD, 2_500)
        for name in prefetcher_names():
            prefetcher = Simulator(fast(prefetcher=name), program, stream).prefetcher
            assert type(prefetcher).cycle is Prefetcher.cycle, name


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

    def test_fallback_reason_logged(self, caplog, repro_records):
        program, stream = make_trace(WORKLOAD, 2_500)
        sim = Simulator(fast(check_invariants=True), program, stream)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            sim.run(WORKLOAD)
        assert sim.kernel_backend == "interp"
        [record] = [r for r in caplog.records if r.name == "repro.core.simulator"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert WORKLOAD in message and "checker" in message
        assert supported(sim)[1] in message

    def test_typed_and_reference_runs_log_nothing(self, caplog, repro_records):
        program, stream = make_trace(WORKLOAD, 2_500)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            Simulator(fast(), program, stream).run(WORKLOAD)
            Simulator(fast(prefetcher="djolt"), program, stream).run(WORKLOAD)
            Simulator(fast(prefetcher="djolt"), program, stream).run(
                WORKLOAD, reference=True
            )
        assert not [r for r in caplog.records if r.name == "repro.core.simulator"]
