"""Tests for the registry-driven build layer (repro.core.build)."""

import pytest

from repro.branch.btb import BTB
from repro.branch.btb2l import TwoLevelBTB
from repro.branch.gshare import Gshare
from repro.branch.perceptron import Perceptron
from repro.branch.tage import TAGE
from repro.common.params import (
    BranchPredictorParams,
    DirectionPredictorKind,
    HistoryPolicy,
    SimParams,
)
from repro.common.registry import Registry
from repro.core.build import (
    SimBuilder,
    btb_variants,
    direction_predictors,
    history_policies,
    resolve_btb_variant,
    resolve_components,
)
from repro.prefetch import prefetchers
from repro.trace.workloads import make_trace


class TestRegistry:
    def test_register_and_create(self):
        reg = Registry("widget")
        reg.register("a", lambda x: x + 1)
        assert reg.create("a", 1) == 2
        assert "a" in reg
        assert reg.names() == ["a"]

    def test_decorator_registration(self):
        reg = Registry("widget")

        @reg.register("dec")
        def factory():
            return 7

        assert factory() == 7  # decorator returns the object unchanged
        assert reg.create("dec") == 7

    def test_unknown_name_lists_known(self):
        reg = Registry("widget")
        reg.register("a", object())
        reg.register("b", object())
        with pytest.raises(ValueError, match=r"unknown widget 'zzz'; known: a, b"):
            reg.get("zzz")

    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.register("a", object())
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", object())

    def test_unregister_roundtrip(self):
        reg = Registry("widget")
        sentinel = object()
        reg.register("a", sentinel)
        assert reg.unregister("a") is sentinel
        assert "a" not in reg
        reg.register("a", sentinel)  # name is reusable after unregister
        assert reg.get("a") is sentinel

    def test_create_rejects_non_factory(self):
        reg = Registry("widget")
        reg.register("raw", object())
        with pytest.raises(TypeError, match="not a factory"):
            reg.create("raw")

    def test_iteration_and_len(self):
        reg = Registry("widget")
        reg.register("b", object())
        reg.register("a", object())
        assert list(reg) == ["a", "b"]
        assert len(reg) == 2


class TestDirectionPredictorRegistry:
    def test_builtin_names_registered(self):
        for kind in DirectionPredictorKind:
            assert kind.value in direction_predictors

    def test_roundtrip_types(self):
        branch = BranchPredictorParams()
        assert isinstance(direction_predictors.create("tage", branch, 64), TAGE)
        assert isinstance(direction_predictors.create("gshare", branch, 64), Gshare)
        assert isinstance(direction_predictors.create("perceptron", branch, 64), Perceptron)
        assert direction_predictors.create("perfect", branch, 64) is None

    def test_unknown_name_error_path(self):
        with pytest.raises(ValueError, match="unknown direction predictor 'nope'"):
            direction_predictors.get("nope")


class TestHistoryPolicyRegistry:
    def test_all_policies_registered_by_value(self):
        for policy in HistoryPolicy:
            assert history_policies.get(policy.value) is policy

    def test_unknown_name_error_path(self):
        with pytest.raises(ValueError, match="unknown history policy 'nope'"):
            history_policies.get("nope")


class TestBtbVariantRegistry:
    def test_single_roundtrip(self):
        btb = btb_variants.create("single", BranchPredictorParams())
        assert isinstance(btb, BTB)

    def test_two_level_roundtrip(self):
        branch = BranchPredictorParams(btb_l1_entries=64)
        btb = btb_variants.create("two_level", branch)
        assert isinstance(btb, TwoLevelBTB)

    def test_two_level_requires_l1(self):
        with pytest.raises(ValueError, match="btb_l1_entries"):
            btb_variants.create("two_level", BranchPredictorParams())

    def test_unknown_name_error_path(self):
        with pytest.raises(ValueError, match="unknown BTB variant 'nope'"):
            btb_variants.get("nope")

    def test_auto_resolution(self):
        assert resolve_btb_variant(BranchPredictorParams()) == "single"
        assert resolve_btb_variant(BranchPredictorParams(btb_l1_entries=64)) == "two_level"


class TestPrefetcherRegistry:
    def test_known_names(self):
        for name in ("nl1", "eip128", "djolt", "rdip"):
            assert name in prefetchers

    def test_unknown_name_error_path(self):
        with pytest.raises(ValueError, match="unknown prefetcher 'nope'"):
            prefetchers.get("nope")


class TestResolveComponents:
    def test_default_params_resolve(self):
        names = resolve_components(SimParams())
        assert names == {
            "direction": "tage",
            "history": "THR",
            "btb": "single",
            "prefetcher": "none",
        }

    def test_special_prefetcher_names_pass(self):
        resolve_components(SimParams(prefetcher="perfect"))
        resolve_components(SimParams(prefetcher="nl1"))

    def test_unknown_prefetcher_fails_fast(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            resolve_components(SimParams(prefetcher="bogus"))

    def test_unknown_direction_fails_fast(self):
        params = SimParams().with_branch(direction_kind="bogus")
        with pytest.raises(ValueError, match="unknown direction predictor"):
            resolve_components(params)


class TestSimBuilder:
    def test_build_matches_direct_construction(self):
        params = SimParams(warmup_instructions=1_000, sim_instructions=2_000)
        program, stream = make_trace("spc_fp", 3_000)
        sim = SimBuilder(params, program, stream).build()
        assert isinstance(sim.btb, BTB)
        assert sim.prefetcher is None
        assert sim.checker is None
        result = sim.run(workload_name="spc_fp")
        assert result.instructions > 0

    def test_two_level_btb_via_registry_path(self):
        params = SimParams(warmup_instructions=1_000, sim_instructions=2_000).with_branch(
            btb_l1_entries=64
        )
        program, stream = make_trace("spc_fp", 3_000)
        sim = SimBuilder(params, program, stream).build()
        assert isinstance(sim.btb, TwoLevelBTB)
        assert sim.run().instructions > 0

    def test_hooks_declared(self):
        params = SimParams(
            warmup_instructions=1_000, sim_instructions=2_000, prefetcher="nl1"
        ).with_branch(loop_predictor_entries=64)
        program, stream = make_trace("spc_fp", 3_000)
        sim = SimBuilder(params, program, stream).build()
        assert sim.loop.flush_spec in sim.hooks.spec_sync
        assert sim.prefetcher.reset_queue in sim.hooks.warmup_boundary
        assert "prefetcher" in sim.observables

    def test_observables_cover_core_components(self):
        params = SimParams(warmup_instructions=1_000, sim_instructions=2_000)
        program, stream = make_trace("spc_fp", 3_000)
        sim = SimBuilder(params, program, stream).build()
        assert set(sim.observables) == {"ftq", "bpu", "fetch", "backend", "memory"}


_PLAIN = SimParams(warmup_instructions=1_000, sim_instructions=2_000)


def _plain_id(params):
    kind = params.branch.direction_kind
    return f"{params.prefetcher}-{getattr(kind, 'value', kind)}"


@pytest.mark.parametrize(
    "params, traced",
    [
        pytest.param(params, False, id=_plain_id(params))
        for params in [
            *(_PLAIN.replace(prefetcher=name) for name in ["none", "perfect", *prefetchers.names()]),
            # The registered oracle predictor runs only with perfect_direction.
            *(
                _PLAIN.with_branch(direction_kind=name, perfect_direction=name == "perfect")
                for name in direction_predictors.names()
            ),
        ]
    ]
    + [
        # Observers point back at the simulator until the run ends.
        pytest.param(_PLAIN.replace(check_invariants=True), False, id="checked"),
        pytest.param(_PLAIN, True, id="traced"),
    ],
)
def test_finished_simulator_freed_without_cyclic_gc(params, traced):
    """A finished simulator holds no reference cycle: dropping the last
    reference frees it at once, without waiting for a cyclic-GC pass."""
    import gc
    import weakref

    from repro.common.telemetry import Telemetry

    program, stream = make_trace("srv_web", 3_000)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim = SimBuilder(params, program, stream).build(
            telemetry=Telemetry() if traced else None
        )
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()



def test_failed_run_frees_simulator_without_cyclic_gc():
    """A checked, traced run that raises also leaves no reference cycle:
    the observers let go of the simulator when the kernel raises."""
    import gc
    import weakref

    from repro.check.invariants import InvariantViolation
    from repro.common.telemetry import Telemetry

    program, stream = make_trace("spc_fp", 3_000)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim = SimBuilder(_PLAIN.replace(check_invariants=True), program, stream).build(
            telemetry=Telemetry()
        )
        sim.decode_queue.total_instrs += 5  # fails the first cycle's sweep
        with pytest.raises(InvariantViolation, match="occupancy counter"):
            sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()

class TestBranchListenerHook:
    def _trainer(self):
        params = SimParams(warmup_instructions=1_000, sim_instructions=2_000)
        program, stream = make_trace("spc_fp", 3_000)
        return SimBuilder(params, program, stream).build().trainer

    def test_single_listener_stays_plain(self):
        trainer = self._trainer()
        fn = lambda pc, kind, taken, target: None  # noqa: E731
        trainer.add_branch_listener(fn)
        assert trainer.branch_listener is fn

    def test_listeners_compose_in_order(self):
        trainer = self._trainer()
        seen = []
        trainer.add_branch_listener(lambda *a: seen.append("first"))
        trainer.add_branch_listener(lambda *a: seen.append("second"))
        trainer.branch_listener(0x1000, None, True, 0x2000)
        assert seen == ["first", "second"]

    def test_first_flag_prepends(self):
        trainer = self._trainer()
        seen = []
        trainer.add_branch_listener(lambda *a: seen.append("old"))
        trainer.add_branch_listener(lambda *a: seen.append("new"), first=True)
        trainer.branch_listener(0x1000, None, True, 0x2000)
        assert seen == ["new", "old"]
