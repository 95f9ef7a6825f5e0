"""Tests for simulator construction from its parameters (Simulator.__init__)."""

from types import SimpleNamespace

import pytest

from repro.branch.btb import BTB
from repro.branch.btb2l import TwoLevelBTB
from repro.branch.gshare import Gshare
from repro.branch.loop import LoopPredictor
from repro.branch.perceptron import Perceptron
from repro.branch.tage import TAGE
from repro.common.params import DirectionPredictorKind, HistoryPolicy, SimParams
from repro.core.simulator import Simulator, simulate
from repro.core.warmup import functional_warmup
from repro.prefetch import PREFETCHERS, prefetcher_names
from repro.trace.workloads import make_trace

_PLAIN = SimParams(warmup_instructions=1_000, sim_instructions=2_000)

_DIRECTION_CLASSES = {
    DirectionPredictorKind.TAGE: TAGE,
    DirectionPredictorKind.GSHARE: Gshare,
    DirectionPredictorKind.PERCEPTRON: Perceptron,
    DirectionPredictorKind.PERFECT: type(None),
}


def _sim(params: SimParams = _PLAIN, **kwargs) -> Simulator:
    program, stream = make_trace("spc_fp", params.warmup_instructions + params.sim_instructions)
    return Simulator(params, program, stream, **kwargs)


class TestComponentsFromParams:
    @pytest.mark.parametrize("kind", list(DirectionPredictorKind), ids=lambda k: k.value)
    def test_direction_kind_builds_its_predictor(self, kind):
        sim = _sim(_PLAIN.with_branch(direction_kind=kind))
        assert type(sim.direction) is _DIRECTION_CLASSES[kind]
        assert sim.trainer.direction is sim.direction
        assert sim.run().instructions > 0

    def test_perfect_direction_builds_no_predictor(self):
        assert _sim(_PLAIN.with_branch(perfect_direction=True)).direction is None

    def test_history_policy_picks_history_length(self):
        thr = _sim(_PLAIN.with_frontend(history_policy=HistoryPolicy.THR))
        ghr = _sim(_PLAIN.with_frontend(history_policy=HistoryPolicy.GHR2))
        assert thr.hist_mgr.policy is HistoryPolicy.THR
        assert thr.hist_mgr.bits == _PLAIN.branch.history_bits
        assert ghr.hist_mgr.policy is HistoryPolicy.GHR2
        assert ghr.hist_mgr.bits == _PLAIN.branch.direction_history_bits

    def test_single_level_btb_by_default(self):
        sim = _sim()
        assert type(sim.btb) is BTB
        assert sim.prefetcher is None
        assert sim.checker is None
        assert sim.run(workload_name="spc_fp").instructions > 0

    def test_btb_l1_entries_builds_two_level_btb(self):
        sim = _sim(_PLAIN.with_branch(btb_l1_entries=64))
        assert isinstance(sim.btb, TwoLevelBTB)
        assert sim.bpu.btb is sim.btb
        assert sim.run().instructions > 0

    @pytest.mark.parametrize("name", prefetcher_names())
    def test_prefetcher_built_from_its_name(self, name):
        sim = _sim(_PLAIN.replace(prefetcher=name))
        assert type(sim.prefetcher) is PREFETCHERS[name]
        assert sim.fetch.prefetcher is sim.prefetcher
        assert not sim.memory.perfect

    @pytest.mark.parametrize("name", ["none", "perfect"])
    def test_special_prefetcher_names_build_none(self, name):
        sim = _sim(_PLAIN.replace(prefetcher=name))
        assert sim.prefetcher is None
        assert sim.memory.perfect == (name == "perfect")


class TestBtbVariantRegistry:
    """Which BTB a simulator builds: a single-level BTB of the configured
    geometry, or a two-level one exactly when ``btb_l1_entries`` is set."""

    def test_single_roundtrip(self):
        sim = _sim(_PLAIN.with_branch(btb_entries=512, btb_assoc=8))
        assert type(sim.btb) is BTB
        assert (sim.btb.n_entries, sim.btb.assoc) == (512, 8)

    def test_auto_resolution(self):
        assert type(_sim().btb) is BTB
        btb = _sim(_PLAIN.with_branch(btb_l1_entries=64, btb_l1_assoc=2)).btb
        assert type(btb) is TwoLevelBTB
        assert (btb.l1.n_entries, btb.l1.assoc) == (64, 2)
        assert (btb.l2.n_entries, btb.l2.assoc) == (
            _PLAIN.branch.btb_entries,
            _PLAIN.branch.btb_assoc,
        )


class TestSpeculativeResync:
    """A flush re-synchronises the loop predictor; the functional-warmup
    boundary does that and then drops the prefetcher's queue."""

    PARAMS = _PLAIN.replace(prefetcher="nl1").with_branch(loop_predictor_entries=64)

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        monkeypatch.setattr(LoopPredictor, "flush_spec", lambda self: seen.append("flush_spec"))
        monkeypatch.setattr(
            PREFETCHERS["nl1"], "reset_queue", lambda self: seen.append("reset_queue")
        )
        return seen

    def test_flush_resyncs_loop_predictor(self, calls):
        _sim(self.PARAMS)._on_flush(SimpleNamespace(kind_label="test"), 0)
        assert calls == ["flush_spec"]

    def test_warmup_boundary_resyncs_then_resets_queue(self, calls):
        functional_warmup(_sim(self.PARAMS))
        assert calls == ["flush_spec", "reset_queue"]


class TestSimBuilder:
    """What the public entry point builds, and the components a built
    simulator exposes to a telemetry hub."""

    def test_build_matches_direct_construction(self):
        direct = _sim().run(workload_name="spc_fp")
        built = simulate("spc_fp", _PLAIN)
        assert (built.workload, built.label) == (direct.workload, direct.label)
        assert (built.instructions, built.cycles) == (direct.instructions, direct.cycles)
        assert built.stats.as_dict() == direct.stats.as_dict()

    def test_observables_cover_core_components(self):
        sim = _sim()
        assert set(sim.observables) == {"ftq", "bpu", "fetch", "backend", "memory"}

    def test_prefetcher_is_observable(self):
        sim = _sim(_PLAIN.replace(prefetcher="nl1"))
        assert sim.observables["prefetcher"] is sim.prefetcher


@pytest.mark.parametrize(
    "params, traced",
    [
        pytest.param(params, False, id=f"{params.prefetcher}-{params.branch.direction_kind.value}")
        for params in [
            *(_PLAIN.replace(prefetcher=name) for name in ["none", "perfect", *prefetcher_names()]),
            *(_PLAIN.with_branch(direction_kind=kind) for kind in DirectionPredictorKind),
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
        sim = Simulator(params, program, stream, telemetry=Telemetry() if traced else None)
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
        sim = Simulator(
            _PLAIN.replace(check_invariants=True), program, stream, telemetry=Telemetry()
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
        return _sim().trainer

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
