"""Committed-path histories folded in bulk (StreamMeta.arch_histories).

Under THR and Ideal the history before each committed branch is a
function of the trace alone; the stream compiles those histories once
and TAGE / ITTAGE read their folds from bulk rows.  These tests pin that
the rows cover what commit training actually passes in, that the rows
equal the scalar folds, and that the GHR policies (whose commit history
depends on BTB detection) get none.
"""

from __future__ import annotations

import pickle

import pytest

from repro.branch.history import HistoryManager
from repro.branch.ittage import ITTAGE
from repro.branch.tage import TAGE
from repro.common.bits import fold
from repro.common.params import HistoryPolicy, SimParams
from repro.core.simulator import Simulator
from repro.trace.fbmeta import stream_meta
from repro.trace.workloads import make_trace

WINDOWS = dict(warmup_instructions=2_000, sim_instructions=5_000)


def _sim(policy: HistoryPolicy, **branch) -> Simulator:
    params = SimParams(**WINDOWS).with_frontend(history_policy=policy)
    if branch:
        params = params.with_branch(**branch)
    program, stream = make_trace("srv_web", params.warmup_instructions + params.sim_instructions)
    return Simulator(params, program, stream)


def _scalar_rows(predictor, hist: int) -> list[int]:
    idx_bits = predictor._idx_bits
    tag_bits = predictor._tag_bits
    return [
        f
        for mask in predictor._hist_masks
        for f in (fold(hist & mask, idx_bits), fold((hist & mask) * 3, tag_bits))
    ]


@pytest.mark.parametrize("policy", [HistoryPolicy.THR, HistoryPolicy.IDEAL])
def test_every_trained_history_is_in_the_rows(policy, monkeypatch):
    sim = _sim(policy)
    arch = stream_meta(sim.stream).arch_histories(sim.hist_mgr)
    assert arch is not None and len(arch) > 100
    seen = {"tage": [], "ittage": []}
    for name, cls in (("tage", TAGE), ("ittage", ITTAGE)):

        def recording(self, pc, hist, outcome, _update=cls.update, _log=seen[name]):
            _log.append(hist)
            _update(self, pc, hist, outcome)

        monkeypatch.setattr(cls, "update", recording)
    sim.run()
    assert len(seen["tage"]) > 300 and len(seen["ittage"]) > 10
    for name, hists in seen.items():
        missing = [h for h in hists if h not in arch.index]
        assert not missing, f"{name}: {len(missing)} of {len(hists)} trained histories not in rows"


@pytest.mark.parametrize("policy", [HistoryPolicy.THR, HistoryPolicy.IDEAL])
def test_attached_rows_equal_scalar_folds(policy):
    sim = _sim(policy)
    for predictor in (sim.direction, sim.ittage):
        rows = predictor._arch_rows
        assert rows is not None
        for hist, row in list(predictor._arch_index.items())[:400]:
            assert rows[row].tolist() == _scalar_rows(predictor, hist)
        # Served folds equal the scalar ones whichever path serves them.
        hist = next(iter(predictor._arch_index))
        assert list(predictor._folds(hist)) == _scalar_rows(predictor, hist)


@pytest.mark.parametrize(
    "policy", [HistoryPolicy.GHR0, HistoryPolicy.GHR1, HistoryPolicy.GHR2, HistoryPolicy.GHR3]
)
def test_detection_dependent_policies_get_no_rows(policy):
    sim = _sim(policy)
    assert not sim.hist_mgr.ignores_detection
    assert stream_meta(sim.stream).arch_histories(sim.hist_mgr) is None
    assert sim.direction._arch_rows is None and sim.ittage._arch_rows is None


def test_rows_are_shared_per_stream_and_geometry():
    a = _sim(HistoryPolicy.THR)
    b = _sim(HistoryPolicy.THR, btb_entries=1024)
    c = _sim(HistoryPolicy.THR, tage_storage_kib=9)
    assert a.stream is b.stream is c.stream
    assert a.direction._arch_rows is b.direction._arch_rows
    assert a.direction._arch_index is c.direction._arch_index
    assert a.direction._arch_rows is not c.direction._arch_rows
    assert a.ittage._arch_rows is c.ittage._arch_rows


def test_replay_starts_from_zero_and_follows_commit_push():
    program, stream = make_trace("srv_web", 7_000)
    smeta = stream_meta(stream)
    mgr = HistoryManager(HistoryPolicy.THR, 260)
    arch = smeta.arch_histories(mgr)
    assert smeta.arch_histories(mgr) is arch
    hist = 0
    order = []
    for addr, taken, target in zip(smeta.br_addr, smeta.br_taken, smeta.br_target):
        if hist not in order:
            order.append(hist)
        hist = mgr.commit_push(hist, addr, taken, target, False)[0]
    assert list(arch.index) == order and order[0] == 0
    assert list(arch.index.values()) == list(range(len(order)))
    assert arch.nbytes() > arch.limbs.nbytes > 0


def test_pickled_stream_drops_the_rows():
    sim = _sim(HistoryPolicy.THR)
    assert sim.direction._arch_rows is not None
    clone = pickle.loads(pickle.dumps(sim.stream))
    assert getattr(clone, "_stream_meta", None) is None


def test_unattached_tage_folds_in_software():
    tage = _sim(HistoryPolicy.GHR3).direction
    assert isinstance(tage, TAGE)
    assert list(tage._folds(12345)) == _scalar_rows(tage, 12345)
