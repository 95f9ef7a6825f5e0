"""Software folds kept once per trace (StreamMeta.fold_store).

TAGE and ITTAGE fold every history the stream's bulk rows do not hold
(wrong-path histories, and every history under GHR0-3) in software once
per stream and geometry, and keep the row in the stream's fold store for
every later simulator on the stream.  A fold depends on the history and
the geometry alone, so withholding the store must change no counter,
and every stored row must be the scalar folds of its history.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.branch import ittage as ittage_mod
from repro.branch import tage as tage_mod
from repro.branch.ittage import ITTAGE
from repro.branch.tage import TAGE, TageConfig
from repro.common.bits import fold, row_typecode
from repro.common.params import HistoryPolicy, SimParams
from repro.core.simulator import Simulator
from repro.trace.fbmeta import StreamMeta, stream_meta
from repro.trace.workloads import make_trace

BASE = SimParams(warmup_instructions=2_000, sim_instructions=6_000)
NO_FDP = BASE.with_frontend(ftq_entries=2, pfc_enabled=False)
POINTS = {
    "ftq24_pfc": BASE,
    "ftq24_nopfc": BASE.with_frontend(pfc_enabled=False),
    "ftq2_eip128": NO_FDP.replace(prefetcher="eip128"),
    "ftq24_djolt": BASE.replace(prefetcher="djolt"),
    "tage9_ftq2": NO_FDP.with_branch(tage_storage_kib=9),
}
POLICIES = (HistoryPolicy.THR, HistoryPolicy.IDEAL, HistoryPolicy.GHR0, HistoryPolicy.GHR3)


def _sim(params: SimParams, workload: str = "srv_web") -> Simulator:
    program, stream = make_trace(workload, params.warmup_instructions + params.sim_instructions)
    return Simulator(params, program, stream)


def _counters(sim: Simulator) -> dict:
    result = sim.run()
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "counters": result.stats.as_dict(),
    }


def _scalar_row(hist: int, lengths, idx_bits: int, tag_bits: int) -> list[int]:
    row = []
    for length in lengths:
        masked = hist & ((1 << length) - 1)
        row += (fold(masked, idx_bits), fold(masked * 3, tag_bits))
    return row


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", sorted(POINTS))
@pytest.mark.parametrize("workload", ["srv_web", "clt_browser"])
def test_withheld_store_changes_no_counter(workload, name, policy, monkeypatch):
    params = POINTS[name].with_frontend(history_policy=policy)
    first = _sim(params, workload)
    filled = _counters(first)
    store = first.direction._fold_store
    # Under GHR0-3 every direction history folds in software.
    assert store or first.hist_mgr.ignores_detection
    # A second simulator on the stream reads the rows the first folded.
    again = _sim(params, workload)
    assert again.direction._fold_store is store
    assert _counters(again) == filled
    # Withheld: each predictor of each simulator folds into a fresh dict.
    monkeypatch.setattr(StreamMeta, "fold_store", lambda self, *geometry: {})
    alone = _sim(params, workload)
    assert alone.direction._fold_store is not store
    assert _counters(alone) == filled


@pytest.mark.parametrize(
    "policy", [HistoryPolicy.THR, HistoryPolicy.GHR3], ids=lambda p: p.value
)
def test_every_stored_row_is_the_scalar_folds(policy):
    sim = _sim(BASE.with_frontend(history_policy=policy), "clt_browser")
    sim.run()
    stores = stream_meta(sim.stream)._fold_stores
    geometries = {
        (tuple(p.lengths), p._idx_bits, p._tag_bits) for p in (sim.direction, sim.ittage)
    }
    assert geometries <= set(stores)
    checked = 0
    for geometry, store in stores.items():
        for hist, row in store.items():
            assert list(row) == _scalar_row(hist, *geometry), hex(hist)
            checked += 1
    assert checked > 100


def test_simulators_on_one_stream_share_one_store_per_geometry():
    a = _sim(BASE.with_frontend(history_policy=HistoryPolicy.IDEAL))
    b = _sim(BASE.with_frontend(history_policy=HistoryPolicy.GHR3, pfc_enabled=False))
    c = _sim(BASE.with_frontend(history_policy=HistoryPolicy.THR))
    d = _sim(BASE.with_frontend(history_policy=HistoryPolicy.IDEAL).with_branch(tage_storage_kib=9))
    assert a.stream is b.stream is c.stream is d.stream
    smeta = stream_meta(a.stream)
    tage = a.direction
    assert tage._fold_store is smeta.fold_store(tage.lengths, tage._idx_bits, tage._tag_bits)
    # One store per geometry, whatever the history policy: Ideal and
    # GHR3 build the same 280-bit TAGE, and every policy the same ITTAGE.
    assert b.direction._fold_store is tage._fold_store
    stores = {id(sim.ittage._fold_store) for sim in (a, b, c, d)}
    assert stores == {id(a.ittage._fold_store)}
    # Another geometry has its own, and TAGE's is apart from ITTAGE's.
    assert c.direction._fold_store is not tage._fold_store
    assert d.direction._fold_store is not tage._fold_store
    assert tage._fold_store is not a.ittage._fold_store
    # Under GHR3 the bulk rows are absent, and every fold goes to the
    # store, where a simulator of another policy finds it.
    assert b.direction._arch_rows is None
    hist = 0xDEADBEEF << 200
    assert hist not in tage._fold_store
    folds = b.direction._folds(hist)
    assert tage._fold_store[hist] is folds
    assert tage._folds(hist) is folds


def test_unattached_predictors_keep_a_store_of_their_own():
    one, two = TAGE(TageConfig.for_budget_kib(18)), TAGE(TageConfig.for_budget_kib(18))
    assert one._fold_store is not two._fold_store
    assert list(one._folds(12345)) == _scalar_row(12345, one.lengths, one._idx_bits, one._tag_bits)
    assert 12345 in one._fold_store and not two._fold_store
    indirect = ITTAGE()
    assert list(indirect._folds(12345)) == _scalar_row(
        12345, indirect.lengths, indirect._idx_bits, indirect._tag_bits
    )
    assert 12345 in indirect._fold_store


def test_pickled_stream_carries_no_store():
    sim = _sim(BASE.with_frontend(history_policy=HistoryPolicy.GHR3))
    sim.run()
    assert stream_meta(sim.stream)._fold_stores
    clone = pickle.loads(pickle.dumps(sim.stream))
    assert getattr(clone, "_stream_meta", None) is None
    assert stream_meta(clone)._fold_stores == {}


@pytest.mark.parametrize(
    "predictor", [TAGE(TageConfig.for_budget_kib(9)), ITTAGE()], ids=["tage", "ittage"]
)
def test_store_bound_holds(predictor):
    # A full store starts over empty: it never holds more than the bound.
    bound = tage_mod.FOLD_STORE_MAX
    assert ittage_mod.FOLD_STORE_MAX == bound
    store = predictor._fold_store
    store.update(dict.fromkeys(range(1, bound), store.get(0)))
    assert len(store) == bound - 1
    predictor._folds(1 << 300)
    assert len(store) == bound
    predictor._folds(1 << 301)
    assert list(store) == [1 << 301]


def test_rows_are_compact_arrays():
    assert [row_typecode(*bits) for bits in ((10, 10), (11, 17), (9, 40))] == ["H", "I", "Q"]
    tage = TAGE(TageConfig.for_budget_kib(36))
    row = tage._folds(1 << 259)
    assert isinstance(row, array) and row.typecode == "H" and len(row) == 2 * len(tage.lengths)
