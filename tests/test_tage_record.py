"""TAGE training recorded once per trace (StreamMeta.tage_record).

Under THR and Ideal the stream records a TAGE's training once per
geometry; every simulator's TAGE replays the recorded writes, and the
typed kernel serves on-path predictions from the record.  Withholding
the record must change no counter.  The record itself must stay small,
its replay must leave the tables a plain TAGE trains into, and each
recorded prediction must already hold from the earliest table state
the record claims it for.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.branch.history import HistoryManager
from repro.branch.tage import NEVER, TAGE, TageConfig, TageRecord
from repro.common.params import HistoryPolicy, SimParams
from repro.core import simulator
from repro.core.simulator import Simulator
from repro.isa.instructions import BranchKind
from repro.trace.fbmeta import StreamMeta, stream_meta
from repro.trace.workloads import make_trace


def small_tage(branch, bits: int) -> TAGE:
    """A TAGE of four 64-entry tables: its entries are often weak and
    new, so its lookups consult ``use_alt_on_na`` while other updates
    move it, and a read-set slip shows in the counters.  The
    ``small_tage`` point builds it in place of the configured TAGE."""
    return TAGE(TageConfig(4, 64, 256, 8, 2, bits))


BASE = SimParams(warmup_instructions=2_000, sim_instructions=6_000)
NO_FDP = BASE.with_frontend(ftq_entries=2, pfc_enabled=False)
POINTS = {
    "ftq24_pfc": BASE,
    "ftq24_nopfc": BASE.with_frontend(pfc_enabled=False),
    "ftq2_nopfc": NO_FDP,
    "ftq2_eip128": NO_FDP.replace(prefetcher="eip128"),
    "ftq24_djolt": BASE.replace(prefetcher="djolt"),
    "functional": BASE.replace(warmup_mode="functional"),
    "tage9": BASE.with_branch(tage_storage_kib=9),
    "tage36_ftq2": NO_FDP.with_branch(tage_storage_kib=36),
    "small_tage": BASE,
}
POLICIES = (HistoryPolicy.THR, HistoryPolicy.IDEAL)


def _run(params: SimParams, workload: str):
    program, stream = make_trace(workload, params.warmup_instructions + params.sim_instructions)
    sim = Simulator(params, program, stream)
    result = sim.run(workload)
    return sim, {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "counters": result.stats.as_dict(),
    }


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", sorted(POINTS))
@pytest.mark.parametrize("workload", ["srv_web", "clt_browser"])
def test_withheld_record_changes_no_counter(workload, name, policy, monkeypatch):
    params = POINTS[name].with_frontend(history_policy=policy)
    if name == "small_tage":
        monkeypatch.setattr(simulator, "_direction_predictor", small_tage)
    sim, served = _run(params, workload)
    assert sim.direction.record is not None
    assert (sim.direction.config.table_entries == 64) == (name == "small_tage")
    monkeypatch.setattr(StreamMeta, "tage_record", lambda self, mgr, config: None)
    sim, walked = _run(params, workload)
    assert sim.direction.record is None
    assert served == walked


def _record(workload: str, policy: HistoryPolicy, kib: int, n: int = 20_000):
    _, stream = make_trace(workload, n)
    smeta = stream_meta(stream)
    bits = 260 if policy is HistoryPolicy.THR else 280
    mgr = HistoryManager(policy, bits)
    config = TageConfig.for_budget_kib(kib, bits)
    return smeta, smeta.arch_histories(mgr), smeta.tage_record(mgr, config)


@pytest.mark.parametrize("kib", [9, 18])
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("workload", ["srv_web", "clt_browser", "spc_int_a"])
def test_record_is_small_and_replays_what_it_claims(workload, policy, kib):
    smeta, arch, record = _record(workload, policy, kib)
    assert isinstance(record, TageRecord)
    assert arch.records[record.config] is record
    conds = [i for i, kind in enumerate(smeta.br_kind) if kind is BranchKind.COND_DIRECT]
    assert len(record) == len(conds) > 1_000

    # Flat arrays: a few bytes per committed branch, counted by the
    # stream's ArchHistories.
    assert record.nbytes() <= 24 * len(smeta)
    assert arch.nbytes() >= record.nbytes() + sum(rows.nbytes for rows in arch._rows.values())

    # Each recorded prediction holds from the earliest state the record
    # claims it for: after last_writer + 1 updates of a plain TAGE.
    plain = TAGE(record.config)
    replayed = TAGE(record.config)
    replayed.bind_record(record)
    due = defaultdict(list)
    for i in conds:
        due[record.last_writer[i] + 1].append(i)
    wrong = []
    for k, i in enumerate(conds + [None]):
        for j in due.pop(k, ()):
            hist = record.history[j]
            if plain.predict(smeta.br_addr[j], hist) != bool(record.taken[j]):
                wrong.append(j)
        if i is None:
            break
        pc, hist, taken = smeta.br_addr[i], record.history[i], smeta.br_taken[i]
        plain.update(pc, hist, taken)
        replayed.update(pc, hist, taken)
        if k % 250 == 0:
            assert _tables(replayed) == _tables(plain), f"replay drifted by update {k}"
    assert not wrong, f"{len(wrong)} recorded predictions wrong at their earliest state"
    assert _tables(replayed) == _tables(plain)
    assert replayed.allocations == plain.allocations > 0
    assert replayed.updates == plain.updates == len(record)
    # Non-conditional branches are never served.
    others = [i for i, kind in enumerate(smeta.br_kind) if kind is not BranchKind.COND_DIRECT]
    assert all(record.last_writer[i] == NEVER for i in others)


def _tables(tage: TAGE):
    return tage._ctr, tage._tag, tage._u, tage._bimodal, tage._use_alt_on_na


def test_record_is_memoised_per_policy_and_geometry():
    smeta, arch, record = _record("srv_web", HistoryPolicy.THR, 18, n=8_000)
    assert _record("srv_web", HistoryPolicy.THR, 18, n=8_000)[2] is record
    assert _record("srv_web", HistoryPolicy.THR, 9, n=8_000)[2] is not record
    assert _record("srv_web", HistoryPolicy.IDEAL, 18, n=8_000)[2].config != record.config
    ghr = HistoryManager(HistoryPolicy.GHR3, 280)
    assert smeta.tage_record(ghr, TageConfig.for_budget_kib(18, 280)) is None


def test_only_an_untrained_tage_of_the_geometry_binds():
    _, _, record = _record("srv_web", HistoryPolicy.THR, 18, n=8_000)
    with pytest.raises(ValueError, match="cannot train"):
        TAGE(TageConfig.for_budget_kib(9)).bind_record(record)
    trained = TAGE(record.config)
    trained.update(0x4000, 0, True)
    with pytest.raises(ValueError, match="not trained yet"):
        trained.bind_record(record)


def test_simulators_bind_records_only_under_thr_and_ideal():
    for policy in HistoryPolicy:
        params = BASE.with_frontend(history_policy=policy)
        program, stream = make_trace("srv_web", 8_000)
        sim = Simulator(params, program, stream)
        assert (sim.direction.record is not None) == sim.hist_mgr.ignores_detection
    gshare = Simulator(BASE.with_branch(direction_kind="gshare"), program, stream)
    assert getattr(gshare.direction, "record", None) is None
