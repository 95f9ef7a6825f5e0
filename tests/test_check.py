"""Tests for the correctness harness (repro.check)."""

import gc
import importlib
import json
import os
import random

import pytest

from repro.check import (
    CommitRecorder,
    DifferentialDivergence,
    InvariantViolation,
    build_trial,
    check_workload,
    load_reproducer,
    replay,
    run_differential,
    write_reproducer,
)
from repro.check.differential import flatten_branches
from repro.check.fuzz import FuzzTrial, fuzz, random_params, random_spec, run_trial
from repro.check.reproducer import (
    failure_to_dict,
    params_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.common.params import params_from_dict
from repro.core.simulator import Simulator
from repro.isa.instructions import BranchKind
from repro.trace.oracle import run_oracle
from tests.conftest import fast_params, tiny_spec
from repro.trace.cfg import generate_program


def checked_params(**overrides):
    params = fast_params(**overrides)
    return params.replace(check_invariants=True, warmup_mode="cycle")


@pytest.fixture
def trace9k():
    program = generate_program(tiny_spec(), seed=7)
    return program, run_oracle(program, 9_000, seed=11)


@pytest.fixture
def tiny_sim(trace9k):
    program, stream = trace9k
    return Simulator(checked_params(), program, stream)


class TestInvariantChecker:
    def test_attached_only_when_requested(self, trace9k):
        program, stream = trace9k
        assert Simulator(checked_params(), program, stream).checker is not None
        assert Simulator(fast_params(), program, stream).checker is None

    def test_clean_run_sweeps_every_cycle(self, trace9k):
        program, stream = trace9k
        sim = Simulator(checked_params(), program, stream)
        result = sim.run()
        assert result.instructions >= 6_000
        assert sim.checker.cycles_checked >= result.cycles

    def test_checked_run_is_bit_identical(self, trace9k):
        program, stream = trace9k
        checked = Simulator(checked_params(), program, stream).run()
        plain = Simulator(
            fast_params().replace(warmup_mode="cycle"), program, stream
        ).run()
        assert checked.cycles == plain.cycles
        assert checked.instructions == plain.instructions
        assert checked.stats.as_dict() == plain.stats.as_dict()

    def test_detects_corrupt_cache_set(self, tiny_sim):
        tiny_sim.memory.l1i._sets[0].append(12345)  # misaligned, wrong set
        with pytest.raises(InvariantViolation) as exc:
            tiny_sim.checker.check_cycle(2048)  # heavy sweep includes caches
        assert "misaligned" in str(exc.value)
        assert exc.value.cycle == 2048

    def test_detects_corrupt_decode_queue(self, tiny_sim):
        tiny_sim.decode_queue.total_instrs += 3
        with pytest.raises(InvariantViolation) as exc:
            tiny_sim.checker.check_cycle(0)
        assert "decode-queue" in str(exc.value)

    def test_detects_corrupt_btb_index(self, tiny_sim):
        btb = tiny_sim.btb
        btb.insert(0x4000, BranchKind.UNCOND_DIRECT, 0x5000)
        del btb._chunk_index[0x4000 >> 4]  # the set still holds the entry
        with pytest.raises(InvariantViolation) as exc:
            tiny_sim.checker.check_cycle(0)  # the first sweep is a heavy one
        assert "BTB chunk index holds 0 entries" in str(exc.value)

    def test_detects_corrupt_l2_btb_index(self, trace9k):
        program, stream = trace9k
        sim = Simulator(checked_params().with_branch(btb_l1_entries=256), program, stream)
        sim.btb.insert(0x4000, BranchKind.UNCOND_DIRECT, 0x5000)
        sim.btb.l2._chunk_index[0x4000 >> 4].clear()
        with pytest.raises(InvariantViolation) as exc:
            sim.checker.check_cycle(0)
        assert "L2 BTB chunk index keeps empty chunk" in str(exc.value)
        assert "L1 BTB" not in str(exc.value)

    def test_detects_trainer_divergence(self, tiny_sim):
        tiny_sim.trainer.committed += 1
        with pytest.raises(InvariantViolation) as exc:
            tiny_sim.checker.check_cycle(0)
        assert "trainer" in str(exc.value)


class TestDifferential:
    def test_catalogue_workload_clean(self):
        report = check_workload("srv_web", checked_params())
        assert report.branches_checked > 100
        assert report.committed_instructions >= 8_000

    def test_run_differential_clean(self, trace9k):
        program, stream = trace9k
        expected = run_oracle(program, 9_000, seed=11)  # independent regen
        result, report = run_differential(checked_params(), program, stream, expected)
        assert report.branches_checked > 0
        assert result.instructions >= 6_000

    def test_detects_tampered_direction(self, trace9k):
        program, stream = trace9k
        sim = Simulator(fast_params().replace(warmup_mode="cycle"), program, stream)
        expected = flatten_branches(run_oracle(program, 9_000, seed=11))
        addr, kind, taken, target = expected[5]
        expected[5] = (addr, kind, not taken, target)
        CommitRecorder(sim.trainer, expected)
        with pytest.raises(DifferentialDivergence) as exc:
            sim.run()
        assert "branch #5" in str(exc.value)

    def test_detects_truncated_oracle(self, trace9k):
        program, stream = trace9k
        sim = Simulator(fast_params().replace(warmup_mode="cycle"), program, stream)
        expected = flatten_branches(run_oracle(program, 9_000, seed=11))[:10]
        CommitRecorder(sim.trainer, expected)
        with pytest.raises(DifferentialDivergence) as exc:
            sim.run()
        assert "longer than the oracle" in str(exc.value)

    def test_recorder_chains_existing_listener(self, trace9k):
        program, stream = trace9k
        sim = Simulator(fast_params().replace(warmup_mode="cycle"), program, stream)
        seen = []
        sim.trainer.branch_listener = lambda pc, kind, taken, target: seen.append(pc)
        expected = flatten_branches(run_oracle(program, 9_000, seed=11))
        recorder = CommitRecorder(sim.trainer, expected)
        sim.run()
        assert len(seen) == recorder.index > 0


class TestFuzz:
    def test_generators_respect_validation(self):
        rng = random.Random(1234)
        for _ in range(50):
            random_spec(rng)  # ProgramSpec.__post_init__ validates
            random_params(rng)  # SimParams and children validate

    def test_trials_are_seed_deterministic(self):
        assert build_trial(17) == build_trial(17)
        assert build_trial(17) != build_trial(18)

    @pytest.mark.slow
    def test_small_campaign_clean(self):
        report = fuzz(3, seed=0, parallel_every=0)
        assert report.ok
        assert report.trials_run == 3

    def test_run_trial_flags_violation(self):
        # A trial whose program cannot be generated must fail cleanly,
        # exercising the failure path without a (slow) real divergence.
        trial = build_trial(0)
        broken = FuzzTrial(
            seed=trial.seed,
            spec=None,
            program_seed=trial.program_seed,
            oracle_seed=trial.oracle_seed,
            params=trial.params,
        )
        failure = run_trial(broken)
        assert failure is not None
        assert failure.prop == "generation"

    def test_bulk_fold_property_holds_and_catches_a_bad_row(self, monkeypatch):
        from repro.check.fuzz import _materialize, arch_fold_problem
        from repro.trace import fbmeta

        trial = build_trial(4)
        program, stream = _materialize(trial)
        assert arch_fold_problem(trial.params, program, stream) is None

        real = fbmeta.fold_pair_rows

        def off_by_one(limbs, lengths, idx_bits, tag_bits):
            rows = real(limbs, lengths, idx_bits, tag_bits)
            rows[-1, -1] ^= 1
            return rows

        monkeypatch.setattr(fbmeta, "fold_pair_rows", off_by_one)
        program, stream = _materialize(trial)  # a fresh stream: no rows yet
        problem = arch_fold_problem(trial.params, program, stream)
        assert problem is not None and "differs from the scalar folds" in problem


class TestDecodeMutants:
    def test_mutations_are_seeded_and_cover_each_kind(self):
        from repro.check.fuzz import mutate_trace

        data = bytes(range(256)) * 40  # 160 records
        seen = set()
        for seed in range(30):
            label, mutant = mutate_trace(data, random.Random(seed))
            assert (label, mutant) == mutate_trace(data, random.Random(seed))
            assert mutant != data
            if label.startswith("truncated"):
                assert len(mutant) < len(data)
            else:
                assert len(mutant) == len(data)
            seen.add(label.split(" ")[0])
        assert seen == {"bit", "truncated", "random"}

    @pytest.mark.parametrize("seed", [1, 3, 13], ids=["decodes", "corrupt_record", "ragged_tail"])
    def test_property_holds(self, seed, monkeypatch, tmp_path):
        from repro.check.fuzz import _materialize, decode_mutant_problem

        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        trial = build_trial(seed)
        _program, stream = _materialize(trial)
        assert decode_mutant_problem(trial, stream) is None
        assert gc.isenabled()
        # Chunk artifacts went to a private directory, since deleted.
        assert os.environ["REPRO_CACHE_DIR"] == str(cache_dir)
        assert not cache_dir.exists()

    def test_catches_a_decoder_crash(self, monkeypatch):
        from repro.check.fuzz import _materialize, decode_mutant_problem
        from repro.trace import champsim

        def crash(records, first_index):
            raise IndexError("decoder bug")

        trial = build_trial(1)
        _program, stream = _materialize(trial)
        monkeypatch.setattr(champsim, "classify_records", crash)
        problem = decode_mutant_problem(trial, stream)
        assert problem is not None and "IndexError: decoder bug" in problem
        assert problem.startswith("truncated to")

    def test_catches_a_format_error_that_leaves_collection_off(self, monkeypatch):
        from repro.trace.champsim import TraceFormatError

        # The package's ``fuzz`` name is the campaign function.
        fuzz_module = importlib.import_module("repro.check.fuzz")

        def fail_paused(source, n):
            gc.disable()
            raise TraceFormatError("bad trace")

        trial = build_trial(3)
        _program, stream = fuzz_module._materialize(trial)
        monkeypatch.setattr(fuzz_module, "make_trace", fail_paused)
        try:
            problem = fuzz_module.decode_mutant_problem(trial, stream)
        finally:
            gc.enable()
        assert problem is not None and "collector" in problem


class TestReproducer:
    def test_params_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            params = random_params(rng)
            assert params_from_dict(params_to_dict(params)) == params

    def test_spec_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            spec = random_spec(rng)
            assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_file_round_trip(self, tmp_path):
        trial = build_trial(3)
        record = failure_to_dict(
            trial.seed, "demo", "msg", trial.spec, trial.program_seed,
            trial.oracle_seed, trial.params,
        )
        path = write_reproducer(tmp_path / "f.json", record)
        loaded = load_reproducer(path)
        assert loaded == record
        assert params_from_dict(loaded["params"]) == trial.params
        assert spec_from_dict(loaded["program_spec"]) == trial.spec

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError):
            load_reproducer(path)

    @pytest.mark.slow
    def test_replay_of_passing_trial_is_clean(self):
        trial = build_trial(1)
        record = failure_to_dict(
            trial.seed, "demo", "msg", trial.spec, trial.program_seed,
            trial.oracle_seed, trial.params,
        )
        assert replay(record) is None


class TestReproCheckEnv:
    def test_repro_check_forces_invariants(self, monkeypatch):
        from repro.experiments.runner import resolve_check_mode

        params = fast_params()
        assert resolve_check_mode(params) is params
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert resolve_check_mode(params).check_invariants

    def test_repro_check_rejects_garbage(self, monkeypatch):
        from repro.experiments.runner import resolve_check_mode

        monkeypatch.setenv("REPRO_CHECK", "sideways")
        with pytest.raises(ValueError):
            resolve_check_mode(fast_params())

    def test_check_mode_changes_cache_key(self):
        from repro.experiments.cache import run_key

        params = fast_params().replace(warmup_mode="cycle")
        checked = params.replace(check_invariants=True)
        assert run_key("srv_web", params) != run_key("srv_web", checked)
