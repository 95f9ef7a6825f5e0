"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import logging
import tempfile

import pytest

from repro.common.params import SimParams
from repro.isa.instructions import BranchKind, Instruction
from repro.trace.cfg import Program, ProgramSpec, generate_program
from repro.trace.oracle import OracleStream, Segment, run_oracle


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache():
    """Keep test simulations out of the real ``results/.cache``."""
    import os

    with tempfile.TemporaryDirectory(prefix="repro-test-cache-") as tmp:
        old = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            yield
        finally:
            if old is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(autouse=True)
def _clean_repro_env(monkeypatch):
    """Shield every test from ambient ``REPRO_*`` behaviour knobs.

    A developer's shell (or a previous test that sets one directly) must
    not leak job-count, invariant-check or logging configuration into
    tests; monkeypatch restores any value a test sets itself.
    ``REPRO_CACHE_DIR`` stays: the session fixture above pins it to a
    per-run temporary directory.
    """
    for name in ("REPRO_JOBS", "REPRO_CHECK", "REPRO_CACHE", "REPRO_LOG",
                 "REPRO_WORKLOADS", "REPRO_WARMUP", "REPRO_SIM", "REPRO_LEDGER",
                 "REPRO_TRACES"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def repro_records(monkeypatch):
    """Let ``repro`` log records reach ``caplog``, also in a test run alone.

    :func:`repro.common.log.configure` stops the ``repro`` logger
    propagating to the root logger, where ``caplog`` listens.  Configure
    first, as the CLI's ``main`` does, then let records propagate.
    """
    from repro.common.log import configure

    configure()
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)


@pytest.fixture(autouse=True)
def _clean_workload_registry():
    """Drop trace sources a test registered so they cannot leak across
    tests (also re-arms the ``REPRO_TRACES`` scan).

    Clearing invalidates every name-keyed lookup cache, so it only runs
    when a test actually touched the registry -- tests that stay on the
    synthetic catalogue keep their warm trace memos.
    """
    from repro.trace import source

    yield
    if source._REGISTRY:
        source.clear_registered_workloads()
    else:
        source._ENV_SCANNED = False


def tiny_spec(**overrides) -> ProgramSpec:
    """A small, fast-to-generate program spec for structural tests."""
    base = dict(
        n_functions=12,
        blocks_per_function=(3, 6),
        instrs_per_block=(2, 6),
        n_phases=2,
        functions_per_phase=4,
        phase_repeats=2,
    )
    base.update(overrides)
    return ProgramSpec(**base)


@pytest.fixture
def tiny_program() -> Program:
    return generate_program(tiny_spec(), seed=7)


@pytest.fixture
def tiny_trace():
    program = generate_program(tiny_spec(), seed=7)
    stream = run_oracle(program, 5_000, seed=11)
    return program, stream


def fast_params(**overrides) -> SimParams:
    """Small simulation windows for quick end-to-end tests."""
    params = SimParams(warmup_instructions=2_000, sim_instructions=6_000)
    for method, kwargs in overrides.items():
        params = getattr(params, method)(**kwargs)
    return params


def make_program(branches: dict[int, Instruction], code_start: int = 0x1000, code_end: int = 0x100000) -> Program:
    """Fabricate a bare Program wrapper around an explicit branch map.

    Used by frontend unit tests that only need ``instruction_at``.
    """
    return Program(
        spec=tiny_spec(),
        entry=code_start,
        blocks={},
        branches=branches,
        behaviours=[],
        functions=[],
        code_start=code_start,
        code_end=code_end,
    )


def make_stream(segments: list[Segment]) -> OracleStream:
    """Fabricate an OracleStream from explicit segments."""
    total = sum(s.n_instrs for s in segments)
    branches = sum(len(s.branches) for s in segments)
    taken = sum(1 for s in segments for b in s.branches if b[2])
    return OracleStream(
        segments=segments,
        total_instructions=total,
        total_branches=branches,
        total_taken=taken,
    )


def seg(start: int, n: int, next_start: int = 0, branches=None) -> Segment:
    return Segment(start=start, n_instrs=n, next_start=next_start, branches=list(branches or []))


def cond(addr: int, taken: bool, target: int):
    return (addr, BranchKind.COND_DIRECT, taken, target)


def jump(addr: int, target: int):
    return (addr, BranchKind.UNCOND_DIRECT, True, target)
