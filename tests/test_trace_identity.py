"""Trace identity: every generated program image and oracle stream.

Re-runs the cases of ``scripts/make_trace_hashes.py`` and compares the
SHA-256 of each program image and oracle stream with the committed
fixture.  The fixture was written before trace generation was made
linear in the function count, so these tests pin that rewrite (and any
later speed-up of :mod:`repro.trace.cfg`, :mod:`repro.trace.oracle` or
:mod:`repro.common.rng`) bit-identical to the original generator.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_trace_hashes.py"
FIXTURE = ROOT / "tests" / "data" / "trace_hashes.json"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_trace_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT_MODULE = _load_script()
CASES = {label: rest for label, *rest in SCRIPT_MODULE.trace_cases()}
GOLDEN = json.loads(FIXTURE.read_text())["cases"]


def test_case_list_matches_fixture():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("label", sorted(CASES))
def test_trace_matches_fixture(label):
    got = SCRIPT_MODULE.case_hashes(*CASES[label])
    assert got == GOLDEN[label], (
        f"{label}: generated trace drifted from tests/data/trace_hashes.json. "
        "A speed-up must not change it; for an intended change to trace "
        "generation, bump SIM_SCHEMA_VERSION and regenerate with "
        "`PYTHONPATH=src python scripts/make_trace_hashes.py`."
    )
