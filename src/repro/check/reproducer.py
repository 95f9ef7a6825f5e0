"""Failure reproducers: JSON round-trip of (spec, seeds, params).

A fuzz failure is fully determined by the trial's program spec, its two
generation seeds, and the parameter bundle -- everything else
regenerates deterministically.  This module serialises that tuple (plus
the failing property and message) as a small JSON file and rebuilds the
trial from it, so any violation becomes a one-command repro::

    python -m repro check --replay results/check/failure-<seed>.json

The JSON uses the same canonical dataclass encoding as the result
cache's entries (:func:`repro.experiments.cache._canonical`, decoded
by :func:`repro.common.params.params_from_dict`), so a reproducer file
doubles as a human-readable record of the exact configuration.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.params import SimParams, from_dict
from repro.experiments.cache import _canonical
from repro.trace.cfg import ProgramSpec

REPRODUCER_VERSION = 1


def params_to_dict(params: SimParams) -> dict:
    """Canonical JSON-able encoding of a parameter bundle."""
    return _canonical(params)


def spec_to_dict(spec: ProgramSpec) -> dict:
    """Canonical JSON-able encoding of a program spec."""
    return _canonical(spec)


def spec_from_dict(data: dict) -> ProgramSpec:
    """Inverse of :func:`spec_to_dict`."""
    return from_dict(ProgramSpec, data)


def failure_to_dict(
    seed: int,
    prop: str,
    message: str,
    spec: ProgramSpec,
    program_seed: int,
    oracle_seed: int,
    params: SimParams,
) -> dict:
    """One JSON-able reproducer record."""
    return {
        "version": REPRODUCER_VERSION,
        "seed": seed,
        "property": prop,
        "message": message,
        "program_spec": spec_to_dict(spec),
        "program_seed": program_seed,
        "oracle_seed": oracle_seed,
        "params": params_to_dict(params),
    }


def write_reproducer(path: str | Path, record: dict) -> Path:
    """Write one reproducer record; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path: str | Path) -> dict:
    """Load a reproducer record, validating its version tag."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("version") != REPRODUCER_VERSION:
        raise ValueError(f"{path} is not a v{REPRODUCER_VERSION} reproducer file")
    return data
