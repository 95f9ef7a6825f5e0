#!/usr/bin/env python
"""Regenerate the committed trace-identity fixture.

The fixture (``tests/data/trace_hashes.json``) records, for a set of
generated programs, the SHA-256 of each program image and of its
oracle stream.  ``tests/test_trace_identity.py`` regenerates every case
and demands equal hashes, which pins :func:`repro.trace.cfg.generate_program`,
:func:`repro.trace.oracle.run_oracle` and the :class:`~repro.common.rng.SplitMix64`
draws behind them bit-for-bit: a speed-up of trace generation must leave
every image and stream unchanged.

The cases are the catalogue workloads at the default window, every
catalogue shape at two other program/oracle seeds (one of them above
2**63), and a few random specs of :mod:`repro.check.fuzz`, which reach
shapes the catalogue does not (tiny blocks, small call budgets, few
functions).

Only regenerate it for an intended change to trace generation, together
with a ``SIM_SCHEMA_VERSION`` bump.

Usage::

    PYTHONPATH=src python scripts/make_trace_hashes.py [OUT]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.check.fuzz import build_trial
from repro.experiments.configs import DEFAULT_SIM, DEFAULT_WARMUP
from repro.trace.cfg import Program, ProgramSpec, generate_program
from repro.trace.oracle import OracleStream, run_oracle
from repro.trace.source import TRACE_SLACK
from repro.trace.workloads import default_workloads

CATALOGUE_WINDOW = DEFAULT_WARMUP + DEFAULT_SIM + TRACE_SLACK
"""Oracle length of the catalogue cases: the experiments' default window
plus slack, as a sweep point or ``repro report`` materialises it."""

ALT_WINDOW = 20_000 + TRACE_SLACK
"""Oracle length of the other-seed cases."""

ALT_SEEDS = ((7, 77), (2**63 + 12_345, 2**64 - 3))
"""``(program_seed, oracle_seed)`` pairs every catalogue shape is also run at."""

FUZZ_SEEDS = (0, 1, 2, 3, 4, 5)
"""Seeds of the :func:`repro.check.fuzz.build_trial` specs."""

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "trace_hashes.json"


def trace_cases() -> list[tuple[str, ProgramSpec, int, int, int]]:
    """``(label, spec, program_seed, oracle_seed, n_instructions)`` per case."""
    cases = []
    catalogue = default_workloads()
    for wl in catalogue:
        cases.append((wl.name, wl.program_spec, wl.program_seed, wl.oracle_seed, CATALOGUE_WINDOW))
    for wl in catalogue:
        for program_seed, oracle_seed in ALT_SEEDS:
            label = f"{wl.name}@{program_seed}/{oracle_seed}"
            cases.append((label, wl.program_spec, program_seed, oracle_seed, ALT_WINDOW))
    for seed in FUZZ_SEEDS:
        trial = build_trial(seed)
        n = trial.params.warmup_instructions + trial.params.sim_instructions + TRACE_SLACK
        cases.append((f"fuzz{seed}", trial.spec, trial.program_seed, trial.oracle_seed, n))
    return cases


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _behaviour_row(beh) -> list:
    """A behaviour's class, description and every constructor field."""
    fields = {name: repr(getattr(beh, name)) for name in beh.__slots__ if not name.startswith("_")}
    return [type(beh).__name__, beh.describe(), fields]


def program_digest(program: Program) -> str:
    """SHA-256 of a program image: layout, branches, behaviours, functions."""
    rows = [
        [program.entry, program.code_start, program.code_end],
        [
            [b.start, b.n_instrs, int(b.kind), b.target, b.behaviour, list(b.targets)]
            for b in program.blocks.values()
        ],
        [
            [i.addr, int(i.kind), i.target, i.behaviour]
            for i in program.branches.values()
        ],
        sorted(program.block_of_term.items()),
        [_behaviour_row(beh) for beh in program.behaviours],
        [[f.index, f.start, f.end, f.n_blocks, f.n_instrs] for f in program.functions],
    ]
    return _digest(rows)


def stream_digest(stream: OracleStream) -> str:
    """SHA-256 of an oracle stream: every segment with its branches."""
    rows = [
        [stream.total_instructions, stream.total_branches, stream.total_taken],
        [
            [
                seg.start,
                seg.n_instrs,
                seg.next_start,
                [[addr, int(kind), taken, target] for addr, kind, taken, target in seg.branches],
            ]
            for seg in stream.segments
        ],
    ]
    return _digest(rows)


def case_hashes(spec: ProgramSpec, program_seed: int, oracle_seed: int, n: int) -> dict:
    """The recorded hashes of one case."""
    program = generate_program(spec, program_seed)
    image = program_digest(program)  # before the oracle moves behaviour state
    stream = run_oracle(program, n, oracle_seed)
    return {"n_instructions": n, "program": image, "stream": stream_digest(stream)}


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUT
    cases = {label: case_hashes(*rest) for label, *rest in trace_cases()}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
