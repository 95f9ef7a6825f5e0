"""Correctness harness: differential checking, invariants, fuzzing.

Three composable layers (see ``docs/TESTING.md``):

* :mod:`repro.check.invariants` -- per-cycle structural invariant
  sweeps, enabled by ``SimParams.check_invariants`` (zero cost when
  off);
* :mod:`repro.check.differential` -- replays an independently
  regenerated functional-oracle stream against the cycle simulator's
  commit stream, branch by branch, plus architectural end-state
  agreement;
* :mod:`repro.check.fuzz` -- a seeded random config/program fuzzer
  running both layers plus metamorphic properties, with greedy failure
  minimisation and JSON reproducers (:mod:`repro.check.reproducer`);
* :mod:`repro.check.sweepdiff` -- the differential sweep-equivalence
  harness (``repro check --sweep``): serial, parallel, sharded and
  killed-then-rerun executions of one declarative sweep spec
  must produce bit-identical merged tables with no point run twice.

Everything is driven from the ``repro check`` CLI subcommand.
"""

from repro.check.differential import (
    CommitRecorder,
    DifferentialDivergence,
    DifferentialReport,
    check_workload,
    run_differential,
)
from repro.check.fuzz import FuzzFailure, FuzzReport, FuzzTrial, build_trial, fuzz, replay
from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.check.reproducer import load_reproducer, write_reproducer
from repro.check.sweepdiff import (
    SweepEquivalenceReport,
    check_spec_expansion,
    check_sweep_equivalence,
    random_sweep_spec,
)

__all__ = [
    "CommitRecorder",
    "DifferentialDivergence",
    "DifferentialReport",
    "FuzzFailure",
    "FuzzReport",
    "FuzzTrial",
    "InvariantChecker",
    "InvariantViolation",
    "SweepEquivalenceReport",
    "build_trial",
    "check_spec_expansion",
    "check_sweep_equivalence",
    "check_workload",
    "fuzz",
    "load_reproducer",
    "random_sweep_spec",
    "replay",
    "run_differential",
    "write_reproducer",
]
