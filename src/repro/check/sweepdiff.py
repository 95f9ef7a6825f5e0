"""Differential sweep-equivalence harness (``repro check --sweep``).

Shard and rerun bookkeeping is exactly the kind of distributed
machinery that silently drops or double-counts points, so the sweep
scheduler ships with a harness that *proves*, for a given spec, that
every execution strategy yields the identical result set:

* **serial**       -- one process, ``jobs=1``;
* **parallel**     -- one run fanned across a worker pool;
* **shard2/shard3**-- every shard of a 2-way and a 3-way partition run
  sequentially against a shared cache, the last one writing the table;
* **resume**       -- a sweep killed after half its points (the first
  half of the expansion goes through ``run_points``, then the memo is
  dropped, as the killed process's would be), then run again in full
  against the same cache.

Each strategy executes in its own isolated result-cache and ledger
directories (the in-process memo is cleared between runs), so every
strategy actually recomputes its points.  The harness then asserts:

1. the merged ``table.csv`` / ``table.json`` / ``table.md`` files are
   **byte-identical** across all strategies;
2. every strategy's ledgers reconcile: each expansion point has exactly
   one terminal event per run, **no point is simulated more than once**
   across a strategy's runs (a rerun must not redo finished work), and
   **no point is missed**;
3. the rerun started only the points the killed run had not
   completed.

The fuzzer reuses the expansion-layer half of this module:
:func:`random_sweep_spec` plus :func:`check_spec_expansion` form fuzz
property 9 (spec round-trip and shard-union identity on random specs).
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.ledger import invalid_sequences, read_ledger
from repro.experiments.runner import clear_cache, run_points
from repro.experiments.spec import (
    SweepSpec,
    expand,
    parse_spec,
    shard_points,
)
from repro.experiments.sweep import MERGED_BASENAME, run_sweep

STRATEGIES = ("serial", "parallel", "shard2", "shard3", "resume")
"""Execution strategies the equivalence harness compares."""


@dataclass
class StrategyOutcome:
    """One strategy's observable behaviour."""

    name: str
    digests: dict[str, str] = field(default_factory=dict)
    started: dict[str, int] = field(default_factory=dict)
    terminal: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class SweepEquivalenceReport:
    """Verdict of one ``repro check --sweep`` run."""

    spec_name: str
    n_points: int
    strategies: list[StrategyOutcome] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and not any(s.problems for s in self.strategies)

    def all_problems(self) -> list[str]:
        out = list(self.problems)
        for strategy in self.strategies:
            out.extend(f"[{strategy.name}] {p}" for p in strategy.problems)
        return out


@contextmanager
def _isolated(cache_dir: Path, ledger_dir: Path):
    """Point the cache and ledger env at strategy-private directories
    (the cache is on: the shard and resume strategies read it back)."""
    saved = {k: os.environ.get(k) for k in ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_LEDGER")}
    os.environ["REPRO_CACHE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_LEDGER"] = str(ledger_dir)
    clear_cache()
    try:
        yield
    finally:
        clear_cache()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _digest_tables(out_dir: Path) -> dict[str, str]:
    digests = {}
    for suffix in ("csv", "json", "md"):
        path = out_dir / f"{MERGED_BASENAME}.{suffix}"
        if path.is_file():
            digests[f"{MERGED_BASENAME}.{suffix}"] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


def _reconcile_ledgers(
    outcome: StrategyOutcome, ledger_dir: Path, expected_ids: set[str]
) -> None:
    """Fold a strategy's ledger files into started/terminal counts."""
    paths = sorted(Path(ledger_dir).glob("*.jsonl"))
    if not paths:
        outcome.problems.append("no ledger files written (REPRO_LEDGER ignored?)")
        return
    for path in paths:
        events = read_ledger(path)
        invalid = invalid_sequences(events)
        if invalid:
            outcome.problems.append(
                f"{path.name}: {len(invalid)} invalid job lifecycle(s)"
            )
        per_run_terminal: dict[str, int] = {}
        for record in events:
            key = record.get("key")
            if key is None:
                continue
            if record["event"] == "started":
                outcome.started[key] = outcome.started.get(key, 0) + 1
            if record["event"] in ("cache_hit", "finished", "failed"):
                per_run_terminal[key] = per_run_terminal.get(key, 0) + 1
                outcome.terminal[key] = outcome.terminal.get(key, 0) + 1
        doubled = {k: n for k, n in per_run_terminal.items() if n > 1}
        if doubled:
            outcome.problems.append(
                f"{path.name}: {len(doubled)} point(s) with multiple terminal events"
            )
    ran_twice = {k: n for k, n in outcome.started.items() if n > 1}
    if ran_twice:
        outcome.problems.append(
            f"{len(ran_twice)} point(s) simulated more than once across runs "
            "(rerun/shard dedup failure)"
        )
    strangers = set(outcome.terminal) - expected_ids
    if strangers:
        outcome.problems.append(
            f"{len(strangers)} ledgered point(s) not in the expansion"
        )
    missed = expected_ids - set(outcome.terminal)
    if missed:
        outcome.problems.append(f"{len(missed)} expansion point(s) never ledgered")


def check_sweep_equivalence(
    spec: SweepSpec,
    workdir: Path | str | None = None,
    jobs: int = 4,
    log=None,
) -> SweepEquivalenceReport:
    """Run every strategy and compare tables and ledgers; see module doc."""
    points = expand(spec)
    report = SweepEquivalenceReport(spec_name=spec.name, n_points=len(points))
    say = log or (lambda *_: None)

    with tempfile.TemporaryDirectory(prefix="repro-sweepdiff-") as tmp:
        root = Path(workdir) if workdir is not None else Path(tmp)
        root.mkdir(parents=True, exist_ok=True)

        for name in STRATEGIES:
            strategy = StrategyOutcome(name=name)
            report.strategies.append(strategy)
            base = root / name
            cache_dir, ledger_dir, out_dir = (
                base / "cache",
                base / "ledger",
                base / "out",
            )
            say(f"  strategy {name}: running {len(points)} point(s)")
            try:
                with _isolated(cache_dir, ledger_dir):
                    if name == "serial":
                        run_sweep(spec, points, jobs=1, out_dir=out_dir)
                    elif name == "parallel":
                        run_sweep(spec, points, jobs=jobs, out_dir=out_dir)
                    elif name in ("shard2", "shard3"):
                        total = 2 if name == "shard2" else 3
                        for k in range(1, total + 1):
                            clear_cache()  # each shard models its own process
                            run_sweep(
                                spec,
                                points,
                                shard=(k, total),
                                jobs=jobs,
                                out_dir=out_dir,
                            )
                    else:  # resume
                        half = max(1, (len(points) + 1) // 2)
                        run_points(((p.workload, p.params) for p in points[:half]), jobs=jobs)
                        # A killed sweep loses its process; drop the memo so
                        # the rerun must go through the disk cache.
                        clear_cache()
                        run_sweep(spec, points, jobs=jobs, out_dir=out_dir)
            except Exception as exc:
                strategy.problems.append(f"execution failed: {type(exc).__name__}: {exc}")
                continue
            strategy.digests = _digest_tables(out_dir)
            if len(strategy.digests) != 3:
                strategy.problems.append("merged table files missing")
            _reconcile_ledgers(strategy, ledger_dir, {p.point_id for p in points})

        reference = next((s for s in report.strategies if s.digests), None)
        if reference is not None:
            for strategy in report.strategies:
                if strategy is reference or not strategy.digests:
                    continue
                for fname, digest in reference.digests.items():
                    if strategy.digests.get(fname) != digest:
                        report.problems.append(
                            f"{fname} differs between {reference.name} and "
                            f"{strategy.name}"
                        )
    return report


# ----------------------------------------------------------------------
# Fuzz property 9: expansion round-trip + shard-union identity
# ----------------------------------------------------------------------
_FUZZ_AXES = (
    ("frontend.ftq_entries", (2, 4, 8, 16, 24, 32)),
    ("branch.btb_entries", (512, 1024, 2048, 8192)),
    ("frontend.pfc_enabled", (False, True)),
    ("branch.btb_latency", (1, 2, 3)),
    ("frontend.history_policy", ("THR", "GHR0", "GHR2", "Ideal")),
    ("prefetcher", ("none", "nl1", "perfect")),
    ("core.mispredict_penalty", (8, 14, 20)),
)

_FUZZ_WORKLOADS = ("srv_web", "srv_db", "clt_browser", "spc_int_a")


def random_sweep_spec(rng: random.Random) -> SweepSpec:
    """Draw a small random-but-valid sweep spec (expansion-layer fuzzing)."""
    axes = rng.sample(list(_FUZZ_AXES), k=rng.randint(1, 3))
    matrix = {}
    for key, pool in axes:
        k = rng.randint(2, min(3, len(pool)))
        matrix[key] = list(rng.sample(list(pool), k=k))
    data: dict = {
        "sweep": f"fuzz-{rng.randint(0, 2**16)}",
        "workloads": rng.sample(list(_FUZZ_WORKLOADS), k=rng.randint(1, 2)),
        "base": {
            "warmup_instructions": rng.choice([0, 500]),
            "sim_instructions": rng.choice([1500, 2500]),
        },
        "matrix": matrix,
        "output": {"metrics": rng.sample(["ipc", "cycles", "branch_mpki"], k=2)},
    }
    n_configs = 1
    for values in matrix.values():
        n_configs *= len(values)
    if n_configs >= 2 and rng.random() < 0.5:
        # A complete-assignment exclude removes exactly one combination.
        data["exclude"] = [{key: rng.choice(values) for key, values in matrix.items()}]
    return parse_spec(data)


def check_spec_expansion(spec: SweepSpec) -> str | None:
    """Fuzz property 9 body; returns a failure message or ``None``.

    * expansion is deterministic (two expansions agree point for point);
    * ``to_dict`` -> ``parse_spec`` round-trips to the identical
      expansion (IDs, labels *and* order);
    * for N in {2, 3, 5}: shards are pairwise disjoint, their union is
      the full expansion, and sizes differ by at most one.
    """
    points = expand(spec)
    again = expand(spec)
    if [p.point_id for p in points] != [p.point_id for p in again]:
        return "expansion is not deterministic across calls"

    reparsed = expand(parse_spec(spec.to_dict(), name_hint=spec.name))
    mine = [(p.point_id, p.workload, p.label) for p in points]
    theirs = [(p.point_id, p.workload, p.label) for p in reparsed]
    if mine != theirs:
        return "to_dict/parse_spec round-trip changed the expansion"

    all_ids = [p.point_id for p in points]
    if len(set(all_ids)) != len(all_ids):
        return "expansion contains duplicate point IDs"
    for total in (2, 3, 5):
        shards = [shard_points(points, k, total) for k in range(1, total + 1)]
        sizes = [len(s) for s in shards]
        if max(sizes) - min(sizes) > 1:
            return f"shard skew {sizes} exceeds 1 for N={total}"
        union: list[str] = []
        for shard in shards:
            union.extend(p.point_id for p in shard)
        if len(union) != len(set(union)):
            return f"shards overlap for N={total}"
        if set(union) != set(all_ids):
            return f"shard union misses points for N={total}"
    return None
