"""Experiment harness: canonical configurations, cached/parallel runner,
the persistent result cache, declarative sweep specs with sharded
execution through that cache (docs/SWEEPS.md), and one function per
table/figure of the paper (see DESIGN.md section 4 and
docs/PERFORMANCE.md)."""

from repro.experiments.cache import (
    ResultCache,
    cache_stats,
    params_fingerprint,
    run_key,
    workload_fingerprint,
)
from repro.experiments.configs import (
    baseline_params,
    default_params,
    evaluation_workloads,
    no_fdp,
    repro_jobs,
)
from repro.experiments.runner import (
    clear_cache,
    geomean_speedup,
    mean_metric,
    run_config,
    run_matrix,
    run_points,
)
from repro.experiments.spec import (
    SweepPoint,
    SweepSpec,
    SweepSpecError,
    expand,
    load_spec,
    parse_shard,
    parse_spec,
    shard_points,
)
from repro.experiments.sweep import SweepOutcome, merge_sweep, run_sweep

__all__ = [
    "ResultCache",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "SweepSpecError",
    "baseline_params",
    "cache_stats",
    "clear_cache",
    "default_params",
    "evaluation_workloads",
    "expand",
    "geomean_speedup",
    "load_spec",
    "mean_metric",
    "merge_sweep",
    "no_fdp",
    "params_fingerprint",
    "parse_shard",
    "parse_spec",
    "repro_jobs",
    "run_config",
    "run_key",
    "run_matrix",
    "run_points",
    "run_sweep",
    "shard_points",
    "workload_fingerprint",
]
