"""Declarative sweep specs: matrix expansion with stable point IDs.

The paper's evaluation (Figs 4-11) is a family of config-matrix sweeps
over ``(workload x SimParams)``.  This module turns such a sweep into a
small declarative file (benchalot-style YAML or JSON) instead of a
hand-coded figure script::

    sweep: btb-pfc
    workloads: [srv_web, srv_db]          # or "quick" / "all"; entries may
                                          # also be trace-file paths or
                                          # {name: web1, trace: w.champsim.xz}
    base:                                 # applied to default_params()
      warmup_instructions: 3000
      sim_instructions: 8000
    matrix:                               # cartesian product over axes
      branch.btb_entries: [512, 8192]
      frontend.pfc_enabled: [false, true]
    exclude:                              # drop matching combinations
      - {branch.btb_entries: 512, frontend.pfc_enabled: true}
    include:                              # append extra combinations
      - {branch.btb_entries: 32768, frontend.pfc_enabled: true}
    output:
      metrics: [ipc, branch_mpki]

Axis keys are dotted paths into :class:`~repro.common.params.SimParams`
(``frontend.*``, ``branch.*``, ``memory.*``, ``core.*``, or a top-level
field such as ``prefetcher``).  Expansion is **deterministic**: axes in
file order, values in listed order, excludes filtered, includes
appended, then the config list crossed with the workload list.  Every
point's identity is the *existing content-addressed cache key*
(:func:`repro.experiments.cache.run_key` of the environment-resolved
parameters), so point IDs are stable across processes, machines and
re-parses -- which is what makes sharded and resumable execution safe:
any shard of any run of the same spec agrees on which point is which.

Sharding (``--shard k/N``) sorts points by ID and deals them round-robin,
so for every N the shards are disjoint, their union is the full
expansion, and sizes differ by at most one.

:mod:`repro.experiments.sweep` executes expansions; this module is pure
bookkeeping (parse, validate, expand, partition) and raises
:class:`SweepSpecError` on any malformed input.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

try:  # optional: JSON specs work without PyYAML
    import yaml as _yaml
except ImportError:  # pragma: no cover - PyYAML ships in the dev env
    _yaml = None

from repro.common.params import SimParams
from repro.experiments.cache import run_key
from repro.experiments.configs import QUICK_WORKLOADS, default_params
from repro.experiments.runner import _resolve
from repro.trace.source import (
    looks_like_trace_path,
    register_workload,
    resolve_workload,
    trace_name_for_path,
)
from repro.trace.workloads import default_workloads

SWEEP_SPEC_VERSION = 1
"""Schema tag stamped into merged tables."""

PARAM_GROUPS = ("frontend", "branch", "memory", "core")
"""Dotted-key prefixes addressing the nested parameter dataclasses."""

METRICS = (
    "ipc",
    "cycles",
    "instructions",
    "branch_mpki",
    "cond_mpki",
    "l1i_mpki",
    "starvation_per_kilo",
    "tag_accesses_per_kilo",
    "exposed_fraction",
    "prefetch_accuracy",
    "prefetch_coverage",
    "prefetch_timeliness",
)
"""RunResult metrics a spec's ``output.metrics`` may request."""


class SweepSpecError(ValueError):
    """A sweep spec is malformed (bad key, value, rule or shard)."""


# ----------------------------------------------------------------------
# Parameter addressing
# ----------------------------------------------------------------------
def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


_TOP_FIELDS = _field_names(SimParams) - set(PARAM_GROUPS)


def valid_setting_key(key: str) -> bool:
    """Whether ``key`` addresses a settable parameter field."""
    if "." in key:
        group, _, field = key.partition(".")
        if group not in PARAM_GROUPS or "." in field:
            return False
        return field in _field_names(type(getattr(SimParams(), group)))
    return key in _TOP_FIELDS


def apply_setting(params: SimParams, key: str, value) -> SimParams:
    """Return ``params`` with one dotted-key field replaced.

    Invalid keys raise :class:`SweepSpecError`; invalid *values* are
    re-raised as :class:`SweepSpecError` too, carrying the dataclass
    validation message, so a bad spec fails at expansion -- before any
    simulation is scheduled.
    """
    if not valid_setting_key(key):
        raise SweepSpecError(
            f"unknown parameter key {key!r} (expected a SimParams field or "
            f"one of {'/'.join(PARAM_GROUPS)}.<field>)"
        )
    if isinstance(value, list):
        value = tuple(value)
    try:
        if "." in key:
            group, _, field = key.partition(".")
            sub = dataclasses.replace(getattr(params, group), **{field: value})
            return params.replace(**{group: sub})
        return params.replace(**{key: value})
    except (TypeError, ValueError) as exc:
        raise SweepSpecError(f"invalid value for {key!r}: {exc}") from exc


def _fmt_value(value) -> str:
    """Deterministic human-readable form of one axis value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ----------------------------------------------------------------------
# Spec model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """One parsed, validated sweep spec (see module docstring)."""

    name: str
    workloads: tuple[str, ...]
    base: tuple[tuple[str, object], ...]
    matrix: tuple[tuple[str, tuple], ...]
    exclude: tuple[tuple[tuple[str, object], ...], ...]
    include: tuple[tuple[tuple[str, object], ...], ...]
    metrics: tuple[str, ...]
    out_dir: str | None = None
    #: Trace-backed workload entries as (registered name, file path);
    #: names in ``workloads`` appearing here came from trace files.
    traces: tuple[tuple[str, str], ...] = field(default=())

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(key for key, _ in self.matrix)

    def to_dict(self) -> dict:
        """Canonical JSON-able form; ``parse_spec`` round-trips it."""
        trace_map = dict(self.traces)
        payload: dict = {
            "sweep": self.name,
            "workloads": [
                {"name": n, "trace": trace_map[n]} if n in trace_map else n
                for n in self.workloads
            ],
            "matrix": {key: list(values) for key, values in self.matrix},
        }
        if self.base:
            payload["base"] = dict(self.base)
        if self.exclude:
            payload["exclude"] = [dict(rule) for rule in self.exclude]
        if self.include:
            payload["include"] = [dict(rule) for rule in self.include]
        output: dict = {"metrics": list(self.metrics)}
        if self.out_dir is not None:
            output["dir"] = self.out_dir
        payload["output"] = output
        return payload

    def fingerprint(self) -> str:
        """Stable content hash of the spec (shard-merge compatibility tag)."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _register_trace_entry(path: str, name: str | None) -> str:
    """Register one trace-file workload entry; returns its name."""
    from repro.trace.champsim import ChampSimTrace

    if not os.path.isfile(path):
        raise SweepSpecError(f"trace file {path!r} does not exist")
    try:
        source = register_workload(
            ChampSimTrace(path, name=name or trace_name_for_path(path))
        )
    except ValueError as exc:
        raise SweepSpecError(str(exc)) from exc
    return source.name


def _resolve_workloads(raw) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Resolve the ``workloads:`` section into (names, trace entries).

    Entries may be catalogue/registered names, ``"quick"``/``"all"``
    shorthands, paths to trace files, or mappings
    ``{name: ..., trace: path}`` binding a trace file to an explicit
    registry name.  Trace entries are registered here so expansion's
    cache keys can resolve them.
    """
    if raw in (None, "all"):
        return tuple(w.name for w in default_workloads()), ()
    if raw == "quick":
        return tuple(QUICK_WORKLOADS), ()
    if isinstance(raw, str):
        raw = [n.strip() for n in raw.split(",") if n.strip()]
    if not isinstance(raw, list) or not raw:
        raise SweepSpecError("'workloads' must be 'quick', 'all' or a non-empty list")
    names: list[str] = []
    traces: list[tuple[str, str]] = []
    unknown: list[str] = []
    for entry in raw:
        if isinstance(entry, dict):
            bad = [k for k in entry if k not in ("name", "trace")]
            if bad:
                raise SweepSpecError(
                    f"unknown workload-entry key(s): {', '.join(bad)} "
                    f"(a mapping entry takes 'trace' and optional 'name')"
                )
            path = entry.get("trace")
            if not isinstance(path, str) or not path:
                raise SweepSpecError(
                    "a workload mapping entry needs a 'trace' file path"
                )
            name = _register_trace_entry(path, entry.get("name"))
            names.append(name)
            traces.append((name, path))
            continue
        if not isinstance(entry, str):
            raise SweepSpecError(
                f"workload entries must be names or trace mappings, got {entry!r}"
            )
        if looks_like_trace_path(entry):
            name = _register_trace_entry(entry, None)
            names.append(name)
            traces.append((name, entry))
            continue
        try:
            resolve_workload(entry)
        except KeyError:
            unknown.append(entry)
            continue
        names.append(entry)
    if unknown:
        raise SweepSpecError(f"unknown workloads: {', '.join(map(str, unknown))}")
    if len(set(names)) != len(names):
        raise SweepSpecError("duplicate workload names in 'workloads'")
    return tuple(names), tuple(traces)


def _parse_rule(rule, axes: tuple[str, ...], kind: str, complete: bool):
    if not isinstance(rule, dict) or not rule:
        raise SweepSpecError(f"each '{kind}' rule must be a non-empty mapping")
    unknown = [k for k in rule if k not in axes]
    if unknown:
        raise SweepSpecError(
            f"'{kind}' rule references non-matrix key(s): {', '.join(unknown)}"
        )
    if complete and set(rule) != set(axes):
        missing = [k for k in axes if k not in rule]
        raise SweepSpecError(
            f"'{kind}' rule must assign every matrix axis (missing: {', '.join(missing)})"
        )
    return tuple((key, rule[key]) for key in axes if key in rule)


def parse_spec(data: dict, name_hint: str = "sweep") -> SweepSpec:
    """Validate a raw spec mapping into a :class:`SweepSpec`."""
    if not isinstance(data, dict):
        raise SweepSpecError("spec root must be a mapping")
    known_top = {"sweep", "workloads", "base", "matrix", "exclude", "include", "output"}
    unknown = [k for k in data if k not in known_top]
    if unknown:
        raise SweepSpecError(f"unknown top-level spec key(s): {', '.join(unknown)}")

    name = data.get("sweep", name_hint)
    if not isinstance(name, str) or not name:
        raise SweepSpecError("'sweep' (the sweep name) must be a non-empty string")

    raw_matrix = data.get("matrix", {})
    if not isinstance(raw_matrix, dict):
        raise SweepSpecError("'matrix' must be a mapping of axis -> value list")
    matrix = []
    for key, values in raw_matrix.items():
        if not valid_setting_key(key):
            raise SweepSpecError(f"unknown matrix axis {key!r}")
        if not isinstance(values, list) or not values:
            raise SweepSpecError(f"matrix axis {key!r} needs a non-empty value list")
        hashable = [tuple(v) if isinstance(v, list) else v for v in values]
        if len(set(hashable)) != len(hashable):
            raise SweepSpecError(f"matrix axis {key!r} has duplicate values")
        matrix.append((key, tuple(values)))

    base = data.get("base", {})
    if not isinstance(base, dict):
        raise SweepSpecError("'base' must be a mapping of parameter -> value")
    for key in base:
        if not valid_setting_key(key):
            raise SweepSpecError(f"unknown base parameter key {key!r}")
        if any(key == axis for axis, _ in matrix):
            raise SweepSpecError(f"{key!r} appears in both 'base' and 'matrix'")

    axes = tuple(key for key, _ in matrix)
    exclude = tuple(
        _parse_rule(rule, axes, "exclude", complete=False)
        for rule in _as_rule_list(data.get("exclude"), "exclude")
    )
    include = tuple(
        _parse_rule(rule, axes, "include", complete=True)
        for rule in _as_rule_list(data.get("include"), "include")
    )

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise SweepSpecError("'output' must be a mapping")
    unknown = [k for k in output if k not in ("metrics", "dir")]
    if unknown:
        raise SweepSpecError(f"unknown 'output' key(s): {', '.join(unknown)}")
    metrics = output.get("metrics", ["ipc"])
    if not isinstance(metrics, list) or not metrics:
        raise SweepSpecError("'output.metrics' must be a non-empty list")
    bad = [m for m in metrics if m not in METRICS]
    if bad:
        raise SweepSpecError(
            f"unknown metric(s) {', '.join(map(str, bad))}; known: {', '.join(METRICS)}"
        )
    out_dir = output.get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise SweepSpecError("'output.dir' must be a string path")

    workloads, traces = _resolve_workloads(data.get("workloads"))
    return SweepSpec(
        name=name,
        workloads=workloads,
        base=tuple(base.items()),
        matrix=tuple(matrix),
        exclude=exclude,
        include=include,
        metrics=tuple(metrics),
        out_dir=out_dir,
        traces=traces,
    )


def _as_rule_list(raw, kind: str) -> list:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise SweepSpecError(f"'{kind}' must be a list of mappings")
    return raw


def load_spec(path: str | Path) -> SweepSpec:
    """Parse a spec file (``.yaml``/``.yml`` via PyYAML, else JSON)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        if _yaml is None:
            raise SweepSpecError(
                f"{path}: PyYAML is not installed; use a JSON spec instead"
            )
        try:
            data = _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise SweepSpecError(f"{path}: invalid YAML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepSpecError(f"{path}: invalid JSON: {exc}") from exc
    return parse_spec(data, name_hint=path.stem)


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One (workload, configuration) simulation of an expanded sweep.

    ``point_id`` is the content-addressed cache key of the
    environment-resolved parameters -- the same key the runner and the
    disk cache use -- so shards, re-runs and independent machines
    all agree on point identity.
    """

    index: int
    workload: str
    label: str
    settings: tuple[tuple[str, object], ...]
    params: SimParams
    point_id: str

    @property
    def settings_dict(self) -> dict:
        return dict(self.settings)


def _matching(assignment: dict, rule: tuple[tuple[str, object], ...]) -> bool:
    return all(assignment.get(key) == value for key, value in rule)


def expand(spec: SweepSpec) -> list[SweepPoint]:
    """Deterministically expand a spec into its ordered point list.

    Order: matrix axes in file order, values in listed order (the last
    axis varies fastest), excludes filtered, includes appended, then
    each surviving configuration crossed with the workload list.
    Raises :class:`SweepSpecError` when the expansion is empty or two
    configurations collapse to the same point (duplicate include, or an
    axis that does not affect the resolved parameters).
    """
    base_params = default_params()
    for key, value in spec.base:
        base_params = apply_setting(base_params, key, value)

    assignments: list[dict] = []
    if spec.matrix:
        axes = spec.axes
        for combo in product(*(values for _, values in spec.matrix)):
            assignment = dict(zip(axes, combo))
            if any(_matching(assignment, rule) for rule in spec.exclude):
                continue
            assignments.append(assignment)
    else:
        assignments.append({})
    for rule in spec.include:
        assignments.append(dict(rule))

    points: list[SweepPoint] = []
    seen: dict[str, str] = {}
    index = 0
    for assignment in assignments:
        params = base_params
        for key, value in assignment.items():
            params = apply_setting(params, key, value)
        label = (
            ",".join(f"{k}={_fmt_value(v)}" for k, v in assignment.items())
            or "base"
        )
        for workload in spec.workloads:
            point_id = run_key(workload, _resolve(params))
            previous = seen.get(point_id)
            if previous is not None:
                raise SweepSpecError(
                    f"duplicate point: ({workload}, {label}) collides with "
                    f"({previous}) -- remove the duplicate include rule or "
                    f"the no-op axis"
                )
            seen[point_id] = f"{workload}, {label}"
            points.append(
                SweepPoint(
                    index=index,
                    workload=workload,
                    label=label,
                    settings=tuple(assignment.items()),
                    params=params,
                    point_id=point_id,
                )
            )
            index += 1
    if not points:
        raise SweepSpecError("spec expands to zero points (everything excluded)")
    return points


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"k/N"`` into a 1-based (shard, total) pair.

    Raises :class:`SweepSpecError` with a usable message on anything
    else -- ``3/2``, ``0/2``, ``a/b``, a bare ``2`` -- because a
    silently mis-parsed shard spec is exactly how points get dropped.
    """
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise SweepSpecError(
            f"invalid shard {text!r}: expected k/N (e.g. --shard 2/4)"
        )
    try:
        k, total = int(parts[0]), int(parts[1])
    except ValueError:
        raise SweepSpecError(
            f"invalid shard {text!r}: k and N must be integers"
        ) from None
    if total < 1:
        raise SweepSpecError(f"invalid shard {text!r}: N must be at least 1")
    if not 1 <= k <= total:
        raise SweepSpecError(
            f"invalid shard {text!r}: k must be between 1 and N={total}"
        )
    return k, total


def shard_points(points: list[SweepPoint], shard: int, total: int) -> list[SweepPoint]:
    """The subset of ``points`` owned by 1-based shard ``shard`` of ``total``.

    Points are ranked by their stable IDs and dealt round-robin, so the
    partition is independent of expansion order, process, platform and
    machine: for every N the shards are disjoint, the union over k is
    the full expansion, and shard sizes differ by at most one.  The
    returned subset preserves expansion order.
    """
    if not 1 <= shard <= total:
        raise SweepSpecError(f"shard {shard}/{total} out of range")
    rank = {
        point_id: pos
        for pos, point_id in enumerate(sorted(p.point_id for p in points))
    }
    return [p for p in points if rank[p.point_id] % total == shard - 1]


def metric_value(result, metric: str) -> float | int:
    """Extract one validated metric from a :class:`RunResult`."""
    value = getattr(result, metric)
    return value() if callable(value) else value
