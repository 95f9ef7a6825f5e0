"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer of ``repro`` from
the benchmark's own code: nothing under ``src/`` changes.  Every wrapped
call records one span ``[layer, start, end, parent, point]`` in memory;
the benchmark writes them out when the run ends.  A layer's self time is
the duration of its spans minus the time their child spans cover, so the
self times of all layers (plus the root spans' own time) add up to the
traced wall clock exactly.

Entry points are patched where they are looked up.  ``simulate``,
``typed_kernel``, ``functional_warmup`` and ``build_kernel`` are module
globals of their callers (``repro.core.simulator``,
``repro.experiments.runner``), so the caller's binding is replaced;
class methods (``Simulator.__init__``, ``ResultCache.get``, ...) are
replaced on the class.  :meth:`Tracer.uninstall` restores every binding,
so untraced passes in the same process run the original code.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN_LAYER, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_POINT = range(5)
ROOT_LAYERS = ("setup", "pass")
"""Root spans; their self time is the benchmark's own, unattributed time."""


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, layer: str, point: str | None = None):
        """Record one span around the ``with`` body.

        ``point`` names the sweep point the span serves; a span without
        one inherits its parent's.
        """
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        if point is None and parent >= 0:
            point = spans[parent][SPAN_POINT]
        record = [layer, time.perf_counter(), 0.0, parent, point]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield record
        finally:
            record[SPAN_END] = time.perf_counter()
            stack.pop()

    def wrap(self, layer: str, fn, point=None):
        """``fn`` inside a span; ``point(*args)`` names the point served."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, point(*args) if point is not None else None):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Rebind ``owner.attr``; :meth:`uninstall` restores it."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, (layer, start, end, parent, point) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "point": point,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list], start: int = 0, end: int | None = None) -> dict[str, float]:
    """Self time per layer over ``spans[start:end]``.

    The slice must hold whole subtrees (a root span and all its
    descendants), which is how the benchmark slices setup and passes.
    """
    end = len(spans) if end is None else end
    covered = defaultdict(float)
    for i in range(start, end):
        span = spans[i]
        if span[SPAN_PARENT] >= 0:
            covered[span[SPAN_PARENT]] += span[SPAN_END] - span[SPAN_START]
    out: defaultdict[str, float] = defaultdict(float)
    for i in range(start, end):
        span = spans[i]
        out[span[SPAN_LAYER]] += span[SPAN_END] - span[SPAN_START] - covered[i]
    return dict(out)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's entry points (see the module docstring).

    Must run after ``repro`` is imported; counters land in
    ``tracer.counts``.
    """
    from repro.core import simulator
    from repro.experiments import cache, runner, spec, sweep
    from repro.trace import champsim, workloads

    counts = tracer.counts
    span = tracer.span

    # trace: materialisation and its generator / decoder stages.
    for cls in (workloads.WorkloadSpec, champsim.ChampSimTrace):
        materialize = cls.materialize

        def traced_materialize(self, n_instructions, _orig=materialize):
            counts["trace.materializations"] += 1
            with span("trace.materialize", self.name):
                return _orig(self, n_instructions)

        tracer.patch(cls, "materialize", traced_materialize)
    tracer.patch(workloads, "generate_program", tracer.wrap("trace.program_gen", workloads.generate_program))
    tracer.patch(workloads, "run_oracle", tracer.wrap("trace.oracle", workloads.run_oracle))
    for name in ("load_decoded_prefix", "build_workload"):
        tracer.patch(champsim, name, tracer.wrap("trace.champsim", getattr(champsim, name)))

    # core.build: simulator construction (SimBuilder.wire).
    sim_init = simulator.Simulator.__init__

    def traced_init(self, *args, **kwargs):
        counts["build.sims"] += 1
        with span("build"):
            sim_init(self, *args, **kwargs)

    tracer.patch(simulator.Simulator, "__init__", traced_init)

    # core.warmup
    tracer.patch(simulator, "functional_warmup", tracer.wrap("warmup", simulator.functional_warmup))

    # core.typedkern
    typed_kernel = simulator.typed_kernel

    def traced_typed(sim, *args):
        first = sim.cycle
        with span("kernel.typed"):
            typed_kernel(sim, *args)
        counts["kernel.typed_runs"] += 1
        counts["kernel.typed_cycles"] += sim.cycle - first

    tracer.patch(simulator, "typed_kernel", traced_typed)

    # core.schedule: scalar interpreted kernels.
    build_kernel = simulator.build_kernel

    def traced_build_kernel(features):
        kernel = build_kernel(features)

        def traced_kernel(sim, *args):
            first = sim.cycle
            with span("kernel.interp"):
                kernel(sim, *args)
            counts["kernel.interp_runs"] += 1
            counts["kernel.interp_cycles"] += sim.cycle - first

        return traced_kernel

    tracer.patch(simulator, "build_kernel", traced_build_kernel)

    # core.batch: lockstep units; self time is the interleaved stepping.
    simulate_batch = runner.simulate_batch

    def traced_batch(workload, params_list):
        with span("batch", f"{workload}/batch[{len(params_list)}]") as record:
            results = simulate_batch(workload, params_list)
        counts["batch.s"] += record[SPAN_END] - record[SPAN_START]
        counts["batch.units"] += 1
        counts["batch.lanes"] += len(results)
        counts["kernel.interp_runs"] += len(results)
        counts["kernel.interp_cycles"] += sum(r.cycles for r in results)
        return results

    tracer.patch(runner, "simulate_batch", traced_batch)

    # core.simulator glue (trace memo lookup, run prologue / epilogue).
    traced_simulate = tracer.wrap(
        "simulate", simulator.simulate, point=lambda wl, params, *_: f"{wl}/{params.label()}"
    )
    tracer.patch(simulator, "simulate", traced_simulate)
    tracer.patch(runner, "simulate", traced_simulate)

    # experiments.cache
    get, put = cache.ResultCache.get, cache.ResultCache.put

    def traced_get(self, key):
        with span("cache.get"):
            result = get(self, key)
        counts["cache.lookups"] += 1
        counts["cache.hits"] += result is not None
        return result

    def traced_put(self, key, result, meta=None):
        before = cache.CACHE_STATS.get("cache_bytes_written")
        with span("cache.put"):
            put(self, key, result, meta)
        counts["cache.bytes_written"] += cache.CACHE_STATS.get("cache_bytes_written") - before

    tracer.patch(cache.ResultCache, "get", traced_get)
    tracer.patch(cache.ResultCache, "put", traced_put)

    # experiments.runner: point resolution and keys, as looked up by the
    # runner itself and by spec expansion.
    for module in (runner, spec):
        tracer.patch(module, "_resolve", tracer.wrap("runner", module._resolve))
        tracer.patch(module, "run_key", tracer.wrap("runner.key", module.run_key))
    tracer.patch(sweep, "run_points", tracer.wrap("runner", sweep.run_points))

    # experiments.sweep: table merge (expand is timed by the caller).
    tracer.patch(sweep, "merge_sweep", tracer.wrap("sweep.merge", sweep.merge_sweep))
