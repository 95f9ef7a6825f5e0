"""Typed-kernel backend selection.

The simulator has two cycle-loop backends:

``interp``
    The schedule-generated interpreted kernel
    (:func:`repro.core.schedule.build_kernel`) -- composed from
    :data:`~repro.core.schedule.CYCLE_SCHEDULE` for any feature set.

``typed``
    The hand-lowered flat kernel (:mod:`repro.core.typedkern`) for the
    *uninstrumented* feature set only.  It is bit-identical to the
    interpreted kernel by contract (pinned by ``tests/test_typed.py``
    and the ``typed_interp_identity`` fuzz property) and exists purely
    for speed.  When the optional mypyc toolchain has compiled
    ``typedkern`` into an extension module the backend reports
    ``typed-compiled``; otherwise the pure-Python module runs as-is and
    reports ``typed-python``.

The backend is derived, never configured: :meth:`Simulator.run
<repro.core.simulator.Simulator.run>` takes the typed kernel whenever
:func:`supported` holds and the interpreted kernel otherwise.  Because
both backends are bit-identical, the backend is not part of a result's
identity (cache keys hash content only); it is recorded as
``kernel_backend`` in manifests, ``--stats-json`` and bench history
lines so every number names the backend that produced it.  The
interpreted kernel stays the reference path the correctness harness
compares against, reached through ``Simulator.run(reference=True)``.
"""

from __future__ import annotations

from repro.common.params import SimParams
from repro.core.build import builds_prefetcher
from repro.core.typedkern import typed_kernel

__all__ = [
    "backend_name",
    "kernel_backend_for_params",
    "supported",
    "typed_eligible",
    "typed_kernel",
]


def supported(sim) -> tuple[bool, str]:
    """Can ``sim`` run on the typed kernel?  Returns ``(ok, reason)``.

    The typed kernel lowers only the uninstrumented schedule: any
    active feature (telemetry, checker, dedicated prefetcher,
    profiler) composes extra hook points into the loop, so those runs
    use the interpreted kernel.
    """
    features = sim.active_features()
    if features:
        return False, (
            f"active features {sorted(features)} require the interpreted kernel"
        )
    return True, ""


def backend_name() -> str:
    """``typed-compiled`` when mypyc's extension shadows ``typedkern``,
    else ``typed-python``."""
    from repro.core import typedkern

    source = getattr(typedkern, "__file__", "") or ""
    return "typed-python" if source.endswith(".py") else "typed-compiled"


def typed_eligible(params: SimParams) -> bool:
    """Would a scalar run of ``params`` (no telemetry/profiler attached)
    take the typed kernel?

    Mirrors :func:`supported` from params alone: the checker feature
    comes from ``check_invariants`` and the prefetcher feature from any
    prefetcher name that builds a component
    (:func:`repro.core.build.builds_prefetcher`).  The sweep runner uses
    this to prefer the typed scalar path over interpreted lockstep
    batching, and the cache layer to derive the recorded backend.
    """
    return not params.check_invariants and not builds_prefetcher(params.prefetcher)


def kernel_backend_for_params(params: SimParams) -> str:
    """The backend label an uninstrumented scalar run of ``params``
    records: ``typed-compiled`` / ``typed-python`` / ``interp``."""
    return backend_name() if typed_eligible(params) else "interp"
