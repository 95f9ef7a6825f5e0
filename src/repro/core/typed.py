"""Typed-kernel backend selection.

The simulator has two cycle-loop backends:

``interp``
    The written-out reference loop
    (:func:`repro.core.simulator.reference_kernel`), which calls each
    observer only when it is attached.  It steps every cycle.

``typed``
    The hand-lowered flat kernel (:mod:`repro.core.typedkern`) for every
    run without an observer (see :func:`supported`); dedicated
    prefetchers included.  It is bit-identical to the interpreted
    kernel by contract (pinned by ``tests/test_typed.py`` and the
    ``typed_interp_identity`` fuzz property) and exists purely for
    speed: it inlines the stage calls, and it is the only kernel that
    skips idle cycles and drains the decode queue retire-only.  When
    the optional mypyc toolchain has compiled ``typedkern`` into an
    extension module the backend reports ``typed-compiled``; otherwise
    the pure-Python module runs as-is and reports ``typed-python``.

The backend is derived, never configured: :meth:`Simulator.run
<repro.core.simulator.Simulator.run>` takes the typed kernel whenever
:func:`supported` holds and the interpreted kernel otherwise.  Because
both backends are bit-identical, the backend is not part of a result's
identity (cache keys hash content only); :meth:`Simulator.run` records
the one it took as ``RunResult.kernel_backend``, which cache entries,
manifests and ``--stats-json`` keep, so every result names the backend
that produced it.  The interpreted kernel stays the reference path the
correctness harness compares against, reached through
``Simulator.run(reference=True)``.
"""

from __future__ import annotations

from repro.core.typedkern import typed_kernel

__all__ = [
    "backend_name",
    "supported",
    "typed_kernel",
]


def supported(sim) -> tuple[bool, str]:
    """Can ``sim`` run on the typed kernel?  Returns ``(ok, reason)``.

    The typed kernel does not lower the observers -- the invariant
    checker, the stage profiler and the telemetry hub -- which want to
    see every cycle of the loop they observe.  A run with any of them
    attached takes the interpreted kernel.
    """
    observers = [
        name
        for name, observer in (
            ("checker", sim.checker),
            ("profile", sim.profiler),
            ("telemetry", sim.telemetry),
        )
        if observer is not None
    ]
    if observers:
        return False, f"observers {observers} require the interpreted kernel"
    return True, ""


def backend_name() -> str:
    """``typed-compiled`` when mypyc's extension shadows ``typedkern``,
    else ``typed-python``."""
    from repro.core import typedkern

    source = getattr(typedkern, "__file__", "") or ""
    return "typed-python" if source.endswith(".py") else "typed-compiled"
