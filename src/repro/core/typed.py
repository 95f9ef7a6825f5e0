"""Typed-kernel backend selection.

The simulator has two cycle-loop backends:

``interp``
    The schedule-generated interpreted kernel
    (:func:`repro.core.schedule.build_kernel`) -- composed from
    :data:`~repro.core.schedule.CYCLE_SCHEDULE` for any feature set.
    It steps every cycle.

``typed``
    The hand-lowered flat kernel (:mod:`repro.core.typedkern`) for every
    run without an observer (:data:`INTERP_ONLY_FEATURES`); dedicated
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
identity (cache keys hash content only); it is recorded as
``kernel_backend`` in manifests and ``--stats-json`` so every result
names the backend that produced it.  The
interpreted kernel stays the reference path the correctness harness
compares against, reached through ``Simulator.run(reference=True)``.
"""

from __future__ import annotations

from repro.common.params import SimParams
from repro.core.typedkern import typed_kernel

__all__ = [
    "INTERP_ONLY_FEATURES",
    "backend_name",
    "kernel_backend_for_params",
    "supported",
    "typed_kernel",
]


INTERP_ONLY_FEATURES = frozenset({"telemetry", "checker", "profile"})
"""Schedule features the typed kernel does not lower: the observers,
which want to see every cycle of the loop they observe.  A run with any
of them active takes the interpreted kernel."""


def supported(sim) -> tuple[bool, str]:
    """Can ``sim`` run on the typed kernel?  Returns ``(ok, reason)``."""
    observers = sim.active_features() & INTERP_ONLY_FEATURES
    if observers:
        return False, (
            f"active features {sorted(observers)} require the interpreted kernel"
        )
    return True, ""


def backend_name() -> str:
    """``typed-compiled`` when mypyc's extension shadows ``typedkern``,
    else ``typed-python``."""
    from repro.core import typedkern

    source = getattr(typedkern, "__file__", "") or ""
    return "typed-python" if source.endswith(".py") else "typed-compiled"


def kernel_backend_for_params(params: SimParams) -> str:
    """The backend label an uninstrumented run of ``params`` records:
    ``typed-compiled`` / ``typed-python`` / ``interp``.

    Mirrors :func:`supported` from params alone: the only observer
    params can switch on is the checker (``check_invariants``).
    Manifests and ``--stats-json`` record this label.
    """
    return "interp" if params.check_invariants else backend_name()
