"""Registry-driven simulator construction (:class:`SimBuilder`).

This module owns the wiring that used to live inline in
``Simulator.__init__``: every pluggable component family is resolved
through a uniform :class:`~repro.common.registry.Registry`, and the
cross-cutting subsystems (functional warmup, the differential checker,
telemetry, dedicated prefetchers) attach through *declared hook points*
instead of ad-hoc attribute surgery.

Registries (see ``docs/ARCHITECTURE.md`` for the extension recipe):

* :data:`direction_predictors` -- conditional direction predictors,
  keyed by :class:`~repro.common.params.DirectionPredictorKind` value
  (or any registered custom name).  Factories are called as
  ``factory(branch_params, hist_bits)`` and may return ``None`` for
  oracle prediction.
* :data:`history_policies` -- branch-history policy descriptors, keyed
  by policy name.  Entries satisfy the :class:`HistoryPolicyLike`
  protocol (the four predicate properties `HistoryManager` consumes).
* :data:`btb_variants` -- BTB organisations, keyed by
  ``BranchPredictorParams.btb_variant`` name.  Factories are called as
  ``factory(branch_params)`` and return a BTB-compatible object.
* :data:`repro.prefetch.prefetchers` -- the dedicated prefetcher zoo
  (same registry class, owned by :mod:`repro.prefetch`).

Hook points a built simulator exposes:

* ``sim.hooks.spec_sync`` -- callables run whenever speculative state
  resynchronises to architectural state (backend misprediction flush
  and the functional-warmup boundary).  The loop predictor's
  ``flush_spec`` registers here.
* ``sim.hooks.warmup_boundary`` -- callables run once at the
  functional-warmup measurement boundary, after ``spec_sync``.  The
  prefetcher's ``reset_queue`` registers here.
* ``sim.trainer.add_branch_listener`` -- the committed-branch stream
  hook point (prefetcher training, the differential recorder).
* ``sim.observables`` -- the named components a telemetry hub
  instruments (``Telemetry.attach`` sets their ``telemetry`` slots).
"""

from __future__ import annotations

from repro.branch.btb import BTB
from repro.branch.btb2l import TwoLevelBTB
from repro.branch.gshare import Gshare
from repro.branch.history import HistoryManager
from repro.branch.ittage import ITTAGE
from repro.branch.loop import LoopPredictor
from repro.branch.perceptron import Perceptron
from repro.branch.tage import TAGE, TageConfig
from repro.common.params import (
    BranchPredictorParams,
    DirectionPredictorKind,
    HistoryPolicy,
    SimParams,
)
from repro.common.registry import Registry
from repro.common.stats import StatSet
from repro.core.backend import Backend, CommitTrainer, DecodeQueue
from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.fetch import FetchUnit
from repro.frontend.ftq import FTQ
from repro.memory.hierarchy import InstructionMemory
from repro.prefetch import prefetchers

# ----------------------------------------------------------------------
# Direction predictors
# ----------------------------------------------------------------------
direction_predictors = Registry("direction predictor")
"""Factories ``(branch_params, hist_bits) -> predictor | None``."""


def _build_tage(branch: BranchPredictorParams, hist_bits: int) -> TAGE:
    """The paper's baseline TAGE, sized by ``tage_storage_kib``."""
    return TAGE(TageConfig.for_budget_kib(branch.tage_storage_kib, hist_bits))


def _build_gshare(branch: BranchPredictorParams, hist_bits: int) -> Gshare:
    """8KB-class Gshare baseline (Fig 12)."""
    return Gshare(branch.gshare_storage_kib)


def _build_perceptron(branch: BranchPredictorParams, hist_bits: int) -> Perceptron:
    """Perceptron predictor at the Gshare storage budget (Fig 12)."""
    return Perceptron(branch.gshare_storage_kib)


def _build_perfect_direction(branch: BranchPredictorParams, hist_bits: int) -> None:
    """Oracle direction prediction: no predictor object is built."""
    return None


direction_predictors.register(DirectionPredictorKind.TAGE.value, _build_tage)
direction_predictors.register(DirectionPredictorKind.GSHARE.value, _build_gshare)
direction_predictors.register(DirectionPredictorKind.PERCEPTRON.value, _build_perceptron)
direction_predictors.register(DirectionPredictorKind.PERFECT.value, _build_perfect_direction)

# ----------------------------------------------------------------------
# History policies
# ----------------------------------------------------------------------
history_policies = Registry("history policy")
"""Policy descriptors (:class:`HistoryPolicyLike`), keyed by name."""

for _policy in HistoryPolicy:
    history_policies.register(_policy.value, _policy)


class HistoryPolicyLike:
    """Protocol a registered history-policy descriptor must satisfy.

    :class:`~repro.branch.history.HistoryManager` consumes exactly this
    surface; the built-in :class:`~repro.common.params.HistoryPolicy`
    enum members implement it.  Custom descriptors must provide a
    ``value`` (their registry name) plus the three predicate
    properties below.
    """

    value: str
    uses_target_history: bool
    allocates_all_branches: bool
    fixes_not_taken_history: bool


# ----------------------------------------------------------------------
# BTB variants
# ----------------------------------------------------------------------
btb_variants = Registry("BTB variant")
"""Factories ``(branch_params) -> BTB-compatible object``."""


def _build_single_btb(branch: BranchPredictorParams) -> BTB:
    """The default single-level set-associative BTB."""
    return BTB(branch.btb_entries, branch.btb_assoc)


def _build_two_level_btb(branch: BranchPredictorParams) -> TwoLevelBTB:
    """Two-level BTB hierarchy (Section II-B); needs ``btb_l1_entries``."""
    if not branch.btb_l1_entries:
        raise ValueError("BTB variant 'two_level' requires btb_l1_entries > 0")
    return TwoLevelBTB(
        branch.btb_l1_entries,
        branch.btb_l1_assoc,
        branch.btb_entries,
        branch.btb_assoc,
        branch.btb_l2_extra_latency,
    )


btb_variants.register("single", _build_single_btb)
btb_variants.register("two_level", _build_two_level_btb)


def resolve_btb_variant(branch: BranchPredictorParams) -> str:
    """Concrete BTB-variant name for a parameter bundle.

    ``btb_variant="auto"`` (the default) selects ``two_level`` when an
    L1 BTB is provisioned (``btb_l1_entries > 0``) and ``single``
    otherwise, matching the historical behaviour.
    """
    if branch.btb_variant != "auto":
        return branch.btb_variant
    return "two_level" if branch.btb_l1_entries else "single"


# ----------------------------------------------------------------------
# Prefetcher names
# ----------------------------------------------------------------------
def builds_prefetcher(name: str) -> bool:
    """Whether prefetcher ``name`` builds a dedicated prefetcher component.

    ``none`` attaches nothing and ``perfect`` only flags the memory
    hierarchy (every L1I access hits); every other name is a
    :data:`repro.prefetch.prefetchers` registry entry.
    """
    return name not in ("none", "perfect")


# ----------------------------------------------------------------------
# Component resolution (fail-fast validation)
# ----------------------------------------------------------------------
def resolve_components(params: SimParams) -> dict[str, str]:
    """Resolve every registry-named component of ``params``.

    Returns ``{family: name}`` for the resolvable families and raises
    ``ValueError`` (listing the known names) on the first unknown name.
    The sweep runner calls this before fanning work out, so a typo'd
    component name fails fast instead of inside a worker process.
    """
    kind = params.branch.direction_kind
    direction = kind.value if isinstance(kind, DirectionPredictorKind) else kind
    direction_predictors.get(direction)
    policy = params.frontend.history_policy
    policy_name = getattr(policy, "value", policy)
    history_policies.get(policy_name)
    variant = resolve_btb_variant(params.branch)
    btb_variants.get(variant)
    prefetcher = params.prefetcher
    if builds_prefetcher(prefetcher):
        prefetchers.get(prefetcher)
    return {
        "direction": direction,
        "history": policy_name,
        "btb": variant,
        "prefetcher": prefetcher,
    }


# ----------------------------------------------------------------------
# Hook points
# ----------------------------------------------------------------------
class SimHooks:
    """Declared attachment points of one built simulator.

    ``spec_sync`` callables run (in registration order) whenever
    speculative state resynchronises to architectural state: on every
    backend misprediction flush and at the functional-warmup boundary.
    ``warmup_boundary`` callables run once, at the functional-warmup
    measurement boundary only, after ``spec_sync``.
    """

    __slots__ = ("spec_sync", "warmup_boundary")

    def __init__(self) -> None:
        self.spec_sync: list = []
        self.warmup_boundary: list = []

    def run_spec_sync(self) -> None:
        """Invoke every speculative-state resync callback."""
        for hook in self.spec_sync:
            hook()

    def run_warmup_boundary(self) -> None:
        """Invoke spec-sync then warmup-boundary-only callbacks."""
        self.run_spec_sync()
        for hook in self.warmup_boundary:
            hook()


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------
class SimBuilder:
    """Assemble one :class:`~repro.core.simulator.Simulator` from registries.

    ``SimBuilder(params, program, stream).build()`` is equivalent to
    calling the ``Simulator`` constructor directly (which delegates its
    wiring here); the builder exists so component selection goes
    through the registries and so attachment paths use the declared
    hook points.  Component-swap experiments therefore need only a
    registered name in ``params``, never a core edit.
    """

    def __init__(self, params: SimParams, program, stream) -> None:
        self.params = params
        self.program = program
        self.stream = stream

    def build(self, telemetry=None):
        """Construct and return a fully wired simulator."""
        from repro.core.simulator import Simulator

        return Simulator(self.params, self.program, self.stream, telemetry=telemetry)

    # The wiring below runs inside Simulator.__init__ (via wire()); it
    # sets the component attributes the rest of the system reads.
    def wire(self, sim, telemetry=None) -> None:
        """Wire every component of ``sim`` (called by ``Simulator.__init__``)."""
        params = self.params
        program = self.program
        stream = self.stream
        names = resolve_components(params)

        sim.stats = StatSet()
        sim.memory = InstructionMemory(params.memory, sim.stats)
        sim._prewarm_l2(program)

        sim.btb = btb_variants.create(names["btb"], params.branch)
        sim.ittage = ITTAGE(params.branch.ittage_entries, params.branch.history_bits)

        policy = history_policies.get(names["history"])
        hist_bits = (
            params.branch.history_bits
            if policy.uses_target_history
            else params.branch.direction_history_bits
        )
        sim.hist_mgr = HistoryManager(policy, hist_bits)

        if params.branch.perfect_direction:
            sim.direction = None
        else:
            sim.direction = direction_predictors.create(
                names["direction"], params.branch, hist_bits
            )
        sim.loop = (
            LoopPredictor(params.branch.loop_predictor_entries)
            if params.branch.loop_predictor_entries
            else None
        )

        sim.ftq = FTQ(params.frontend.ftq_entries)
        sim.decode_queue = DecodeQueue(params.frontend.decode_queue_size)
        sim.trainer = CommitTrainer(
            stream=stream,
            mgr=sim.hist_mgr,
            btb=sim.btb,
            direction=sim.direction,
            ittage=sim.ittage,
            stats=sim.stats,
            train_direction=not params.branch.perfect_direction,
            loop=sim.loop,
        )
        sim.backend = Backend(params, sim.decode_queue, sim.trainer, sim.stats, sim._on_flush)
        sim.bpu = BranchPredictionUnit(
            params, program, stream, sim.btb, sim.direction, sim.ittage, sim.hist_mgr, sim.stats
        )
        sim.bpu.loop = sim.loop

        sim.memory.perfect = params.prefetcher == "perfect"
        sim.prefetcher = None
        if builds_prefetcher(params.prefetcher):
            sim.prefetcher = prefetchers.create(
                params.prefetcher, params, sim.memory, sim.btb, program, sim.stats
            )
            if params.prefetcher == "profile_guided":
                # Software prefetching: the offline profiling pass runs
                # over the warmup window only, like training on a
                # separate profiling run.
                from repro.prefetch.profile_guided import build_profile

                sim.prefetcher.profile = build_profile(
                    stream,
                    training_instructions=max(params.warmup_instructions, 1_000),
                    l1i_lines=params.memory.l1i_lines,
                    assoc=params.memory.l1i_assoc,
                    line_bytes=params.memory.line_bytes,
                )
            sim.trainer.add_branch_listener(sim.prefetcher.on_commit_branch)

        sim.fetch = FetchUnit(
            params=params,
            program=program,
            stream=stream,
            ftq=sim.ftq,
            memory=sim.memory,
            bpu=sim.bpu,
            hist_mgr=sim.hist_mgr,
            direction=sim.direction,
            decode_queue=sim.decode_queue,
            stats=sim.stats,
            prefetcher=sim.prefetcher,
        )

        # Declared hook points and the telemetry-observable surface.
        hooks = SimHooks()
        if sim.loop is not None:
            hooks.spec_sync.append(sim.loop.flush_spec)
        if sim.prefetcher is not None:
            hooks.warmup_boundary.append(sim.prefetcher.reset_queue)
        sim.hooks = hooks
        sim.observables = {
            "ftq": sim.ftq,
            "bpu": sim.bpu,
            "fetch": sim.fetch,
            "backend": sim.backend,
            "memory": sim.memory,
        }
        if sim.prefetcher is not None:
            sim.observables["prefetcher"] = sim.prefetcher

        sim.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(sim)
        sim.checker = None
        if params.check_invariants:
            # Imported lazily: the check layer is opt-in tooling and the
            # core simulator must not depend on it by default.
            from repro.check.invariants import InvariantChecker

            sim.checker = InvariantChecker(sim)
