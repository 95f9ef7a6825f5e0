"""Simulation parameter dataclasses.

The parameter surface mirrors Table IV of the paper (common core
parameters, Sunny Cove-like) plus the knobs the evaluation sweeps:
FTQ depth (Fig 14), BTB capacity (Figs 7/11), direction predictor kind
and size (Fig 12), prediction bandwidth and BTB latency (Fig 13),
history-management policy (Table V / Fig 8) and PFC on/off.

Everything is a frozen dataclass so configurations can be hashed,
compared, and safely shared between runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum


class HistoryPolicy(str, Enum):
    """Branch history management policies (Table V).

    * ``THR``   -- taken-only branch target history; BTB allocates taken
      branches only; no fixup needed (the paper's proposal).
    * ``GHR0``  -- direction history, no fixup, taken-only BTB allocation.
    * ``GHR1``  -- direction history, no fixup, BTB allocates all branches.
    * ``GHR2``  -- direction history, fixup on BTB-miss not-taken branches
      (costs frontend flushes), taken-only BTB allocation.
    * ``GHR3``  -- direction history, fixup, BTB allocates all branches
      (the policy commonly paired with basic-block BTBs in academia).
    * ``IDEAL`` -- oracle direction history: every branch contributes its
      bit as if always detected, with no fixup flushes.
    """

    THR = "THR"
    GHR0 = "GHR0"
    GHR1 = "GHR1"
    GHR2 = "GHR2"
    GHR3 = "GHR3"
    IDEAL = "Ideal"

    @property
    def uses_target_history(self) -> bool:
        return self is HistoryPolicy.THR

    @property
    def allocates_all_branches(self) -> bool:
        """True if not-taken branches are installed in the BTB too."""
        return self in (HistoryPolicy.GHR1, HistoryPolicy.GHR3)

    @property
    def fixes_not_taken_history(self) -> bool:
        """True if BTB-miss not-taken branches trigger a history fixup flush."""
        return self in (HistoryPolicy.GHR2, HistoryPolicy.GHR3)


class DirectionPredictorKind(str, Enum):
    """Conditional direction predictor selection (Fig 12)."""

    TAGE = "tage"
    GSHARE = "gshare"
    PERCEPTRON = "perceptron"
    PERFECT = "perfect"


def _known(what: str, value, names) -> ValueError:
    """The error for an unknown component name, listing the known ones."""
    return ValueError(f"unknown {what} {value!r}; known: {', '.join(names)}")


def _coerce(enum: type[Enum], value, what: str):
    """``value`` as a member of ``enum`` (its value string is accepted)."""
    try:
        return enum(value)
    except ValueError:
        raise _known(what, value, sorted(m.value for m in enum)) from None


@dataclass(frozen=True)
class BranchPredictorParams:
    """Branch prediction resources (Section V; Fig 12 sweeps sizes)."""

    direction_kind: DirectionPredictorKind = DirectionPredictorKind.TAGE
    tage_storage_kib: int = 18
    """Approximate TAGE budget: 9 (half), 18 (baseline), 36 (2x)."""
    gshare_storage_kib: int = 8
    history_bits: int = 260
    """Branch history length used by TAGE/ITTAGE (paper: 260 for THR)."""
    direction_history_bits: int = 280
    """History length when a direction-history policy is used (Section VI-C)."""

    btb_entries: int = 8192
    btb_assoc: int = 4
    btb_latency: int = 2
    """Cycles from BTB access to a usable taken-branch target (Fig 13)."""
    btb_l1_entries: int = 0
    """When > 0, a two-level BTB hierarchy is used (Section II-B): a fast
    L1 of this many entries in front of the ``btb_entries`` L2."""
    btb_l1_assoc: int = 4
    btb_l2_extra_latency: int = 2
    """Extra prediction-pipeline cycles when a taken prediction's entry
    was served from the L2 BTB."""
    perfect_btb: bool = False
    perfect_indirect: bool = False

    ittage_entries: int = 2048
    ras_entries: int = 64
    loop_predictor_entries: int = 0
    """When > 0, a loop predictor (Fig 2) overrides the direction
    predictor on confidently learned counted loops."""

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "direction_kind",
            _coerce(DirectionPredictorKind, self.direction_kind, "direction predictor"),
        )
        if self.btb_entries <= 0 or self.btb_assoc <= 0:
            raise ValueError("BTB geometry must be positive")
        if self.btb_entries % self.btb_assoc:
            raise ValueError("btb_entries must be a multiple of btb_assoc")
        if self.btb_latency < 1:
            raise ValueError("btb_latency must be at least 1 cycle")
        if self.btb_l1_entries < 0 or self.btb_l2_extra_latency < 0:
            raise ValueError("two-level BTB parameters cannot be negative")
        if self.btb_l1_entries and self.btb_l1_entries >= self.btb_entries:
            raise ValueError("L1 BTB must be smaller than the L2 BTB")
        if self.btb_l1_assoc < 1:
            raise ValueError(f"btb_l1_assoc must be at least 1, got {self.btb_l1_assoc}")
        if self.tage_storage_kib not in (9, 18, 36):
            # TageConfig.for_budget_kib builds one of three geometries.
            raise ValueError(
                f"tage_storage_kib must be 9, 18 or 36, got {self.tage_storage_kib}"
            )
        if self.btb_l1_entries % self.btb_l1_assoc:
            raise ValueError("btb_l1_entries must be a multiple of btb_l1_assoc")


@dataclass(frozen=True)
class FrontendParams:
    """Decoupled frontend shape (Section IV)."""

    ftq_entries: int = 24
    """FTQ depth; 24 x 8-instruction blocks = the paper's 192-instruction FTQ.

    2 entries (16 instructions) models FDP-off (Section V)."""
    fetch_width: int = 6
    """Instructions fetched to the decode queue per cycle."""
    predict_width: int = 12
    """Instructions covered by branch prediction per cycle (2x fetch)."""
    max_taken_per_cycle: int = 1
    """Predicted-taken branches resolvable per cycle (B18m raises this)."""
    decode_queue_size: int = 64
    fetch_probe_width: int = 2
    """FTQ entries that may start I-TLB/I-cache tag probes per cycle."""
    pfc_enabled: bool = True
    history_policy: HistoryPolicy = HistoryPolicy.THR
    block_bytes: int = 32
    """Fetch block granularity; each FTQ entry covers one aligned block."""
    wrong_path_fills: bool = True
    """Diagnostic ablation (not a hardware knob): when False, FTQ entries
    the simulator knows to be wrong-path skip their I-cache probe/fill,
    isolating how much of FDP's benefit comes from wrong-path
    prefetching versus correct-path run-ahead."""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "history_policy", _coerce(HistoryPolicy, self.history_policy, "history policy")
        )
        if self.ftq_entries < 2:
            raise ValueError("FTQ needs at least 2 entries")
        if self.fetch_width < 1 or self.predict_width < 1:
            raise ValueError("widths must be positive")
        for name in ("fetch_probe_width", "max_taken_per_cycle"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.block_bytes not in (16, 32, 64):
            raise ValueError("block_bytes must be 16, 32 or 64")
        if self.decode_queue_size < self.fetch_width:
            raise ValueError("decode queue must hold at least one fetch group")

    @property
    def instrs_per_block(self) -> int:
        return self.block_bytes // 4

    @property
    def fdp_enabled(self) -> bool:
        """FDP is 'off' when the FTQ is too shallow to run ahead (Section V)."""
        return self.ftq_entries > 2


@dataclass(frozen=True)
class MemoryParams:
    """Instruction-side memory hierarchy (Table IV, scaled latencies)."""

    l1i_kib: int = 32
    l1i_assoc: int = 8
    line_bytes: int = 64
    l2_kib: int = 1024
    l2_assoc: int = 8
    l2_latency: int = 14
    dram_latency: int = 170
    mshr_entries: int = 16
    itlb_entries: int = 64
    itlb_page_bytes: int = 4096
    itlb_miss_latency: int = 20

    def __post_init__(self) -> None:
        if self.line_bytes not in (32, 64, 128):
            raise ValueError("line_bytes must be 32, 64 or 128")
        if self.l1i_kib <= 0 or self.l2_kib <= 0:
            raise ValueError("cache sizes must be positive")
        for name in ("l2_latency", "dram_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative, got {getattr(self, name)}")
        page = self.itlb_page_bytes
        if page < 1 or page & (page - 1):
            raise ValueError(f"itlb_page_bytes must be a positive power of two, got {page}")

    @property
    def l1i_lines(self) -> int:
        return self.l1i_kib * 1024 // self.line_bytes

    @property
    def l2_lines(self) -> int:
        return self.l2_kib * 1024 // self.line_bytes


@dataclass(frozen=True)
class CoreParams:
    """Backend consumption model (Sunny Cove-like widths)."""

    retire_width: int = 6
    mispredict_penalty: int = 14
    """Cycles from consuming a mispredicted branch to frontend restart."""
    pfc_resteer_penalty: int = 3
    """Frontend bubble charged when PFC re-steers the prefetch stream."""
    history_fixup_penalty: int = 3
    """Frontend bubble charged by a GHR2/GHR3 history-fixup flush."""

    def __post_init__(self) -> None:
        if self.retire_width < 1:
            raise ValueError("retire_width must be positive")
        if self.mispredict_penalty < 1:
            raise ValueError("mispredict_penalty must be positive")
        for name in ("pfc_resteer_penalty", "history_fixup_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative, got {getattr(self, name)}")


WARMUP_MODES = ("auto", "cycle", "functional")
"""Valid :attr:`SimParams.warmup_mode` values.

* ``cycle``      -- warm through the full cycle-accurate pipeline (the
  original behaviour; exact but pays pipeline modelling for a window
  that is never measured).
* ``functional`` -- replay the oracle stream in commit order, training
  BTB/direction/ITTAGE/loop/RAS/history and warming L1I/L2/I-TLB
  without ticking the FTQ, fetch unit, backend or MSHRs, then start the
  cycle-accurate loop at the measurement boundary (see
  :mod:`repro.core.warmup`).
* ``auto``       -- resolve by call site: ``cycle`` for the direct
  simulator API, ``functional`` under the sweep runner (which resolves
  the mode *before* computing cache keys, so the two never share cache
  entries).
"""


@dataclass(frozen=True)
class SimParams:
    """Top-level bundle for one simulation run."""

    frontend: FrontendParams = field(default_factory=FrontendParams)
    branch: BranchPredictorParams = field(default_factory=BranchPredictorParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    core: CoreParams = field(default_factory=CoreParams)
    warmup_instructions: int = 40_000
    sim_instructions: int = 60_000
    prefetcher: str = "none"
    """The L1I prefetcher to attach: ``none``, ``perfect`` (every L1I
    access hits) or a :data:`repro.prefetch.PREFETCHERS` name."""
    warmup_mode: str = "auto"
    """How the warmup window is simulated (see :data:`WARMUP_MODES`)."""
    check_invariants: bool = False
    """Run the machine-checked invariant layer (:mod:`repro.check`) every
    cycle and at end of run.  Checks only *observe* -- results are
    bit-identical to an unchecked run -- but the per-cycle sweep costs
    simulation speed, so it defaults off; ``repro check`` and the fuzzer
    turn it on, and ``REPRO_CHECK=1`` enables it for sweep runs."""

    def __post_init__(self) -> None:
        from repro.prefetch import PREFETCHERS  # the prefetchers import this module

        if self.prefetcher not in PREFETCHERS and self.prefetcher not in ("none", "perfect"):
            raise _known("prefetcher", self.prefetcher, ["none", "perfect", *sorted(PREFETCHERS)])
        if self.warmup_instructions < 0 or self.sim_instructions <= 0:
            raise ValueError("instruction windows must be sensible")
        if self.warmup_mode not in WARMUP_MODES:
            raise ValueError(
                f"warmup_mode must be one of {WARMUP_MODES}, got {self.warmup_mode!r}"
            )
        if self.frontend.block_bytes > self.memory.line_bytes:
            # Each FTQ entry probes only the line of its start address.
            raise ValueError(
                f"frontend.block_bytes ({self.frontend.block_bytes}) cannot exceed "
                f"memory.line_bytes ({self.memory.line_bytes})"
            )

    def replace(self, **kwargs) -> "SimParams":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def with_frontend(self, **kwargs) -> "SimParams":
        return dataclasses.replace(self, frontend=dataclasses.replace(self.frontend, **kwargs))

    def with_branch(self, **kwargs) -> "SimParams":
        return dataclasses.replace(self, branch=dataclasses.replace(self.branch, **kwargs))

    def with_memory(self, **kwargs) -> "SimParams":
        return dataclasses.replace(self, memory=dataclasses.replace(self.memory, **kwargs))

    def with_core(self, **kwargs) -> "SimParams":
        return dataclasses.replace(self, core=dataclasses.replace(self.core, **kwargs))

    def label(self) -> str:
        """A short human-readable tag for tables and logs.

        The BTB reads ``btb8k`` for a multiple of 1K entries, ``btb512``
        for any other size and ``btbperfect`` for a perfect BTB.
        """
        fdp = "fdp" if self.frontend.fdp_enabled else "nofdp"
        pfc = "+pfc" if self.frontend.pfc_enabled else ""
        pf = f"+{self.prefetcher}" if self.prefetcher != "none" else ""
        entries = self.branch.btb_entries
        if self.branch.perfect_btb:
            btb = "perfect"
        elif entries % 1024:
            btb = str(entries)
        else:
            btb = f"{entries // 1024}k"
        return f"{fdp}{pfc}{pf}/{self.frontend.history_policy.value}/btb{btb}"


def from_dict(cls, data: dict):
    """An instance of dataclass ``cls`` from its JSON encoding.

    JSON lists become tuples again.  Keys that are no longer fields (a
    document written by an older version) are ignored, and missing
    fields take their defaults.
    """
    return cls(
        **{
            f.name: tuple(data[f.name]) if isinstance(data[f.name], list) else data[f.name]
            for f in dataclasses.fields(cls)
            if f.name in data
        }
    )


def params_from_dict(data: dict) -> SimParams:
    """Rebuild a :class:`SimParams` from its canonical JSON encoding.

    The inverse of :func:`repro.experiments.cache._canonical`, the
    encoding result-cache entries and fuzz reproducers store.  Component
    names stay strings: the dataclasses coerce them to their enums and
    reject unknown ones.
    """
    nested = {
        "frontend": from_dict(FrontendParams, data["frontend"]),
        "branch": from_dict(BranchPredictorParams, data["branch"]),
        "memory": from_dict(MemoryParams, data["memory"]),
        "core": from_dict(CoreParams, data["core"]),
    }
    return from_dict(SimParams, {**data, **nested})
