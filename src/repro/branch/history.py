"""Global branch history management (Section III-A, Table V).

The history is a plain Python int bit-vector, so speculative snapshots
(stored per FTQ entry) and flush restores are O(1) copies.  A
:class:`HistoryManager` encodes *policy*: what the frontend pushes at
prediction time, what the commit stage replays architecturally, and
whether BTB-miss not-taken branches require a corrective frontend flush.

Policies (Table V):

========  ==============  =========  ==================
name      history type    fixup      BTB allocation
========  ==============  =========  ==================
THR       taken targets   not needed taken only
GHR0      directions      no         taken only
GHR1      directions      no         all branches
GHR2      directions      yes        taken only
GHR3      directions      yes        all branches
Ideal     directions      oracle     all (detection is moot)
========  ==============  =========  ==================

With direction history, a branch only contributes its bit when the
frontend *detects* it -- i.e. when it hits in the BTB.  Undetected
not-taken branches silently drop out of the history (GHR0/1) or cost a
corrective flush (GHR2/3).  Undetected *taken* branches always get
fixed, because the ensuing pipeline flush unrolls and repairs the
history (Section III-A).  Taken-only target history side-steps the
whole problem: not-taken branches never contribute, so nothing is ever
missing.
"""

from __future__ import annotations

from repro.common.params import HistoryPolicy

#: Bits shifted in per taken branch under target history (paper Eq. 3).
TARGET_SHIFT = 2


class HistoryManager:
    """Stateless policy object: all methods map history -> history."""

    __slots__ = ("policy", "bits", "mask", "_target_history", "_ideal", "_fixes_nt", "_alloc_all")

    def __init__(self, policy: HistoryPolicy, bits: int) -> None:
        if bits <= 0:
            raise ValueError("history length must be positive")
        self.policy = policy
        self.bits = bits
        self.mask = (1 << bits) - 1
        # Policy predicates resolve to enum-membership tests; the push
        # primitives run per predicted branch, so cache them as plain
        # bools once.
        self._target_history = policy.uses_target_history
        self._ideal = policy is HistoryPolicy.IDEAL
        self._fixes_nt = policy.fixes_not_taken_history
        self._alloc_all = policy.allocates_all_branches

    # ------------------------------------------------------------------
    # Primitive pushes
    # ------------------------------------------------------------------
    def push_taken(self, hist: int, pc: int, target: int) -> int:
        """Record a taken branch.

        Target history folds in a hash of (pc, target) -- Eq. 2/3;
        direction history shifts in a 1 bit -- Eq. 1.
        """
        if self._target_history:
            return ((hist << TARGET_SHIFT) ^ (pc >> 2) ^ (target >> 3)) & self.mask
        return ((hist << 1) | 1) & self.mask

    def push_not_taken(self, hist: int) -> int:
        """Record a not-taken branch (no-op under target history)."""
        if self._target_history:
            return hist
        return (hist << 1) & self.mask

    def push_outcome(self, hist: int, pc: int, taken: bool, target: int) -> int:
        if taken:
            return self.push_taken(hist, pc, target)
        return self.push_not_taken(hist)

    # ------------------------------------------------------------------
    # Frontend (speculative) semantics
    # ------------------------------------------------------------------
    def spec_push(self, hist: int, pc: int, predicted_taken: bool, target: int) -> int:
        """History contribution of a *detected* branch at prediction time."""
        return self.push_outcome(hist, pc, predicted_taken, target)

    # ------------------------------------------------------------------
    # Commit (architectural) semantics
    # ------------------------------------------------------------------
    def commit_push(
        self, hist: int, pc: int, taken: bool, target: int, detected: bool
    ) -> tuple[int, bool]:
        """Replay one committed branch into the architectural history.

        Returns ``(new_history, fixup_flush)`` where ``fixup_flush`` is
        True when this branch's contribution only exists because a
        GHR2/GHR3 corrective frontend flush inserted it.

        The architectural history must equal what the frontend's policy
        would have accumulated on the correct path, because it is copied
        back into the frontend on every pipeline flush.
        """
        if self._target_history:
            if taken:
                return self.push_taken(hist, pc, target), False
            return hist, False

        if self._ideal:
            return self.push_outcome(hist, pc, taken, target), False

        if detected:
            return self.push_outcome(hist, pc, taken, target), False

        # Undetected (BTB-miss) branch.
        if taken:
            # The misprediction flush unrolls and repairs the history.
            return self.push_taken(hist, pc, target), False
        if self._fixes_nt:
            return self.push_not_taken(hist), True
        # GHR0/GHR1: the bit is simply lost.
        return hist, False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def allocates_all_branches(self) -> bool:
        return self._alloc_all

    @property
    def fixes_not_taken(self) -> bool:
        return self._fixes_nt

    @property
    def is_ideal(self) -> bool:
        return self._ideal

    @property
    def ignores_detection(self) -> bool:
        """True when :meth:`commit_push` ignores ``detected`` (THR, Ideal).

        The committed history is then a function of the trace alone, so
        it can be replayed ahead of time
        (:meth:`repro.trace.fbmeta.StreamMeta.arch_histories`).
        """
        return self._target_history or self._ideal

    def __repr__(self) -> str:
        return f"HistoryManager({self.policy.value}, bits={self.bits})"
