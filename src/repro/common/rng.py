"""Deterministic pseudo-random number generation.

Every stochastic decision in the repository (program shapes, branch
behaviours, interpreter outcomes) flows from a :class:`SplitMix64`
seeded by an explicit value, so that traces and experiments are
reproducible bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# uint64 forms of the constants for the vectorised draws of ``shuffle``.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


class SplitMix64:
    """Small, fast, deterministic 64-bit PRNG (SplitMix64).

    Chosen over :mod:`random` to keep the stream format independent of
    CPython internals and trivially re-implementable.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next raw 64-bit value."""
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Return a uniform integer in ``[lo, hi]`` inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)``."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def chance(self, p: float) -> bool:
        """Return True with probability ``p``."""
        return self.random() < p

    def choice(self, seq):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_u64() % len(seq)]

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place (Fisher-Yates).

        Step ``i`` (``i = n-1`` down to 1) swaps ``seq[i]`` with
        ``seq[draw % (i + 1)]``, taking one draw per step.  The k-th draw
        from state ``s`` is the finalizer applied to ``s + k * GOLDEN``
        (mod 2**64), so it depends on ``s`` and ``k`` alone, not on the
        draws before it.  All ``n - 1`` draws are therefore computed as
        one ``uint64`` vector, whose arithmetic wraps modulo 2**64 exactly
        like the ``& _MASK64`` of :meth:`next_u64`, and the state ends
        where ``n - 1`` calls of :meth:`next_u64` would leave it: the
        permutation and every later draw equal the per-step loop's.
        Every operand is ``uint64``; mixing in a signed integer would
        promote to ``float64`` under numpy's value-based casting.
        """
        n = len(seq)
        z = np.arange(1, n, dtype=np.uint64)
        z *= _GOLDEN_U64
        z += np.uint64(self._state)
        z ^= z >> _U30
        z *= _MIX1_U64
        z ^= z >> _U27
        z *= _MIX2_U64
        z ^= z >> _U31
        z %= np.arange(2, n + 1, dtype=np.uint64)[::-1]
        picks = z.tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            seq[i], seq[j] = seq[j], seq[i]
        self._state = (self._state + len(picks) * _GOLDEN) & _MASK64

    def fork(self, tag: int) -> "SplitMix64":
        """Derive an independent child stream keyed by ``tag``.

        Forking keeps unrelated subsystems (e.g. two branch behaviours)
        decoupled: adding draws to one does not perturb the other.
        """
        return SplitMix64(self.next_u64() ^ ((tag * _GOLDEN) & _MASK64))
